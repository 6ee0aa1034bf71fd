package des

// waiter tracks a parked process together with a flag ensuring it is woken
// exactly once even when several wake sources race (e.g. Fire vs timeout).
type waiter struct {
	p     *Proc
	woken bool
}

// Event is a one-shot completion. Processes block on it with Wait;
// handlers observe it with OnFire. Once fired it stays fired.
type Event struct {
	sim     *Simulator
	fired   bool
	waiters []*waiter
	cbs     []func()
}

// NewEvent returns an unfired event.
func (s *Simulator) NewEvent() *Event { return &Event{sim: s} }

// Fired reports whether the event has fired.
func (e *Event) Fired() bool { return e.fired }

// Fire fires the event: every waiting process is scheduled to resume at
// the current time (in wait order) and every callback is scheduled as an
// inline handler. Firing twice is a no-op.
func (e *Event) Fire() {
	if e.fired {
		return
	}
	e.fired = true
	for _, w := range e.waiters {
		if !w.woken {
			w.woken = true
			e.sim.schedule(e.sim.now, nil, w.p)
		}
	}
	e.waiters = nil
	for _, cb := range e.cbs {
		e.sim.At(e.sim.now, cb)
	}
	e.cbs = nil
}

// Wait blocks the calling process until the event fires. Returns
// immediately if it already fired.
func (e *Event) Wait(p *Proc) {
	if e.fired {
		return
	}
	w := &waiter{p: p}
	e.waiters = append(e.waiters, w)
	p.park()
}

// WaitTimeout blocks the calling process until the event fires or d
// elapses, whichever is first, and reports whether the event fired.
func (e *Event) WaitTimeout(p *Proc, d Time) bool {
	if e.fired {
		return true
	}
	w := &waiter{p: p}
	e.waiters = append(e.waiters, w)
	e.sim.After(d, func() {
		if !w.woken {
			w.woken = true
			e.sim.schedule(e.sim.now, nil, w.p)
		}
	})
	p.park()
	return e.fired
}

// OnFire registers cb to run (as an inline handler) when the event fires.
// If the event already fired, cb is scheduled at the current time.
func (e *Event) OnFire(cb func()) {
	if e.fired {
		e.sim.At(e.sim.now, cb)
		return
	}
	e.cbs = append(e.cbs, cb)
}

// Queue is an unbounded FIFO of arbitrary items with blocking Pop.
// Push never blocks and may be called from handlers.
type Queue struct {
	sim     *Simulator
	items   []any
	waiters []*waiter
}

// NewQueue returns an empty queue.
func (s *Simulator) NewQueue() *Queue { return &Queue{sim: s} }

// Len returns the number of queued items.
func (q *Queue) Len() int { return len(q.items) }

// Push appends v and wakes one waiting popper, if any.
func (q *Queue) Push(v any) {
	q.items = append(q.items, v)
	q.wakeOne()
}

func (q *Queue) wakeOne() {
	for len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		if !w.woken {
			w.woken = true
			q.sim.schedule(q.sim.now, nil, w.p)
			return
		}
	}
}

// TryPop removes and returns the head item without blocking.
func (q *Queue) TryPop() (any, bool) {
	if len(q.items) == 0 {
		return nil, false
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

// Pop removes and returns the head item, blocking the calling process
// while the queue is empty. Wake-ups use condition-variable semantics: a
// woken process re-checks emptiness, so ordering among concurrent poppers
// follows the event schedule deterministically.
func (q *Queue) Pop(p *Proc) any {
	for {
		if v, ok := q.TryPop(); ok {
			return v
		}
		w := &waiter{p: p}
		q.waiters = append(q.waiters, w)
		p.park()
	}
}

// Resource is a FIFO counted resource with capacity slots (an FCFS server
// pool). Release hands the slot directly to the oldest waiter, so waiters
// cannot be barged past by late arrivals — acquisition order is strictly
// first-come first-served, which keeps NIC and core scheduling fair and
// deterministic.
type Resource struct {
	sim     *Simulator
	cap     int
	inUse   int
	waiters []*waiter
}

// NewResource returns a resource with the given capacity (at least 1).
func (s *Simulator) NewResource(capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{sim: s, cap: capacity}
}

// tryAcquire takes a slot if one is free and no one is queued before us.
func (r *Resource) tryAcquire() bool {
	if r.inUse < r.cap && len(r.waiters) == 0 {
		r.inUse++
		return true
	}
	return false
}

// Acquire blocks the calling process until a slot is available.
func (r *Resource) Acquire(p *Proc) {
	if r.tryAcquire() {
		return
	}
	w := &waiter{p: p}
	r.waiters = append(r.waiters, w)
	p.park()
	// Ownership was handed to us by Release; inUse already accounts for it.
}

// Release frees a slot or hands it directly to the oldest waiter.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("des: Resource.Release without matching Acquire")
	}
	for len(r.waiters) > 0 {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		if !w.woken {
			w.woken = true
			// Handoff: the slot stays accounted in inUse and now belongs
			// to w.p, which resumes inside Acquire.
			r.sim.schedule(r.sim.now, nil, w.p)
			return
		}
	}
	r.inUse--
}
