package rt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// LiveEnv runs actors as free-running goroutines on the wall clock.
type LiveEnv struct {
	epoch int64 // internal/clock stamp taken at construction
	wg    sync.WaitGroup
}

// NewLive returns a wall-clock environment whose epoch is now.
func NewLive() *LiveEnv { return &LiveEnv{epoch: clock.Now()} }

// WaitIdle blocks until every actor spawned with Go has returned. Useful
// in tests; production code synchronises through Events instead.
func (e *LiveEnv) WaitIdle() { e.wg.Wait() }

// Now is the timestamp every send decision and telemetry sample reads,
// often several times per message; it must stay a bare monotonic-clock
// subtraction.
//
//railvet:hotpath
func (e *LiveEnv) Now() time.Duration { return clock.Since(e.epoch) }

func (e *LiveEnv) Go(name string, fn func(Ctx)) {
	_ = name // names are for simulation traces; goroutines are anonymous
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		fn(liveCtx{env: e})
	}()
}

// After schedules fn to run d from now. Every handler — immediate or
// timer-fired — is tracked by the WaitGroup: WaitIdle must not return
// while scheduled handlers are pending or running. (All After users
// schedule bounded, short delays; a long-delay handler would hold
// WaitIdle open, which is the correct reading of "idle".)
func (e *LiveEnv) After(d time.Duration, fn func()) {
	e.wg.Add(1)
	run := func() {
		defer e.wg.Done()
		fn()
	}
	if d <= 0 {
		// Preserve the "runs later, never inline" guarantee of the sim.
		go run()
		return
	}
	time.AfterFunc(d, run)
}

func (e *LiveEnv) NewEvent() Event { return new(LiveEvent) }

// EventAt hands the caller's slot back as the event: a zero LiveEvent is
// ready to use, so nothing is allocated.
func (e *LiveEnv) EventAt(slot *LiveEvent) Event { return slot }

func (e *LiveEnv) NewQueue() Queue {
	q := &liveQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

type liveCtx struct{ env *LiveEnv }

func (c liveCtx) Now() time.Duration { return c.env.Now() }
func (c liveCtx) Sleep(d time.Duration) {
	if d >= spinSleepBelow {
		time.Sleep(d)
		return
	}
	// Shorter than an OS timer can keep: a parked thread is woken a tick
	// late (a 10 µs time.Sleep measures ≈ 0.7 ms on an otherwise idle
	// process), so pass the time yielding instead.
	for end := clock.Now() + int64(d); clock.Now() < end; {
		runtime.Gosched()
	}
}

// spinSleepBelow is the sleep below which liveCtx.Sleep yields instead of
// parking.
const spinSleepBelow = 100 * time.Microsecond

// LiveEvent is the wall-clock Event. Its zero value is an unfired event,
// so the object an event completes embeds it instead of pointing at one
// (Env.EventAt); it must not be copied after first use. Fire, Wait and
// the first OnFire allocate nothing: waiters park on a condition
// variable, and only WaitTimeout — which no per-message path calls —
// builds a channel and a timer.
type LiveEvent struct {
	mu    sync.Mutex
	fired atomic.Bool // written under mu; read lock-free by Fired and Wait
	wake  sync.Cond   // parks waiters; L is set by the first one, under mu
	cb    func()      // the first callback, inline
	cbs   []func()    // any further callbacks
}

func (e *LiveEvent) Fire() {
	e.mu.Lock()
	if e.fired.Load() {
		e.mu.Unlock()
		return
	}
	e.fired.Store(true)
	cb, cbs := e.cb, e.cbs
	e.cb, e.cbs = nil, nil
	e.mu.Unlock()
	e.wake.Broadcast()
	if cb != nil {
		cb()
	}
	for _, cb := range cbs {
		cb()
	}
}

func (e *LiveEvent) Fired() bool { return e.fired.Load() }

func (e *LiveEvent) Wait(Ctx) {
	if e.fired.Load() {
		return
	}
	e.mu.Lock()
	for !e.fired.Load() {
		if e.wake.L == nil {
			e.wake.L = &e.mu
		}
		e.wake.Wait()
	}
	e.mu.Unlock()
}

func (e *LiveEvent) WaitTimeout(_ Ctx, d time.Duration) bool {
	if d <= 0 || e.fired.Load() {
		return e.fired.Load()
	}
	done := make(chan struct{})
	e.OnFire(func() { close(done) })
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return e.fired.Load() // may have fired concurrently with the timer
	}
}

func (e *LiveEvent) OnFire(cb func()) {
	e.mu.Lock()
	if e.fired.Load() {
		e.mu.Unlock()
		cb()
		return
	}
	if e.cb == nil && len(e.cbs) == 0 {
		e.cb = cb
	} else {
		e.cbs = append(e.cbs, cb)
	}
	e.mu.Unlock()
}

// liveQueue is a ring: the backing array is reused as items come and
// go, and a popped slot is cleared so the queue does not keep the item
// alive. A worker's queue in steady state allocates nothing.
//
// A queue with one consumer also keeps that consumer's turn (PopTurn,
// TryTurn, EndTurn): between popping an item and finishing it the consumer
// holds the turn, and a producer that finds the queue empty and the turn
// free may take it — do the item's work itself, then give the turn back —
// instead of pushing. Whoever holds the turn, items still go one at a
// time and in push order. Pop and TryPop ignore turns.
type liveQueue struct {
	mu   sync.Mutex
	cond *sync.Cond
	buf  []any // len is zero or a power of two
	head int
	n    int
	held bool // the turn is taken
}

func (q *liveQueue) Push(v any) {
	q.mu.Lock()
	if q.n == len(q.buf) {
		grown := make([]any, max(16, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
	wake := !q.held // EndTurn wakes the consumer of a held queue
	q.mu.Unlock()
	if wake {
		q.cond.Signal()
	}
}

// pop removes the head item; the caller holds q.mu and has checked n > 0.
func (q *liveQueue) pop() any {
	v := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

func (q *liveQueue) Pop(Ctx) any {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 {
		q.cond.Wait()
	}
	return q.pop()
}

// PopTurn is Pop for a consumer that takes turns: it waits for an item and
// a free turn, takes both, and reports whether it had to wait. The turn
// is the consumer's until EndTurn — for good if it pops its stop nudge and
// never calls it.
//
//railvet:hotpath
func (q *liveQueue) PopTurn(Ctx) (v any, waited bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 || q.held {
		waited = true
		q.cond.Wait()
	}
	q.held = true
	return q.pop(), waited
}

// TryTurn takes the turn if the queue is empty and the turn free: nothing
// is ahead of the caller, and nothing will overtake it until EndTurn.
//
//railvet:hotpath
func (q *liveQueue) TryTurn() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n != 0 || q.held {
		return false
	}
	q.held = true
	return true
}

// EndTurn gives the turn back and wakes the consumer if items arrived
// meanwhile.
//
//railvet:hotpath
func (q *liveQueue) EndTurn() {
	q.mu.Lock()
	q.held = false
	wake := q.n > 0
	q.mu.Unlock()
	if wake {
		q.cond.Signal()
	}
}

func (q *liveQueue) TryPop() (any, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 {
		return nil, false
	}
	return q.pop(), true
}

func (q *liveQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}
