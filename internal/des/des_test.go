package des

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func us(n int) Time { return Time(n) * time.Microsecond }

func TestClockStartsAtZero(t *testing.T) {
	s := New()
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
}

func TestHandlersRunInTimeOrder(t *testing.T) {
	s := New()
	var got []int
	s.At(us(30), func() { got = append(got, 3) })
	s.At(us(10), func() { got = append(got, 1) })
	s.At(us(20), func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != us(30) {
		t.Fatalf("final clock %v, want %v", s.Now(), us(30))
	}
}

func TestSimultaneousEventsKeepSchedulingOrder(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(us(5), func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO violated at %d: %v", i, got)
		}
	}
}

func TestPastEventsClampToNow(t *testing.T) {
	s := New()
	var at Time = -1
	s.At(us(10), func() {
		s.At(us(1), func() { at = s.Now() }) // in the past
	})
	s.Run()
	if at != us(10) {
		t.Fatalf("past event ran at %v, want clamped to %v", at, us(10))
	}
}

func TestProcSleepAdvancesClock(t *testing.T) {
	s := New()
	var woke Time
	s.Go("sleeper", func(p *Proc) {
		p.Sleep(us(42))
		woke = p.Now()
	})
	s.Run()
	if woke != us(42) {
		t.Fatalf("woke at %v, want %v", woke, us(42))
	}
}

func TestProcSequentialSleeps(t *testing.T) {
	s := New()
	var marks []Time
	s.Go("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(us(10))
			marks = append(marks, p.Now())
		}
	})
	s.Run()
	for i, m := range marks {
		if want := us(10 * (i + 1)); m != want {
			t.Fatalf("mark %d = %v, want %v", i, m, want)
		}
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	s := New()
	s.Go("p", func(p *Proc) {
		p.Sleep(-us(5))
		if p.Now() != 0 {
			t.Errorf("negative sleep moved clock to %v", p.Now())
		}
	})
	s.Run()
}

func TestEventWaitAndFire(t *testing.T) {
	s := New()
	e := s.NewEvent()
	var woke Time = -1
	s.Go("waiter", func(p *Proc) {
		e.Wait(p)
		woke = p.Now()
	})
	s.At(us(100), e.Fire)
	s.Run()
	if woke != us(100) {
		t.Fatalf("waiter woke at %v, want %v", woke, us(100))
	}
	if !e.Fired() {
		t.Fatal("event not marked fired")
	}
}

func TestEventWaitAfterFireReturnsImmediately(t *testing.T) {
	s := New()
	e := s.NewEvent()
	e.Fire()
	ran := false
	s.Go("late", func(p *Proc) {
		e.Wait(p)
		ran = true
	})
	s.Run()
	if !ran {
		t.Fatal("late waiter never returned")
	}
}

func TestEventFireIsIdempotent(t *testing.T) {
	s := New()
	e := s.NewEvent()
	n := 0
	e.OnFire(func() { n++ })
	e.Fire()
	e.Fire()
	s.Run()
	if n != 1 {
		t.Fatalf("callback ran %d times, want 1", n)
	}
}

func TestEventWakesWaitersInOrder(t *testing.T) {
	s := New()
	e := s.NewEvent()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Go("w", func(p *Proc) {
			e.Wait(p)
			order = append(order, i)
		})
	}
	s.At(us(1), e.Fire)
	s.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("wake order %v, want ascending", order)
		}
	}
}

func TestEventWaitTimeoutExpires(t *testing.T) {
	s := New()
	e := s.NewEvent()
	var fired bool
	var at Time
	s.Go("w", func(p *Proc) {
		fired = e.WaitTimeout(p, us(50))
		at = p.Now()
	})
	s.Run()
	if fired {
		t.Fatal("WaitTimeout reported fired without Fire")
	}
	if at != us(50) {
		t.Fatalf("timeout at %v, want %v", at, us(50))
	}
}

func TestEventWaitTimeoutFiresFirst(t *testing.T) {
	s := New()
	e := s.NewEvent()
	var fired bool
	var at Time
	s.Go("w", func(p *Proc) {
		fired = e.WaitTimeout(p, us(50))
		at = p.Now()
	})
	s.At(us(10), e.Fire)
	s.Run()
	if !fired {
		t.Fatal("WaitTimeout missed Fire")
	}
	if at != us(10) {
		t.Fatalf("woke at %v, want %v", at, us(10))
	}
	// The stale timeout at t=50 must not double-wake anyone; draining the
	// remaining events must not panic.
}

func TestQueuePushPopFIFO(t *testing.T) {
	s := New()
	q := s.NewQueue()
	var got []int
	s.Go("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Pop(p).(int))
		}
	})
	s.At(us(1), func() { q.Push(10) })
	s.At(us(2), func() { q.Push(20) })
	s.At(us(3), func() { q.Push(30) })
	s.Run()
	want := []int{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestQueuePopBlocksUntilPush(t *testing.T) {
	s := New()
	q := s.NewQueue()
	var at Time = -1
	s.Go("c", func(p *Proc) {
		q.Pop(p)
		at = p.Now()
	})
	s.At(us(77), func() { q.Push(1) })
	s.Run()
	if at != us(77) {
		t.Fatalf("popped at %v, want %v", at, us(77))
	}
}

func TestQueueTryPop(t *testing.T) {
	s := New()
	q := s.NewQueue()
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue returned ok")
	}
	q.Push(5)
	v, ok := q.TryPop()
	if !ok || v.(int) != 5 {
		t.Fatalf("TryPop = %v, %v", v, ok)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

func TestResourceSerializesAccess(t *testing.T) {
	s := New()
	r := s.NewResource(1)
	var spans [][2]Time
	for i := 0; i < 3; i++ {
		s.Go("user", func(p *Proc) {
			r.Acquire(p)
			start := p.Now()
			p.Sleep(us(10))
			r.Release()
			spans = append(spans, [2]Time{start, p.Now()})
		})
	}
	s.Run()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
	for i := 1; i < len(spans); i++ {
		if spans[i][0] < spans[i-1][1] {
			t.Fatalf("overlapping critical sections: %v", spans)
		}
	}
	if got := spans[2][1]; got != us(30) {
		t.Fatalf("last release at %v, want %v", got, us(30))
	}
}

func TestResourceCapacityTwoAllowsTwoConcurrent(t *testing.T) {
	s := New()
	r := s.NewResource(2)
	var ends []Time
	for i := 0; i < 4; i++ {
		s.Go("user", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(us(10))
			r.Release()
			ends = append(ends, p.Now())
		})
	}
	s.Run()
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	// 4 jobs of 10us on 2 servers: completions at 10,10,20,20.
	want := []Time{us(10), us(10), us(20), us(20)}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestResourceFIFOHandoff(t *testing.T) {
	s := New()
	r := s.NewResource(1)
	var order []int
	// Holder occupies the resource until t=100.
	s.Go("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(us(100))
		r.Release()
	})
	// Waiters arrive at t=10, 20, 30; they must acquire in arrival order.
	for i := 0; i < 3; i++ {
		i := i
		s.At(us(10*(i+1)), func() {
			s.Go("w", func(p *Proc) {
				r.Acquire(p)
				order = append(order, i)
				r.Release()
			})
		})
	}
	s.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("acquire order %v, want FIFO", order)
		}
	}
}

func TestResourceTryAcquireRespectsWaiters(t *testing.T) {
	s := New()
	r := s.NewResource(1)
	s.Go("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(us(10))
		r.Release()
	})
	s.At(us(1), func() {
		s.Go("w", func(p *Proc) { r.Acquire(p); r.Release() })
	})
	s.At(us(2), func() {
		if r.tryAcquire() {
			t.Error("tryAcquire barged past a queued waiter")
		}
	})
	s.Run()
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s := New()
	s.NewResource(1).Release()
}

func TestGoFromProc(t *testing.T) {
	s := New()
	var childAt Time = -1
	s.Go("parent", func(p *Proc) {
		p.Sleep(us(5))
		s.Go("child", func(c *Proc) {
			c.Sleep(us(5))
			childAt = c.Now()
		})
	})
	s.Run()
	if childAt != us(10) {
		t.Fatalf("child finished at %v, want %v", childAt, us(10))
	}
}

func TestRunUntilAdvancesClockOnly(t *testing.T) {
	s := New()
	ran := false
	s.At(us(100), func() { ran = true })
	s.RunUntil(us(50))
	if ran {
		t.Fatal("future event dispatched early")
	}
	if s.Now() != us(50) {
		t.Fatalf("clock %v, want %v", s.Now(), us(50))
	}
	s.Run()
	if !ran {
		t.Fatal("event lost")
	}
}

func TestStopPausesRun(t *testing.T) {
	s := New()
	n := 0
	s.At(us(1), func() { n++; s.Stop() })
	s.At(us(2), func() { n++ })
	s.Run()
	if n != 1 {
		t.Fatalf("dispatched %d before Stop honored, want 1", n)
	}
	s.Run()
	if n != 2 {
		t.Fatalf("resume dispatched %d total, want 2", n)
	}
}

func TestCloseKillsBlockedProcs(t *testing.T) {
	s := New()
	q := s.NewQueue()
	cleaned := false
	s.Go("stuck", func(p *Proc) {
		defer func() { cleaned = true }()
		q.Pop(p) // never satisfied
	})
	s.RunUntil(us(1))
	s.Close()
	// Give the killed goroutine a moment to unwind; the handshake in Close
	// is synchronous so by now the defer has run.
	if !cleaned {
		t.Fatal("blocked process was not unwound by Close")
	}
	if s.Procs() != 0 {
		t.Fatalf("%d procs alive after Close", s.Procs())
	}
}

func TestCloseIsIdempotentAndDisablesScheduling(t *testing.T) {
	s := New()
	s.Close()
	s.Close()
	s.At(us(1), func() { t.Error("handler ran after Close") })
	s.Run()
}

func TestDispatchedCounter(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.At(us(i), func() {})
	}
	s.Run()
	if s.Dispatched != 7 {
		t.Fatalf("Dispatched = %d, want 7", s.Dispatched)
	}
}

func TestEventLimitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on runaway simulation")
		}
	}()
	s := New()
	s.Limit = 100
	var loop func()
	loop = func() { s.After(us(1), loop) }
	loop()
	s.Run()
}

// Property: for any set of delays, handlers run in nondecreasing time
// order and the final clock equals the max delay.
func TestPropertyTimeOrdering(t *testing.T) {
	f := func(delaysRaw []uint16) bool {
		if len(delaysRaw) == 0 {
			return true
		}
		s := New()
		var fired []Time
		var maxAt Time
		for _, d := range delaysRaw {
			at := Time(d) * time.Microsecond
			if at > maxAt {
				maxAt = at
			}
			s.At(at, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(delaysRaw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return s.Now() == maxAt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a FIFO resource with capacity 1 serving jobs of given lengths
// finishes at the sum of all lengths, regardless of arrival pattern
// (work conservation: arrivals all occur at t=0).
func TestPropertyResourceWorkConservation(t *testing.T) {
	f := func(lensRaw []uint8) bool {
		if len(lensRaw) == 0 || len(lensRaw) > 64 {
			return true
		}
		s := New()
		r := s.NewResource(1)
		var total Time
		var last Time
		for _, l := range lensRaw {
			d := Time(l) * time.Microsecond
			total += d
			s.Go("job", func(p *Proc) {
				r.Acquire(p)
				p.Sleep(d)
				r.Release()
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		s.Run()
		return last == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: queue preserves FIFO order for any push schedule.
func TestPropertyQueueFIFO(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		count := int(n%50) + 1
		rng := rand.New(rand.NewSource(seed))
		s := New()
		q := s.NewQueue()
		var got []int
		s.Go("consumer", func(p *Proc) {
			for i := 0; i < count; i++ {
				got = append(got, q.Pop(p).(int))
			}
		})
		for i := 0; i < count; i++ {
			i := i
			s.At(Time(rng.Intn(1000))*time.Microsecond, func() { q.Push(i) })
		}
		s.Run()
		// Pushes happen at random times but with deterministic tie-break;
		// popping must match the push dispatch order, which is sorted by
		// (time, seq). Reconstruct that order.
		if len(got) != count {
			return false
		}
		seen := make(map[int]bool, count)
		for _, v := range got {
			if seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Determinism: two identical simulations produce identical event traces.
func TestDeterminismSameSeedSameTrace(t *testing.T) {
	run := func() []Time {
		s := New()
		r := s.NewResource(2)
		q := s.NewQueue()
		var trace []Time
		for i := 0; i < 10; i++ {
			d := Time(i*3+1) * time.Microsecond
			s.Go("w", func(p *Proc) {
				r.Acquire(p)
				p.Sleep(d)
				r.Release()
				q.Push(p.Now())
				trace = append(trace, p.Now())
			})
		}
		s.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Fire and timeout landing on the same timestamp must wake the waiter
// exactly once, whichever dispatches first.
func TestWaitTimeoutSimultaneousFire(t *testing.T) {
	for _, fireFirst := range []bool{true, false} {
		s := New()
		e := s.NewEvent()
		wakes := 0
		if fireFirst {
			s.At(us(10), e.Fire)
		}
		s.Go("w", func(p *Proc) {
			e.WaitTimeout(p, us(10))
			wakes++
			p.Sleep(us(100)) // would panic on a double resume
		})
		if !fireFirst {
			s.At(us(10), e.Fire)
		}
		s.Run()
		if wakes != 1 {
			t.Fatalf("fireFirst=%v: woke %d times", fireFirst, wakes)
		}
	}
}

// RunUntil dispatches events exactly at the boundary time.
func TestRunUntilInclusiveBoundary(t *testing.T) {
	s := New()
	ran := false
	s.At(us(50), func() { ran = true })
	s.RunUntil(us(50))
	if !ran {
		t.Fatal("boundary event not dispatched")
	}
}

// A proc killed by Close while holding a resource does not corrupt the
// simulator state for subsequent inspection.
func TestCloseWhileHoldingResource(t *testing.T) {
	s := New()
	r := s.NewResource(1)
	q := s.NewQueue()
	s.Go("holder", func(p *Proc) {
		r.Acquire(p)
		q.Pop(p) // blocks forever
	})
	s.RunUntil(us(1))
	if r.inUse != 1 {
		t.Fatalf("holder should hold the slot: inUse=%d", r.inUse)
	}
	s.Close()
	if s.Procs() != 0 {
		t.Fatalf("%d procs alive after Close", s.Procs())
	}
}
