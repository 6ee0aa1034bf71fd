package rt

import (
	"sync/atomic"
	"testing"
	"time"
)

// runScenario executes fn under the environment and blocks until all
// simulated/live work completes.
func runSim(fn func(env Env)) {
	e := NewSim()
	fn(e)
	e.Run()
}

func runLive(fn func(env Env)) {
	e := NewLive()
	fn(e)
	e.WaitIdle()
}

// both runs the scenario under both environments. The scenario must use
// only rt primitives for synchronisation.
func both(t *testing.T, fn func(t *testing.T, env Env, settle func())) {
	t.Run("sim", func(t *testing.T) {
		e := NewSim()
		fn(t, e, e.Run)
	})
	t.Run("live", func(t *testing.T) {
		e := NewLive()
		fn(t, e, e.WaitIdle)
	})
}

func TestQueueTransfersItems(t *testing.T) {
	both(t, func(t *testing.T, env Env, settle func()) {
		q := env.NewQueue()
		done := env.NewEvent()
		var sum atomic.Int64
		env.Go("consumer", func(ctx Ctx) {
			for i := 0; i < 3; i++ {
				sum.Add(int64(q.Pop(ctx).(int)))
			}
			done.Fire()
		})
		env.Go("producer", func(ctx Ctx) {
			for i := 1; i <= 3; i++ {
				q.Push(i * 10)
				ctx.Sleep(time.Millisecond)
			}
		})
		env.Go("checker", func(ctx Ctx) {
			done.Wait(ctx)
		})
		settle()
		if sum.Load() != 60 {
			t.Fatalf("sum = %d, want 60", sum.Load())
		}
	})
}

// sim runs the scenario on the simulator only: counted resources are
// virtual-time objects (the modeled NIC engines).
func sim(t *testing.T, fn func(t *testing.T, env *SimEnv, settle func())) {
	t.Run("sim", func(t *testing.T) {
		e := NewSim()
		fn(t, e, e.Run)
	})
}

func TestResourceMutualExclusion(t *testing.T) {
	sim(t, func(t *testing.T, env *SimEnv, settle func()) {
		r := env.NewResource(1)
		var inside atomic.Int32
		var maxInside atomic.Int32
		for i := 0; i < 4; i++ {
			env.Go("worker", func(ctx Ctx) {
				r.Acquire(ctx)
				v := inside.Add(1)
				for {
					m := maxInside.Load()
					if v <= m || maxInside.CompareAndSwap(m, v) {
						break
					}
				}
				ctx.Sleep(time.Millisecond)
				inside.Add(-1)
				r.Release()
			})
		}
		settle()
		if maxInside.Load() != 1 {
			t.Fatalf("max concurrent holders = %d, want 1", maxInside.Load())
		}
	})
}

func TestAfterRunsLater(t *testing.T) {
	both(t, func(t *testing.T, env Env, settle func()) {
		ev := env.NewEvent()
		env.After(time.Millisecond, ev.Fire)
		env.Go("w", func(ctx Ctx) { ev.Wait(ctx) })
		settle()
		if !ev.Fired() {
			t.Fatal("After handler never ran")
		}
	})
}

func TestAfterFuncAbsoluteTime(t *testing.T) {
	both(t, func(t *testing.T, env Env, settle func()) {
		ev := env.NewEvent()
		AfterFunc(env, env.Now()+2*time.Millisecond, ev.Fire)
		// Past times clamp to "run promptly".
		ev2 := env.NewEvent()
		AfterFunc(env, env.Now()-time.Hour, ev2.Fire)
		env.Go("w", func(ctx Ctx) { ev.Wait(ctx); ev2.Wait(ctx) })
		settle()
	})
}

func TestWaitAll(t *testing.T) {
	both(t, func(t *testing.T, env Env, settle func()) {
		evs := []Event{env.NewEvent(), env.NewEvent(), env.NewEvent()}
		var done atomic.Bool
		env.Go("waiter", func(ctx Ctx) {
			WaitAll(ctx, evs...)
			done.Store(true)
		})
		for i, e := range evs {
			e := e
			env.After(time.Duration(i+1)*time.Millisecond, e.Fire)
		}
		settle()
		if !done.Load() {
			t.Fatal("WaitAll never completed")
		}
	})
}

func TestSimTimeIsVirtual(t *testing.T) {
	e := NewSim()
	var at time.Duration
	e.Go("sleeper", func(ctx Ctx) {
		ctx.Sleep(10 * time.Hour) // virtual: runs instantly
		at = ctx.Now()
	})
	start := time.Now()
	e.Run()
	if at != 10*time.Hour {
		t.Fatalf("virtual clock read %v, want 10h", at)
	}
	if real := time.Since(start); real > time.Second {
		t.Fatalf("simulated 10h took %v of wall time", real)
	}
}

func TestLiveNowAdvances(t *testing.T) {
	e := NewLive()
	t0 := e.Now()
	time.Sleep(2 * time.Millisecond)
	if e.Now() <= t0 {
		t.Fatal("live clock did not advance")
	}
}

func TestMismatchedCtxPanics(t *testing.T) {
	sim := NewSim()
	live := NewLive()
	ev := sim.NewEvent()
	panicked := make(chan bool, 1)
	live.Go("bad", func(ctx Ctx) {
		defer func() { panicked <- recover() != nil }()
		ev.Wait(ctx) // live Ctx on a sim event must panic
	})
	if !<-panicked {
		t.Fatal("cross-environment blocking call did not panic")
	}
	_ = runSim
	_ = runLive
}

func TestSimReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewSim().NewResource(1).Release()
}

// Regression: an immediate After handler (d <= 0) must be tracked by the
// WaitGroup — WaitIdle used to return while such handlers were still
// running, so work they did (like pushing a delivery) could be missed.
func TestLiveWaitIdleCoversImmediateAfter(t *testing.T) {
	for i := 0; i < 50; i++ {
		e := NewLive()
		var ran atomic.Bool
		e.After(0, func() {
			time.Sleep(100 * time.Microsecond)
			ran.Store(true)
		})
		e.WaitIdle()
		if !ran.Load() {
			t.Fatal("WaitIdle returned before an immediate After handler finished")
		}
	}
}

// Immediate After handlers may chain: each link stays tracked.
func TestLiveWaitIdleCoversChainedAfter(t *testing.T) {
	e := NewLive()
	var n atomic.Int32
	e.After(0, func() {
		n.Add(1)
		e.After(-time.Second, func() {
			time.Sleep(50 * time.Microsecond)
			n.Add(1)
		})
	})
	e.WaitIdle()
	if n.Load() != 2 {
		t.Fatalf("chained handlers ran %d times before WaitIdle returned, want 2", n.Load())
	}
}

// Positive-delay After handlers are tracked too: WaitIdle waits for a
// pending timer's handler, not just immediate ones.
func TestLiveWaitIdleCoversTimerAfter(t *testing.T) {
	e := NewLive()
	var ran atomic.Bool
	e.After(2*time.Millisecond, func() { ran.Store(true) })
	e.WaitIdle()
	if !ran.Load() {
		t.Fatal("WaitIdle returned before a timer-scheduled After handler ran")
	}
}
