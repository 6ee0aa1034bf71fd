package rt

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// holder embeds its completion the way the engine's requests do: the
// event's storage is a zero LiveEvent inside the object it completes.
type holder struct {
	pad  [3]uint64
	slot LiveEvent
}

// TestEventContract runs the Event contract against every way an event
// comes to be: the simulator's, the live environment's NewEvent, and
// EventAt over a zero-value slot embedded in another object (on both
// environments — the simulator ignores the slot).
func TestEventContract(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, env Env, ev Event, settle func())
	}{
		{"fire then wait", func(t *testing.T, env Env, ev Event, settle func()) {
			var woke atomic.Bool
			ev.Fire()
			env.Go("waiter", func(ctx Ctx) {
				ev.Wait(ctx)
				woke.Store(true)
			})
			settle()
			if !woke.Load() || !ev.Fired() {
				t.Fatalf("woke=%v fired=%v", woke.Load(), ev.Fired())
			}
		}},
		{"wait then fire from another actor", func(t *testing.T, env Env, ev Event, settle func()) {
			var woke atomic.Int32
			for i := 0; i < 3; i++ {
				env.Go("waiter", func(ctx Ctx) {
					ev.Wait(ctx)
					woke.Add(1)
				})
			}
			env.Go("firer", func(ctx Ctx) {
				ctx.Sleep(time.Millisecond)
				if ev.Fired() {
					t.Error("fired before Fire")
				}
				ev.Fire()
			})
			settle()
			if woke.Load() != 3 {
				t.Fatalf("%d of 3 waiters woke", woke.Load())
			}
		}},
		{"OnFire before and after, double Fire", func(t *testing.T, env Env, ev Event, settle func()) {
			var before, before2, after atomic.Int32
			ev.OnFire(func() { before.Add(1) })
			ev.OnFire(func() { before2.Add(1) })
			env.Go("firer", func(Ctx) {
				ev.Fire()
				ev.Fire()
				// Live the late callback runs synchronously; in the
				// simulator it is dispatched by settle.
				ev.OnFire(func() { after.Add(1) })
			})
			settle()
			if before.Load() != 1 || before2.Load() != 1 || after.Load() != 1 {
				t.Fatalf("callbacks ran %d/%d/%d times, want 1/1/1", before.Load(), before2.Load(), after.Load())
			}
		}},
		{"WaitTimeout expires, then sees the fire", func(t *testing.T, env Env, ev Event, settle func()) {
			// The fire waits for the first wait to give up, so a slow start
			// of w1 on a loaded machine cannot see the event already fired.
			var expired, fired atomic.Bool
			gaveUp := env.NewEvent()
			env.Go("w1", func(ctx Ctx) {
				expired.Store(!ev.WaitTimeout(ctx, time.Millisecond))
				gaveUp.Fire()
			})
			env.Go("w2", func(ctx Ctx) {
				gaveUp.Wait(ctx)
				ev.Fire()
				fired.Store(ev.WaitTimeout(ctx, time.Millisecond) && ev.WaitTimeout(ctx, 0))
			})
			settle()
			if !expired.Load() {
				t.Fatal("timeout did not expire")
			}
			if !fired.Load() {
				t.Fatal("WaitTimeout after Fire should return true")
			}
		}},
		{"WaitTimeout racing Fire", func(t *testing.T, env Env, ev Event, settle func()) {
			// Whatever the interleaving, a false return means the event had
			// not fired when the wait gave up, and the event ends up fired.
			var got atomic.Bool
			env.Go("waiter", func(ctx Ctx) { got.Store(ev.WaitTimeout(ctx, time.Millisecond)) })
			env.Go("firer", func(ctx Ctx) {
				ctx.Sleep(time.Millisecond)
				ev.Fire()
			})
			settle()
			if !ev.Fired() {
				t.Fatal("event not fired")
			}
			_ = got.Load() // either outcome is legal; the race detector watches the rest
		}},
	}
	sources := []struct {
		name string
		env  func() (Env, func())
		ev   func(Env) Event
	}{
		{"sim", func() (Env, func()) { e := NewSim(); return e, e.Run }, Env.NewEvent},
		{"live", func() (Env, func()) { e := NewLive(); return e, e.WaitIdle }, Env.NewEvent},
		{"sim embedded", func() (Env, func()) { e := NewSim(); return e, e.Run },
			func(env Env) Event { return env.EventAt(&new(holder).slot) }},
		{"live embedded", func() (Env, func()) { e := NewLive(); return e, e.WaitIdle },
			func(env Env) Event { return env.EventAt(&new(holder).slot) }},
	}
	for _, src := range sources {
		for _, c := range cases {
			t.Run(src.name+"/"+c.name, func(t *testing.T) {
				env, settle := src.env()
				c.run(t, env, src.ev(env), settle)
			})
		}
	}
}

// A live event embedded in its owner costs nothing beyond the owner to
// create, register one callback on, fire and wait on; only WaitTimeout
// may allocate.
func TestLiveEventAllocs(t *testing.T) {
	env := NewLive()
	cb := func() {}
	if n := testing.AllocsPerRun(100, func() {
		h := new(holder) // the one allocation: the owner
		ev := env.EventAt(&h.slot)
		ev.OnFire(cb)
		ev.Fire()
		ev.Wait(nil)
		if !ev.Fired() {
			t.Fatal("not fired")
		}
	}); n != 1 {
		t.Fatalf("owner with embedded event: %v allocs per create/fire/wait, want 1", n)
	}
}

// chanEvent is the event the live environment used before LiveEvent: a
// heap object with a channel closed on Fire. Kept as the devel bench's
// reference variant.
type chanEvent struct {
	mu    sync.Mutex
	fired bool
	done  chan struct{}
}

func (e *chanEvent) Fire() {
	e.mu.Lock()
	if !e.fired {
		e.fired = true
		close(e.done)
	}
	e.mu.Unlock()
}

func (e *chanEvent) Wait() { <-e.done }

// BenchmarkDevelEvent shows the choice of completion event side by
// side: a fresh request-like object completed through a channel event
// it points at, or through a LiveEvent it embeds. Each op creates the
// object, parks a waiter on it (Wait precedes Fire, as in a ping-pong)
// and fires it.
func BenchmarkDevelEvent(b *testing.B) {
	type chanReq struct {
		pad  [3]uint64
		done *chanEvent
	}
	b.Run("chan-event", func(b *testing.B) {
		b.ReportAllocs()
		reqs := make(chan *chanReq)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range reqs {
				r.done.Fire()
			}
		}()
		for i := 0; i < b.N; i++ {
			r := &chanReq{done: &chanEvent{done: make(chan struct{})}}
			reqs <- r
			r.done.Wait()
		}
		close(reqs)
		wg.Wait()
	})
	b.Run("embedded-event", func(b *testing.B) {
		b.ReportAllocs()
		env := NewLive()
		type req struct {
			h    holder
			done Event
		}
		reqs := make(chan *req)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range reqs {
				r.done.Fire()
			}
		}()
		for i := 0; i < b.N; i++ {
			r := &req{}
			r.done = env.EventAt(&r.h.slot)
			reqs <- r
			r.done.Wait(nil)
		}
		close(reqs)
		wg.Wait()
	})
}

// The live queue is a ring: order survives wrap-around and growth, a
// popped slot no longer holds its item, and steady-state push/pop of a
// pointer allocates nothing.
func TestLiveQueueRing(t *testing.T) {
	q := NewLive().NewQueue().(*liveQueue)
	next, want := 0, 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			q.Push(next)
			next++
		}
	}
	pop := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			v, ok := q.TryPop()
			if !ok || v.(int) != want {
				t.Fatalf("pop = %v, %v; want %d", v, ok, want)
			}
			want++
		}
	}
	push(10)
	pop(7)
	push(12) // wraps the 16-slot ring
	pop(5)
	push(30) // grows it with head in the middle
	pop(q.Len())
	if _, ok := q.TryPop(); ok || q.Len() != 0 {
		t.Fatal("queue not empty")
	}
	for i, v := range q.buf {
		if v != nil {
			t.Fatalf("slot %d still holds %v after its pop", i, v)
		}
	}
	item := new(int)
	if n := testing.AllocsPerRun(100, func() {
		q.Push(item)
		q.Pop(nil)
	}); n != 0 {
		t.Fatalf("steady-state push/pop allocates %v", n)
	}
}
