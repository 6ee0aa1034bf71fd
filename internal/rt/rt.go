// Package rt abstracts the execution environment of the communication
// engine so that the same engine code runs on two substrates:
//
//   - SimEnv: virtual time on the internal/des discrete-event simulator.
//     Deterministic; the clock of the modeled fabric (internal/simnet),
//     used to regenerate the paper's figures. Its counted resources model
//     the NIC engines.
//   - LiveEnv: wall-clock time with free-running goroutines; the clock of
//     the byte-moving fabrics (livenet, shmnet), examples and integration
//     tests.
//
// Each fabric runs on one of them, never both: the engine above does not
// know which.
//
// The model mirrors how NewMadeleine/PIOMan is structured: most engine
// logic is reactive (non-blocking handlers triggered when a NIC becomes
// idle, when a rendezvous arrives, ...) and only actors — workloads, NIC
// engines, core workers — block. Blocking calls take a Ctx, which only
// actors own; handlers have no Ctx and therefore cannot block, which the
// type system enforces.
package rt

import "time"

// Ctx is the capability to block. Each actor (spawned with Env.Go) gets
// its own Ctx; handlers run without one.
type Ctx interface {
	// Now returns the current time (virtual or wall-clock) as an offset
	// from the environment's epoch.
	Now() time.Duration
	// Sleep suspends the actor for d.
	Sleep(d time.Duration)
}

// Env is an execution environment.
type Env interface {
	// Now returns the current time as an offset from the epoch.
	Now() time.Duration
	// Go spawns an actor. In a simulation the actor starts at the current
	// virtual time; live it starts immediately.
	Go(name string, fn func(Ctx))
	// After schedules a non-blocking handler to run d from now.
	After(d time.Duration, fn func())
	// NewEvent returns a one-shot completion event.
	NewEvent() Event
	// EventAt returns a one-shot completion event that lives in slot when
	// the environment's events can use caller-provided memory (live: the
	// zero LiveEvent is ready, nothing is allocated) and a fresh one
	// otherwise (sim). A request embeds the slot and so owns its
	// completions: one heap object per request instead of one per event.
	EventAt(slot *LiveEvent) Event
	// NewQueue returns an unbounded FIFO with blocking Pop.
	NewQueue() Queue
}

// Event is a one-shot completion.
type Event interface {
	// Fire marks the event complete, waking waiters and running
	// callbacks. Firing twice is a no-op.
	Fire()
	// Fired reports whether Fire was called.
	Fired() bool
	// Wait blocks the actor until the event fires.
	Wait(Ctx)
	// WaitTimeout blocks until the event fires or d elapses; reports
	// whether the event fired.
	WaitTimeout(Ctx, time.Duration) bool
	// OnFire registers a non-blocking callback to run once after Fire.
	// If already fired, the callback runs promptly. Callbacks must not
	// block: in a simulation they run in the event loop; live they run on
	// the firing goroutine.
	OnFire(func())
}

// Queue is an unbounded FIFO.
type Queue interface {
	// Push appends an item; never blocks, callable from handlers.
	Push(any)
	// Pop removes the head item, blocking while empty.
	Pop(Ctx) any
	// TryPop removes the head item without blocking.
	TryPop() (any, bool)
	// Len returns the current number of items.
	Len() int
}

// Resource is a counted resource (a pool of identical servers: NIC
// engines, cores, ...). Only the simulator has them (SimEnv.NewResource):
// on the wall clock a NIC or a core serialises its work by itself.
type Resource interface {
	// Acquire blocks the actor until a slot is free.
	Acquire(Ctx)
	// TryAcquire takes a slot if immediately available.
	TryAcquire() bool
	// Release frees a slot taken by Acquire or TryAcquire.
	Release()
	// Idle reports whether a slot is immediately available.
	Idle() bool
	// Cap returns the capacity.
	Cap() int
	// InUse returns the number of held slots.
	InUse() int
}

// WaitAll blocks the actor until every event has fired.
func WaitAll(ctx Ctx, events ...Event) {
	for _, e := range events {
		e.Wait(ctx)
	}
}

// AfterFunc is a convenience wrapper used by strategies that delay a
// transfer until a predicted NIC-idle time (Fig 2): it runs fn at
// absolute environment time t (or now, if t is in the past).
func AfterFunc(env Env, t time.Duration, fn func()) {
	d := t - env.Now()
	if d < 0 {
		d = 0
	}
	env.After(d, fn)
}
