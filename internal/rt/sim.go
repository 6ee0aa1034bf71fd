package rt

import (
	"time"

	"repro/internal/des"
)

// SimEnv runs actors on a discrete-event simulator. Create one with
// NewSim, spawn actors, then call Run.
type SimEnv struct {
	sim *des.Simulator
}

// NewSim returns an environment backed by a fresh simulator.
func NewSim() *SimEnv { return &SimEnv{sim: des.New()} }

// Run dispatches events until the simulation drains.
func (e *SimEnv) Run() { e.sim.Run() }

// RunUntil dispatches events with timestamps <= t.
func (e *SimEnv) RunUntil(t time.Duration) { e.sim.RunUntil(t) }

// Close kills all live actors and stops the simulation.
func (e *SimEnv) Close() { e.sim.Close() }

func (e *SimEnv) Now() time.Duration { return e.sim.Now() }

func (e *SimEnv) Go(name string, fn func(Ctx)) {
	e.sim.Go(name, func(p *des.Proc) { fn(simCtx{p}) })
}

func (e *SimEnv) After(d time.Duration, fn func()) { e.sim.After(d, fn) }

func (e *SimEnv) NewEvent() Event { return &simEvent{ev: e.sim.NewEvent()} }

// EventAt ignores the slot: simulated events belong to the simulator.
func (e *SimEnv) EventAt(*LiveEvent) Event { return e.NewEvent() }
func (e *SimEnv) NewQueue() Queue          { return &simQueue{q: e.sim.NewQueue()} }

// NewResource returns a counted resource with the given capacity on the
// virtual clock.
func (e *SimEnv) NewResource(c int) *Resource {
	return &Resource{r: e.sim.NewResource(c)}
}

// simCtx adapts a des.Proc to Ctx.
type simCtx struct{ p *des.Proc }

func (c simCtx) Now() time.Duration    { return c.p.Now() }
func (c simCtx) Sleep(d time.Duration) { c.p.Sleep(d) }

func proc(ctx Ctx) *des.Proc {
	c, ok := ctx.(simCtx)
	if !ok {
		panic("rt: blocking call with a Ctx from a different environment")
	}
	return c.p
}

type simEvent struct{ ev *des.Event }

func (e *simEvent) Fire()       { e.ev.Fire() }
func (e *simEvent) Fired() bool { return e.ev.Fired() }
func (e *simEvent) Wait(ctx Ctx) {
	e.ev.Wait(proc(ctx))
}
func (e *simEvent) WaitTimeout(ctx Ctx, d time.Duration) bool {
	return e.ev.WaitTimeout(proc(ctx), d)
}
func (e *simEvent) OnFire(fn func()) { e.ev.OnFire(fn) }

type simQueue struct{ q *des.Queue }

func (q *simQueue) Push(v any)          { q.q.Push(v) }
func (q *simQueue) Pop(ctx Ctx) any     { return q.q.Pop(proc(ctx)) }
func (q *simQueue) TryPop() (any, bool) { return q.q.TryPop() }
func (q *simQueue) Len() int            { return q.q.Len() }

// Resource is a counted resource (a pool of identical servers: the
// modeled NIC engines) on the virtual clock, granted first come, first
// served. Only the simulator has them: on the wall clock a NIC or a core
// serialises its work by itself.
type Resource struct{ r *des.Resource }

// Acquire blocks the actor until a slot is free.
func (r *Resource) Acquire(ctx Ctx) { r.r.Acquire(proc(ctx)) }

// Release frees a slot taken by Acquire.
func (r *Resource) Release() { r.r.Release() }
