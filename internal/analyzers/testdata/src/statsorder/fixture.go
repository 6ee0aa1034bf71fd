// Fixture for the statsorder pass: stats counters a remote ack can
// observe must be bumped before the transport enqueue.
package fixture

import "sync/atomic"

type engineStats struct {
	eagerSent atomic.Uint64
	bytes     uint64
}

// Rail mimics a fabric rail; stats hangs off it the way the engine's
// counters hang off the engine.
type Rail struct{ stats engineStats }

func (r *Rail) SendEager(to int, b []byte) error { return nil }

func bumpAfterSend(r *Rail, b []byte) {
	r.SendEager(0, b)
	r.stats.eagerSent.Add(1) // want "stats counter bumped after the transport enqueue"
}

func bumpAfterSendFn(r *Rail, b []byte) {
	r.SendEager(0, b)
	atomic.AddUint64(&r.stats.bytes, uint64(len(b))) // want "stats counter bumped after the transport enqueue"
}

func bumpBeforeSend(r *Rail, b []byte) {
	r.stats.eagerSent.Add(1)
	r.SendEager(0, b)
}

// closureOrdersItself: a literal is an independent body — whoever runs
// it sequences its own effects.
func closureOrdersItself(r *Rail, b []byte) func() {
	r.SendEager(0, b)
	return func() { r.stats.eagerSent.Add(1) }
}

// Task and Pool mimic a progress pool: the task's closure sends on
// another core once Submit has handed it over.
type Task struct{ Run func() }

type Pool struct{}

func (p *Pool) Submit(key uint32, t Task) {}

// bumpAfterHandOff: the hand-off of a task that sends is the enqueue (the
// parallel eager path).
func bumpAfterHandOff(p *Pool, r *Rail, b []byte) {
	p.Submit(1, Task{Run: func() { r.SendEager(0, b) }})
	r.stats.eagerSent.Add(1) // want "stats counter bumped after the transport enqueue"
}

// bumpAfterQuietHandOff: a task that sends nothing is no enqueue.
func bumpAfterQuietHandOff(p *Pool, r *Rail) {
	p.Submit(1, Task{Run: func() {}})
	r.stats.eagerSent.Add(1)
}

func suppressed(r *Rail, b []byte) {
	r.SendEager(0, b)
	r.stats.eagerSent.Add(1) //railvet:ignore statsorder fixture: counter is process-local debug only, never compared against acks
}
