// Package progress is the multicore progression subsystem: the
// machinery that lets one node's communication engine run on all of its
// cores at once instead of funnelling every send, match and completion
// through a single lock.
//
// The paper's engine is "multicore-enabled" in three ways, and this
// package provides the concurrent primitive for each:
//
//   - Pool: a per-core worker pool. Each worker is an actor with its own
//     FIFO queue; work submitted under the same key always lands on the
//     same worker, so per-flow ordering is free while distinct flows
//     progress in parallel. Every fabric — the live transports' readers and
//     the simulator alike — feeds deliveries straight into the pool; no
//     progression actor does engine work inline.
//   - Submitter: the paper's "submit list" made concurrent. Each
//     destination owns a small queue; Isend appends and returns — the
//     optimizer (flush callback) runs on a worker, aggregating whatever
//     accumulated, and never on the caller's goroutine. The flush
//     callback runs with no queue lock held, so a rail write that blocks
//     stalls only its own destination's worker.
//   - Dedup: a striped bounded window of recently seen transfer-unit
//     ids (the receiver-side replay filter of the failover protocol),
//     lock-striped so concurrent flows never contend on one mutex.
//
// Handlers and actors. rt draws the line the pool works by: an actor owns
// a Ctx and may block, a handler gets none and cannot. Work is an actor
// step — it runs on the key's worker, with the worker's Ctx, and may wait
// on a rail. A Handler is a step that cannot block (match and copy an
// eager packet, retire an acked unit), so the hand-off to a worker buys it
// nothing unless the worker is busy: Pool.Handle runs it at once, on the
// submitter's goroutine, when the key's worker is idle with an empty
// queue, and queues it otherwise. Same-key order and "one item of a worker
// at a time" hold either way, because the submitter takes the worker's
// turn to do it (rt's live queues keep one).
//
// Key functions (FlowKey, UnitKey, ChunkKey) hash protocol identities to
// pool/shard keys. The engine (internal/core) shards its matching,
// pending and unacked tables with the same keys, so the worker that
// processes a delivery is usually the only one touching that flow's
// shard.
package progress

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rt"
)

// Task is one unit of engine work executed by a pool worker. Run
// receives the worker's Ctx and may block on rt primitives or fabric
// I/O.
type Task struct {
	// Name labels the task for diagnostics.
	Name string
	// Run does the work.
	Run func(ctx rt.Ctx)
}

// Do runs the task: a Task is itself Work, so closure tasks and pointer
// work items share one queue and one worker loop.
func (t Task) Do(ctx rt.Ctx) { t.Run(ctx) }

// Work is what a worker's queue carries. The per-message paths submit a
// pointer to a long-lived or recycled item (SubmitWork): a pointer in
// an interface allocates nothing, where a Task costs its closure and the
// boxing of the struct. The item owns itself again the moment Do is
// entered — it may hand itself back to a free list before Do returns —
// so a worker never touches an item after calling Do.
type Work interface {
	Do(ctx rt.Ctx)
}

// Handler is Work that cannot block: Handle does what Do does without a
// Ctx, so it may run on a goroutine that must not wait (a transport
// reader). See Pool.Handle.
type Handler interface {
	Work
	Handle()
}

// WorkerStats counts one worker's activity.
type WorkerStats struct {
	// Tasks is the number of tasks executed, on the worker or in its place.
	Tasks uint64
	// Inline is how many of Tasks ran on their submitter's goroutine
	// (Pool.Handle found the worker idle); Tasks - Inline were queued.
	Inline uint64
	// BusyTime is the total time spent inside tasks, wherever they ran.
	BusyTime time.Duration
	// Queued is the instantaneous queue length (snapshot time).
	Queued int
}

// Pool is a fixed set of worker actors, one intended per core. Tasks
// submitted under equal keys execute in submission order on one worker;
// tasks under different keys run concurrently when the keys map to
// different workers.
type Pool struct {
	env     rt.Env
	workers []*worker
	stopped atomic.Bool
}

type worker struct {
	q rt.Queue
	// turns is q's turn-taking side, which is what lets a submitter run an
	// item in the worker's place; nil when q has none (the simulator's
	// queues: there Handle only queues).
	turns turnQueue

	mu    sync.Mutex
	stats WorkerStats
}

// turnQueue is the part of rt's live queues Handle needs (see liveQueue).
type turnQueue interface {
	PopTurn(rt.Ctx) (item any, waited bool)
	TryTurn() bool
	EndTurn()
}

// NewPool starts n workers (min 1) named "<name>-w<i>".
func NewPool(env rt.Env, name string, n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{env: env}
	for i := 0; i < n; i++ {
		w := &worker{q: env.NewQueue()}
		w.turns, _ = w.q.(turnQueue)
		p.workers = append(p.workers, w)
		env.Go(fmt.Sprintf("%s-w%d", name, i), w.loop)
	}
	return p
}

func (w *worker) loop(ctx rt.Ctx) {
	// The end of one item is the start of the next when that one was
	// already waiting: one clock read per item on a busy worker.
	now := ctx.Now()
	for {
		var item any
		waited := true
		if w.turns != nil {
			item, waited = w.turns.PopTurn(ctx)
		} else {
			item = w.q.Pop(ctx)
		}
		if item == nil {
			return // Stop sentinel; the turn stays taken, so nothing runs inline after Stop either
		}
		if waited {
			now = ctx.Now()
		}
		start := now
		item.(Work).Do(ctx)
		now = ctx.Now()
		w.ran(now-start, false)
		if w.turns != nil {
			w.turns.EndTurn()
		}
	}
}

// ran counts one finished item.
func (w *worker) ran(busy time.Duration, inline bool) {
	w.mu.Lock()
	w.stats.Tasks++
	if inline {
		w.stats.Inline++
	}
	w.stats.BusyTime += busy
	w.mu.Unlock()
}

// Size returns the worker count.
func (p *Pool) Size() int { return len(p.workers) }

// Worker returns the worker index a key maps to.
func (p *Pool) Worker(key uint32) int { return int(key % uint32(len(p.workers))) }

// Idle counts the workers with nothing queued: the cores an offloaded step
// would find free (the running item of a worker is not counted against it).
func (p *Pool) Idle() int {
	n := 0
	for _, w := range p.workers {
		if w.q.Len() == 0 {
			n++
		}
	}
	return n
}

// Submit queues t on the worker the key maps to. Never blocks.
//
//railvet:hotpath
func (p *Pool) Submit(key uint32, t Task) { p.SubmitWork(key, t) }

// SubmitWork queues w on the worker the key maps to, in the same FIFO as
// Submit. Never blocks, and allocates nothing when w is a pointer.
//
//railvet:hotpath
func (p *Pool) SubmitWork(key uint32, w Work) {
	p.workers[key%uint32(len(p.workers))].q.Push(w)
}

// Handle runs h now, on the caller's goroutine, if the worker the key maps
// to is idle and its queue is empty — the caller takes the worker's turn,
// so h is still the only item of that worker in flight and nothing queued
// later can overtake it; otherwise it queues h like SubmitWork (its Do
// runs). No lock is held while h runs; items submitted from inside it
// queue behind it. Never blocks.
//
//railvet:hotpath
func (p *Pool) Handle(key uint32, h Handler) {
	w := p.workers[key%uint32(len(p.workers))]
	if w.turns == nil || !w.turns.TryTurn() {
		w.q.Push(h)
		return
	}
	start := p.env.Now()
	h.Handle()
	w.ran(p.env.Now()-start, true)
	w.turns.EndTurn()
}

// Stop makes every worker exit after draining the tasks queued before
// the stop. Idempotent. Tasks submitted after Stop are never executed.
func (p *Pool) Stop() {
	if !p.stopped.CompareAndSwap(false, true) {
		return
	}
	for _, w := range p.workers {
		w.q.Push(nil)
	}
}

// Stats snapshots every worker's counters.
func (p *Pool) Stats() []WorkerStats {
	out := make([]WorkerStats, len(p.workers))
	for i, w := range p.workers {
		w.mu.Lock()
		out[i] = w.stats
		w.mu.Unlock()
		out[i].Queued = w.q.Len()
	}
	return out
}

// --- shard/worker keys ---

const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// fnv64 folds an uint64 into a running FNV-1a hash.
func fnv64(h uint32, v uint64) uint32 {
	for i := 0; i < 8; i++ {
		h ^= uint32(v & 0xFF)
		h *= fnvPrime32
		v >>= 8
	}
	return h
}

// FlowKey hashes a (peer, tag) flow identity: the key for matching
// tables and for deliveries whose per-flow order must be preserved
// (eager packets, RTS).
func FlowKey(peer int, tag uint32) uint32 {
	return fnv64(fnv64(fnvOffset32, uint64(peer)), uint64(tag))
}

// UnitKey hashes a (peer, transfer-unit id) pair: the routing key for
// acks, CTS and the unacked tables. Container acks carry no single tag —
// one container may aggregate packets of many flows — so unit state is
// keyed by id rather than tag.
func UnitKey(peer int, id uint64) uint32 {
	return fnv64(fnv64(fnvOffset32, uint64(peer)), id)
}

// ChunkKey spreads the chunks of one striped message across workers by
// folding the chunk offset into the flow key: reassembly tolerates any
// arrival order, so distinct chunks of one large message may be copied
// into place by different cores in parallel.
func ChunkKey(peer int, tag uint32, offset uint64) uint32 {
	return fnv64(FlowKey(peer, tag), offset)
}

// DestKey maps a destination node id to a pool key. It is intentionally
// the identity, so dest d always flushes on worker d%N — deterministic
// and documented, which the flush tests rely on.
func DestKey(to int) uint32 { return uint32(to) }

// Shards normalises a configured shard count: the smallest power of two
// >= max(n, min), so key&mask indexing works.
func Shards(n, min int) int {
	if n < min {
		n = min
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
