package progress

import (
	"sync"

	"repro/internal/rt"
)

// Submitter is the paper's submit list made concurrent: per-destination
// queues whose flushes run on pool workers — "the application layer
// enqueues packets into a submit list and returns immediately; the
// optimizer is activated at critical moments". Put never blocks; the
// flush callback receives everything that accumulated for one
// destination since the last flush (the aggregation window) and runs
// with NO queue lock held, so fabric I/O that blocks inside a flush
// stalls only that destination's worker, never other destinations and
// never the callers.
//
// Flushes for one destination are serialised (same DestKey, same
// worker, FIFO), preserving per-destination submission order. The batch
// slice belongs to the submitter again when the callback returns.
//
// Each destination also owns a state S, created with its queue and handed
// to every one of its flushes: since those never overlap, the flush may
// keep in it whatever it reuses from one batch to the next (the engine's
// per-destination scratch) without a lock or a second registry.
type Submitter[T, S any] struct {
	pool  *Pool
	flush func(ctx rt.Ctx, to int, batch []T, state *S)

	mu    sync.RWMutex
	dests map[int]*destQueue[T, S]
}

// destQueue is one destination's queue and, at the same time, its flush
// work item: scheduled guarantees at most one flush of a destination is
// queued, so the queue itself is what Put hands to the pool.
type destQueue[T, S any] struct {
	s  *Submitter[T, S]
	to int

	mu        sync.Mutex
	items     []T
	scheduled bool // a flush is queued and will observe items

	// spare is the batch the previous flush handed back, reused as the
	// next items array, and state the destination's flush state. Only this
	// destination's flush touches them, and flushes of one destination are
	// serialised.
	spare []T
	state S
}

// NewSubmitter builds a submitter flushing through the pool.
func NewSubmitter[T, S any](pool *Pool, flush func(ctx rt.Ctx, to int, batch []T, state *S)) *Submitter[T, S] {
	return &Submitter[T, S]{pool: pool, flush: flush, dests: make(map[int]*destQueue[T, S])}
}

func (s *Submitter[T, S]) dest(to int) *destQueue[T, S] {
	s.mu.RLock()
	d := s.dests[to]
	s.mu.RUnlock()
	if d != nil {
		return d
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if d = s.dests[to]; d == nil {
		d = &destQueue[T, S]{s: s, to: to}
		s.dests[to] = d
	}
	return d
}

// Put appends item to the destination's queue and schedules a flush if
// none is pending. Never blocks.
//
//railvet:hotpath
func (s *Submitter[T, S]) Put(to int, item T) {
	d := s.dest(to)
	d.mu.Lock()
	d.items = append(d.items, item)
	schedule := !d.scheduled
	d.scheduled = true
	d.mu.Unlock()
	if schedule {
		s.pool.SubmitWork(DestKey(to), d)
	}
}

// Do drains the destination's queue and invokes the flush callback, with
// the destination's state, outside the queue lock (Work). Items Put while the callback runs
// schedule a fresh flush (on the same worker, after this one). The batch
// is only lent to the callback: its array becomes the next queue.
func (d *destQueue[T, S]) Do(ctx rt.Ctx) {
	d.mu.Lock()
	batch := d.items
	d.items = d.spare[:0]
	d.scheduled = false
	d.mu.Unlock()
	if len(batch) > 0 {
		d.s.flush(ctx, d.to, batch, &d.state)
	}
	clear(batch) // the queue must not keep flushed items alive
	d.spare = batch
}

// Queued returns the number of items currently waiting for a
// destination (tests, diagnostics).
func (s *Submitter[T, S]) Queued(to int) int {
	d := s.dest(to)
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.items)
}
