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
type Submitter[T any] struct {
	pool  *Pool
	flush func(ctx rt.Ctx, to int, batch []T)

	mu    sync.RWMutex
	dests map[int]*destQueue[T]
}

// destQueue is one destination's queue and, at the same time, its flush
// work item: scheduled guarantees at most one flush of a destination is
// queued, so the queue itself is what Put hands to the pool.
type destQueue[T any] struct {
	s  *Submitter[T]
	to int

	mu        sync.Mutex
	items     []T
	scheduled bool // a flush is queued and will observe items

	// spare is the batch the previous flush handed back, reused as the
	// next items array. Only this destination's flush touches it, and
	// flushes of one destination are serialised.
	spare []T
}

// NewSubmitter builds a submitter flushing through the pool.
func NewSubmitter[T any](pool *Pool, flush func(ctx rt.Ctx, to int, batch []T)) *Submitter[T] {
	return &Submitter[T]{pool: pool, flush: flush, dests: make(map[int]*destQueue[T])}
}

func (s *Submitter[T]) dest(to int) *destQueue[T] {
	s.mu.RLock()
	d := s.dests[to]
	s.mu.RUnlock()
	if d != nil {
		return d
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if d = s.dests[to]; d == nil {
		d = &destQueue[T]{s: s, to: to}
		s.dests[to] = d
	}
	return d
}

// Put appends item to the destination's queue and schedules a flush if
// none is pending. Never blocks.
//
//railvet:hotpath
func (s *Submitter[T]) Put(to int, item T) {
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

// Do drains the destination's queue and invokes the flush callback
// outside the queue lock (Work). Items Put while the callback runs
// schedule a fresh flush (on the same worker, after this one). The batch
// is only lent to the callback: its array becomes the next queue.
func (d *destQueue[T]) Do(ctx rt.Ctx) {
	d.mu.Lock()
	batch := d.items
	d.items = d.spare[:0]
	d.scheduled = false
	d.mu.Unlock()
	if len(batch) > 0 {
		d.s.flush(ctx, d.to, batch)
	}
	clear(batch) // the queue must not keep flushed items alive
	d.spare = batch
}

// Queued returns the number of items currently waiting for a
// destination (tests, diagnostics).
func (s *Submitter[T]) Queued(to int) int {
	d := s.dest(to)
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.items)
}
