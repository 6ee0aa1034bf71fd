package progress

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rt"
)

// pooledItem is a work item in the engine's idiom: taken from a free
// list by the submitter, handed back by its own Do. Freeing poisons it,
// so any touch by the worker after Do returned — or a second run of a
// freed item — is caught.
type pooledItem struct {
	list  *itemList
	arg   int
	state atomic.Int32 // itemFree, itemQueued
	ran   func(arg int)
}

const (
	itemFree = iota
	itemQueued
	itemPoison = 0xDB
)

type itemList struct {
	mu   sync.Mutex
	free []*pooledItem
	bad  atomic.Int32
}

func (l *itemList) get(arg int, ran func(int)) *pooledItem {
	l.mu.Lock()
	var it *pooledItem
	if n := len(l.free); n > 0 {
		it, l.free = l.free[n-1], l.free[:n-1]
	}
	l.mu.Unlock()
	if it == nil {
		it = &pooledItem{list: l}
	}
	it.arg, it.ran = arg, ran
	it.state.Store(itemQueued)
	return it
}

func (it *pooledItem) Do(rt.Ctx) {
	if !it.state.CompareAndSwap(itemQueued, itemFree) {
		it.list.bad.Add(1) // ran while on the free list
	}
	ran, arg := it.ran, it.arg
	it.arg, it.ran = itemPoison, nil
	l := it.list
	l.mu.Lock()
	l.free = append(l.free, it)
	l.mu.Unlock()
	ran(arg) // the item may already be somebody else's
}

// Closure tasks and pointer work items share one FIFO per worker, and a
// worker never touches an item after handing it to Do: items recycle
// through a free list while the pool is busy, and every one runs exactly
// once with the argument it was queued with.
func TestPoolWorkItemsRecycle(t *testing.T) {
	env := rt.NewLive()
	p := NewPool(env, "test", 2)
	defer p.Stop()
	const rounds, perRound = 20, 100
	var list itemList
	var order []int
	for r := 0; r < rounds; r++ {
		// Each round waits for its items, so the next one draws from the
		// free list while the worker may still be returning from Do.
		var wg sync.WaitGroup
		wg.Add(2 * perRound)
		for i := r * perRound; i < (r+1)*perRound; i++ {
			// Same key: the item and the closure task must run in submission
			// order on one worker.
			p.SubmitWork(3, list.get(2*i, func(arg int) { order = append(order, arg); wg.Done() }))
			p.Submit(3, Task{Name: "closure", Run: func(rt.Ctx) { order = append(order, 2*i+1); wg.Done() }})
		}
		wg.Wait()
	}
	const n = rounds * perRound
	for i, v := range order {
		if v != i {
			t.Fatalf("position %d ran %d (a recycled item ran with a stale or poisoned argument, or out of order)", i, v)
		}
	}
	if list.bad.Load() != 0 {
		t.Fatalf("%d items ran while free", list.bad.Load())
	}
	if len(order) != 2*n || len(list.free) > perRound {
		t.Fatalf("%d of %d ran; free list holds %d items, want at most one round's %d: items were not recycled", len(order), 2*n, len(list.free), perRound)
	}
}

// BenchmarkDevelHandoff shows the choice of worker hand-off side by
// side: a capturing closure in a Task (closure + boxing per submit), or a
// pointer to a recycled work item (nothing per submit). One submitter,
// one worker, submissions in bursts of 64 so the queue does real work.
func BenchmarkDevelHandoff(b *testing.B) {
	const burst = 64
	run := func(b *testing.B, submit func(p *Pool, i int, done *sync.WaitGroup)) {
		env := rt.NewLive()
		p := NewPool(env, "bench", 1)
		defer p.Stop()
		var wg sync.WaitGroup
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += burst {
			k := min(burst, b.N-i)
			wg.Add(k)
			for j := 0; j < k; j++ {
				submit(p, i+j, &wg)
			}
			wg.Wait()
		}
	}
	var sink atomic.Int64
	b.Run("closure-task", func(b *testing.B) {
		run(b, func(p *Pool, i int, done *sync.WaitGroup) {
			p.Submit(0, Task{Name: "eager", Run: func(rt.Ctx) { sink.Add(int64(i)); done.Done() }})
		})
	})
	b.Run("pooled-work-item", func(b *testing.B) {
		var list itemList
		var done *sync.WaitGroup
		ran := func(arg int) { sink.Add(int64(arg)); done.Done() }
		run(b, func(p *Pool, i int, wg *sync.WaitGroup) {
			done = wg
			p.SubmitWork(0, list.get(i, ran))
		})
	})
}

// A warmed submitter allocates nothing per Put and flush: the flush task
// is the destination's queue itself, and the batch array is handed back
// to the queue when the callback returns (cleared, so flushed items are
// not kept alive).
func TestSubmitterSteadyStateAllocs(t *testing.T) {
	env := rt.NewLive()
	p := NewPool(env, "test", 1)
	defer p.Stop()
	flushed := make(chan []*int, 1)
	s := NewSubmitter[*int](p, func(_ rt.Ctx, _ int, batch []*int) { flushed <- batch })
	item := new(int)
	round := func() []*int {
		s.Put(1, item)
		return <-flushed
	}
	for i := 0; i < 4; i++ {
		round() // both batch arrays exist after two flushes
	}
	if n := testing.AllocsPerRun(200, func() { round() }); n != 0 {
		t.Fatalf("%v allocs per Put+flush, want 0", n)
	}
	// The worker runs flushes one after another: once the next flush has
	// called back, the previous one has returned and cleared its batch.
	prev := round()
	round()
	if len(prev) != 1 || prev[0] != nil {
		t.Fatalf("a returned flush left %v in its batch array", prev)
	}
	if q := s.Queued(1); q != 0 {
		t.Fatalf("%d items still queued", q)
	}
}
