package progress

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rt"
)

// orderCheck is the shared state of TestPoolInlineKeepsKeyOrder: what
// every item verifies as it runs.
type orderCheck struct {
	pool     *Pool
	inflight []atomic.Int32 // per worker: items running right now
	// last[s][k] is the sequence number of the latest item of submitter s
	// under key k that ran; only the worker of k (or its borrower) writes
	// it, one item at a time — which is the property under test, so the
	// race detector checks it too.
	last          [][]int
	ran, children atomic.Int64 // numbered items and items submitted from inside one
	report        func(format string, args ...any)
}

// orderItem is one numbered item; every fourth one submits a child under
// its own key from inside, which must run after its parent has finished.
type orderItem struct {
	c          *orderCheck
	sub, key   int
	seq        int
	parentDone *atomic.Bool // child items: set by the parent when it returns
	spawn      bool
}

func (it *orderItem) Do(rt.Ctx) { it.Handle() }

func (it *orderItem) Handle() {
	c := it.c
	w := c.pool.Worker(uint32(it.key))
	if n := c.inflight[w].Add(1); n != 1 {
		c.report("worker %d runs %d items at once", w, n)
	}
	if it.parentDone != nil {
		if !it.parentDone.Load() {
			c.report("an item submitted from inside an item ran before that item returned")
		}
		c.children.Add(1)
	} else {
		c.ran.Add(1)
		if prev := c.last[it.sub][it.key]; it.seq != prev+1 {
			c.report("submitter %d key %d: item %d ran after item %d", it.sub, it.key, it.seq, prev)
		}
		c.last[it.sub][it.key] = it.seq
	}
	var done *atomic.Bool
	if it.spawn {
		done = new(atomic.Bool)
		c.pool.Handle(uint32(it.key), &orderItem{c: c, sub: it.sub, key: it.key, parentDone: done})
	}
	runtime.Gosched() // widen the window another submitter could slip into
	c.inflight[w].Add(-1)
	if done != nil {
		done.Store(true)
	}
}

// Several submitters mix Handle (run inline when the worker is idle) and
// SubmitWork (always queued) over a few keys. Whatever the interleaving:
// one submitter's items of one key run in the order it submitted them, a
// worker never has two items in flight — inline or not —, an item
// submitted from inside an item runs after it, and Stop drains what was
// queued before it (an item that runs after Stop may submit a child, which
// is then dropped, as for every submit after Stop). Mutations tried: TryTurn ignoring `held` (two items of a worker
// at once), TryTurn ignoring `n != 0` (an inline item overtakes queued
// ones of its key), EndTurn not waking the consumer (Stop never drains).
func TestPoolInlineKeepsKeyOrder(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const submitters, keys, perKey = 4, 5, 300
			env := rt.NewLive()
			p := NewPool(env, "test", 3)
			c := &orderCheck{pool: p, inflight: make([]atomic.Int32, p.Size()), report: t.Errorf}
			for s := 0; s < submitters; s++ {
				c.last = append(c.last, make([]int, keys))
			}
			// On an idle pool the item runs here and its child on the worker.
			p.Handle(0, &orderItem{c: c, seq: 1, spawn: true})
			for c.children.Load() == 0 {
				runtime.Gosched()
			}
			c.last[0][0] = 0
			c.ran.Store(0)
			var wg sync.WaitGroup
			for s := 0; s < submitters; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for seq := 1; seq <= perKey; seq++ {
						for k := 0; k < keys; k++ {
							it := &orderItem{c: c, sub: s, key: k, seq: seq, spawn: seq%4 == 0}
							if (seq+k+s)%3 == 0 {
								p.SubmitWork(uint32(k), it)
							} else {
								p.Handle(uint32(k), it)
							}
						}
					}
				}(s)
			}
			wg.Wait()
			p.Stop()
			env.WaitIdle() // the workers have drained and left
			if got, want := c.ran.Load(), int64(submitters*keys*perKey); got != want {
				t.Fatalf("%d items ran, want %d: Stop did not drain", got, want)
			}
			var tasks, inline uint64
			for _, st := range p.Stats() {
				tasks, inline = tasks+st.Tasks, inline+st.Inline
			}
			if want := uint64(1 + c.ran.Load() + c.children.Load()); tasks != want || inline == 0 || inline >= tasks {
				t.Fatalf("stats count %d tasks, %d of them inline; want %d tasks, some but not all inline", tasks, inline, want)
			}
		})
	}
}

// BenchmarkDevelDispatch puts the two routes of a handler step side by
// side: queued to the key's worker and run there (a goroutine hand-off per
// item), or run on the submitter because the worker is idle.
func BenchmarkDevelDispatch(b *testing.B) {
	b.Run("queued", func(b *testing.B) {
		env := rt.NewLive()
		p := NewPool(env, "bench", 2)
		defer p.Stop()
		ran := make(chan struct{}, 1)
		it := benchItem{ran: ran}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.SubmitWork(1, it)
			<-ran
		}
	})
	b.Run("inline", func(b *testing.B) {
		env := rt.NewLive()
		p := NewPool(env, "bench", 2)
		defer p.Stop()
		ran := make(chan struct{}, 1)
		it := benchItem{ran: ran}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Handle(1, it)
			<-ran
		}
	})
}

type benchItem struct{ ran chan struct{} }

func (it benchItem) Do(rt.Ctx) { it.Handle() }
func (it benchItem) Handle()   { it.ran <- struct{}{} }
