package fabric_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/rt"
)

// newInbox returns a hosted inbox on a live queue.
func newInbox() *fabric.Inbox {
	b := &fabric.Inbox{}
	b.Init(3, rt.NewLive().NewQueue(), nil)
	return b
}

// Frames queued before a sink exists reach it, in order, before any
// delivery made after SetSink; SetSink(nil) sends deliveries back to RecvQ.
func TestInboxDrainsQueueBeforeDirect(t *testing.T) {
	b := newInbox()
	var got []int
	sink := func(d *fabric.Delivery) { got = append(got, d.Rail) }
	b.Deliver(&fabric.Delivery{Rail: 1})
	b.Deliver(&fabric.Delivery{Rail: 2})
	b.SetSink(sink)
	if n := b.RecvQ().Len(); n != 0 {
		t.Fatalf("%d deliveries left in RecvQ after SetSink", n)
	}
	b.Deliver(&fabric.Delivery{Rail: 3})
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("sink saw rails %v, want [1 2 3]", got)
	}
	b.SetSink(nil)
	b.Deliver(&fabric.Delivery{Rail: 4})
	if len(got) != 3 || b.RecvQ().Len() != 1 {
		t.Fatalf("after SetSink(nil): sink saw %v, RecvQ holds %d; want the delivery queued", got, b.RecvQ().Len())
	}
}

// countingQueue counts the deliveries an inbox queued.
type countingQueue struct {
	rt.Queue
	pushed atomic.Int64
}

func (q *countingQueue) Push(v any) {
	q.pushed.Add(1)
	q.Queue.Push(v)
}

// Concurrent producers deliver while the sink is installed and removed
// under them: every delivery reaches the sink exactly once, and each
// producer's deliveries arrive in the order it made them, whether they
// were queued and drained or handed over directly.
func TestInboxDeliveryUnderSinkSwaps(t *testing.T) {
	const producers, perProducer = 4, 2000
	q := &countingQueue{Queue: rt.NewLive().NewQueue()}
	b := &fabric.Inbox{}
	b.Init(0, q, nil)
	var mu sync.Mutex
	got := make([][]int, producers)
	sink := func(d *fabric.Delivery) {
		mu.Lock()
		got[d.From] = append(got[d.From], d.Rail)
		mu.Unlock()
	}
	stop := make(chan struct{})
	swapped := make(chan struct{})
	go func() {
		defer close(swapped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			b.SetSink(sink)
			runtime.Gosched()
			b.SetSink(nil)
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				b.Deliver(&fabric.Delivery{From: p, Rail: i})
				if i%64 == 63 {
					runtime.Gosched() // let the swapper in on a single P too
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-swapped
	queued := q.pushed.Load()
	b.SetSink(sink) // drains whatever the last SetSink(nil) left queued
	if queued == 0 || queued == producers*perProducer {
		t.Fatalf("%d of %d deliveries queued: the swaps did not interleave with the producers", queued, producers*perProducer)
	}
	for p, seq := range got {
		if len(seq) != perProducer {
			t.Fatalf("producer %d: sink saw %d deliveries, want %d", p, len(seq), perProducer)
		}
		for i, v := range seq {
			if v != i {
				t.Fatalf("producer %d: delivery %d arrived as number %d (lost, duplicated or reordered)", p, v, i)
			}
		}
	}
}

// Observe reports transfers to the installed telemetry only, and drops a
// transfer of no duration.
func TestInboxObserve(t *testing.T) {
	b := newInbox()
	b.Observe(1, 0, 100, time.Microsecond) // no telemetry yet: dropped
	var tel recordTelemetry
	b.SetTelemetry(&tel)
	b.Observe(1, 0, 100, 0)
	b.Observe(1, 2, 4096, time.Microsecond)
	b.SetTelemetry(nil)
	b.Observe(1, 0, 100, time.Microsecond)
	if len(tel) != 1 || tel[0] != [4]int{1, 2, 4096, int(time.Microsecond)} {
		t.Fatalf("telemetry saw %v, want the one timed transfer", tel)
	}
}

// A remote stub knows its id and refuses everything a hosted node does.
func TestInboxRemoteStubPanics(t *testing.T) {
	var b fabric.Inbox
	b.Init(5, nil, nil)
	if b.ID() != 5 || b.Hosted() {
		t.Fatalf("stub: ID %d hosted %v", b.ID(), b.Hosted())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RecvQ on a remote stub did not panic")
		}
	}()
	b.RecvQ()
}

type recordTelemetry [][4]int

func (r *recordTelemetry) ObserveTransfer(peer, rail, bytes int, d time.Duration) {
	*r = append(*r, [4]int{peer, rail, bytes, int(d)})
}
