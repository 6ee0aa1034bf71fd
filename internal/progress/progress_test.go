package progress

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rt"
)

// Tasks submitted under one key run in submission order, even with many
// workers.
func TestPoolSameKeyOrdered(t *testing.T) {
	env := rt.NewLive()
	p := NewPool(env, "test", 4)
	defer p.Stop()
	const n = 200
	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		i := i
		p.Submit(7, Task{Name: "seq", Run: func(rt.Ctx) {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
			if i == n-1 {
				close(done)
			}
		}})
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("tasks did not drain")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range got {
		if v != i {
			t.Fatalf("task %d ran at position %d", v, i)
		}
	}
}

// Tasks under keys mapping to different workers run concurrently: a
// blocked worker does not stall the other key.
func TestPoolDifferentKeysParallel(t *testing.T) {
	env := rt.NewLive()
	p := NewPool(env, "test", 2)
	defer p.Stop()
	release := make(chan struct{})
	blocked := make(chan struct{})
	ran := make(chan struct{})
	p.Submit(0, Task{Name: "block", Run: func(rt.Ctx) {
		close(blocked)
		<-release
	}})
	<-blocked
	p.Submit(1, Task{Name: "free", Run: func(rt.Ctx) { close(ran) }})
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("worker 1 stalled behind worker 0's blocked task")
	}
	close(release)
}

func TestPoolStopDrainsQueued(t *testing.T) {
	env := rt.NewLive()
	p := NewPool(env, "test", 1)
	var ran atomic.Int32
	done := make(chan struct{})
	for i := 0; i < 10; i++ {
		i := i
		p.Submit(0, Task{Name: "t", Run: func(rt.Ctx) {
			ran.Add(1)
			if i == 9 {
				close(done)
			}
		}})
	}
	p.Stop()
	p.Stop() // idempotent
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("queued tasks dropped by Stop")
	}
	if got := ran.Load(); got != 10 {
		t.Fatalf("ran %d of 10 queued tasks", got)
	}
	// Post-stop submissions are silently dropped, not executed.
	p.Submit(0, Task{Name: "late", Run: func(rt.Ctx) { t.Error("task ran after Stop") }})
	env.WaitIdle()
}

func TestPoolStats(t *testing.T) {
	env := rt.NewLive()
	p := NewPool(env, "test", 3)
	defer p.Stop()
	done := make(chan struct{})
	p.Submit(1, Task{Name: "t", Run: func(ctx rt.Ctx) { ctx.Sleep(time.Millisecond); close(done) }})
	<-done
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := p.Stats()
		if len(st) == 3 && st[1].Tasks == 1 && st[1].BusyTime > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never settled: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// Keys distribute: distinct flows should not all pile on one worker.
func TestKeysSpread(t *testing.T) {
	workers := map[uint32]bool{}
	for tag := uint32(0); tag < 64; tag++ {
		workers[FlowKey(1, tag)%8] = true
	}
	if len(workers) < 4 {
		t.Fatalf("64 flows hit only %d of 8 workers", len(workers))
	}
	if FlowKey(1, 5) != FlowKey(1, 5) || FlowKey(1, 5) == FlowKey(2, 5) {
		t.Fatal("FlowKey not stable or not peer-sensitive")
	}
	if ChunkKey(1, 5, 0) == ChunkKey(1, 5, 4096) {
		t.Fatal("ChunkKey ignores offset")
	}
}

func TestShardsPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ n, min, want int }{
		{0, 8, 8}, {8, 8, 8}, {9, 8, 16}, {3, 1, 4}, {1, 1, 1}, {0, 5, 8},
	} {
		if got := Shards(tc.n, tc.min); got != tc.want {
			t.Errorf("Shards(%d,%d) = %d, want %d", tc.n, tc.min, got, tc.want)
		}
	}
}

func TestDedupMarkAndEvict(t *testing.T) {
	d := NewDedup(4, 64)
	if !d.Mark(1, 42) {
		t.Fatal("fresh id reported duplicate")
	}
	if d.Mark(1, 42) {
		t.Fatal("duplicate id reported fresh")
	}
	if !d.Seen(1, 42) || d.Seen(2, 42) {
		t.Fatal("Seen wrong")
	}
	// Flood far past capacity: the window stays bounded and old ids age
	// out of their stripes.
	for id := uint64(100); id < 100+4096; id++ {
		d.Mark(3, id)
	}
	if n := d.Len(); n > 64+4 {
		t.Fatalf("window grew to %d entries (cap 64)", n)
	}
}

// Submitter aggregates: items put while the flush is pending arrive in
// one batch, and the flush never holds the queue lock (a Put during a
// blocked flush returns immediately and triggers a follow-up flush).
func TestSubmitterBatchesAndNeverBlocksPut(t *testing.T) {
	env := rt.NewLive()
	p := NewPool(env, "test", 2)
	defer p.Stop()
	var mu sync.Mutex
	var batches [][]int
	inFlush := make(chan struct{}, 16)
	release := make(chan struct{})
	s := NewSubmitter[int](p, func(ctx rt.Ctx, to int, batch []int) {
		mu.Lock()
		batches = append(batches, append([]int(nil), batch...))
		first := len(batches) == 1
		mu.Unlock()
		inFlush <- struct{}{}
		if first {
			<-release // block the first flush mid-callback
		}
	})
	s.Put(1, 10)
	<-inFlush // first flush running (and blocked) with batch [10]
	// Put while the flush is blocked: must not block, must queue.
	putDone := make(chan struct{})
	go func() {
		s.Put(1, 11)
		s.Put(1, 12)
		close(putDone)
	}()
	select {
	case <-putDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Put blocked behind a blocked flush")
	}
	if q := s.Queued(1); q != 2 {
		t.Fatalf("queued %d, want 2", q)
	}
	close(release)
	select {
	case <-inFlush: // second flush with batch [11 12]
	case <-time.After(5 * time.Second):
		t.Fatal("follow-up flush never ran")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(batches) != 2 || len(batches[0]) != 1 || len(batches[1]) != 2 {
		t.Fatalf("batches %v, want [[10] [11 12]]", batches)
	}
}

// Distinct destinations flush on distinct workers: a blocked flush for
// one destination does not delay another.
func TestSubmitterDestinationsIndependent(t *testing.T) {
	env := rt.NewLive()
	p := NewPool(env, "test", 2)
	defer p.Stop()
	release := make(chan struct{})
	blocked := make(chan struct{})
	flushed2 := make(chan struct{})
	s := NewSubmitter[int](p, func(ctx rt.Ctx, to int, batch []int) {
		switch to {
		case 1:
			close(blocked)
			<-release
		case 2:
			close(flushed2)
		}
	})
	s.Put(1, 1) // dest 1 → worker 1 (DestKey is identity), blocks
	<-blocked
	s.Put(2, 2) // dest 2 → worker 0, must flush despite dest 1 blocking
	select {
	case <-flushed2:
	case <-time.After(5 * time.Second):
		t.Fatal("dest 2 flush stalled behind dest 1's blocked rail write")
	}
	close(release)
}

// Idle counts the workers with nothing queued — the cores an offloaded
// step would find free.
func TestPoolIdleCountsEmptyQueues(t *testing.T) {
	env := rt.NewSim()
	p := NewPool(env, "test", 3)
	if n := p.Idle(); n != 3 {
		t.Fatalf("fresh pool: %d idle workers, want 3", n)
	}
	p.Submit(0, Task{Name: "a", Run: func(rt.Ctx) {}})
	p.Submit(3, Task{Name: "b", Run: func(rt.Ctx) {}}) // worker 0 again
	p.Submit(1, Task{Name: "c", Run: func(rt.Ctx) {}})
	if n := p.Idle(); n != 1 {
		t.Fatalf("two workers with queued tasks: %d idle, want 1", n)
	}
	idle := -1
	env.Go("check", func(ctx rt.Ctx) {
		ctx.Sleep(time.Microsecond)
		idle = p.Idle()
		p.Stop()
	})
	env.Run()
	if idle != 3 {
		t.Fatalf("after the tasks ran: %d idle workers, want 3", idle)
	}
}
