package shmnet

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/rt"
)

// eventually polls cond; ring sides and writers run on their own
// goroutines.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// parks sums the Parks counters of every rail of every node.
func parks(f *Fabric) (n uint64) {
	for i := 0; i < f.NumNodes(); i++ {
		for r := 0; r < f.NumRails(); r++ {
			n += f.Node(i).Rail(r).Stats().Parks
		}
	}
	return n
}

// An idle hosted fabric is silent: each ring's reader parks once, with no
// deadline, and stays parked — no timer wakes it to look again. (Before,
// every reader woke about 250 times in these 50 ms.) Mutation tried: a
// 200 µs timer beside the wake channel in backoff.wait — Parks grows to
// hundreds.
func TestIdleRingSidesStayParked(t *testing.T) {
	f, err := NewHosted(rt.NewLive(), Config{Nodes: 2, Rails: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const readers = 4 // 2 nodes x 2 rails, one receive ring each
	eventually(t, "every reader to park", func() bool { return parks(f) == readers })
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < f.NumNodes(); i++ {
		for r := 0; r < f.NumRails(); r++ {
			if st := f.Node(i).Rail(r).Stats(); st.Parks > 1 {
				t.Errorf("node %d rail %d: its ring sides parked %d times while idle, want once", i, r, st.Parks)
			}
		}
	}
}

// Whatever a parked side waits for, the event that ends the wait wakes it:
// a reader parked between frames resumes when its rail is killed and
// re-enabled and traffic returns; and Close returns promptly with readers
// parked at a boundary and a writer parked on a full ring nobody drains
// any more (its reader gave up on a corrupt stream) — the one side no
// goodbye and no peer can wake. Mutation tried: Close without its nudges
// hangs on that writer.
func TestParkedSidesWakeOnCloseKillGoodbye(t *testing.T) {
	env := rt.NewLive()
	f, err := NewHosted(env, Config{Nodes: 2, Rails: 1, RingBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	arrived := make(chan int, 16)
	f.Node(1).(fabric.DirectNode).SetSink(func(d *fabric.Delivery) { arrived <- len(d.Data) })
	rail := f.Node(0).Rail(0)
	eventually(t, "both readers to park", func() bool { return parks(f) == 2 })

	f.FailRail(0, 0)
	rail.SendEager(nil, 1, make([]byte, 100)) // lost with the rail
	f.Node(0).Health().Enable(0)
	f.Node(1).Health().Enable(0)
	rail.SendEager(nil, 1, make([]byte, 200))
	for n := 0; n != 200; { // the first frame arrives too if its writer saw the rail only after the revival
		select {
		case n = <-arrived:
		case <-time.After(10 * time.Second):
			t.Fatal("no traffic after FailRail and Enable: the parked reader never resumed")
		}
	}

	// An oversized prefix makes node 1's reader fail the stream and leave.
	// The link is idle — the last frame arrived, so no sender and no
	// writer is inside a copy — and the test can be the ring's producer.
	var prefix [8]byte
	binary.LittleEndian.PutUint32(prefix[0:], 1<<30)
	binary.LittleEndian.PutUint32(prefix[4:], 1<<30)
	f.Link(0, 0, 1).Transport().(*lane).send.write(prefix[:], func() bool { return false })
	eventually(t, "the reader to reject the stream", func() bool { return f.Err() != nil })
	// Nobody drains the ring now: 1 KiB frames fill it, the first that does
	// not fit goes to the writer, which stalls and parks.
	before := rail.Stats().Parks
	for i := 0; i < 5; i++ {
		rail.SendEager(nil, 1, make([]byte, 1<<10))
	}
	eventually(t, "the writer to park on the full ring", func() bool {
		st := rail.Stats()
		return st.Stalls >= 1 && st.Parks > before
	})

	start := time.Now()
	closed := make(chan struct{})
	go func() { defer close(closed); f.Close() }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hangs: a parked ring side was not woken")
	}
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("Close took %v with parked ring sides, want < 100ms", took)
	}
}

// BenchmarkDevelRingPingPong is the raw two-ring ping-pong of a 556 B
// frame (512 B payload, 44 B header, as the engine's eager container) with
// the choices of the small-message path side by side, and a channel
// ping-pong as the floor any hand-off between two goroutines pays. It
// reports ns per round trip and how often a reader parked per round trip.
//
// yield256 is the wait every ring side had before (minus its timer);
// boundaryN yields N times at a frame boundary, then parks; observed
// derives the budget from how many yields the reader's recent boundary
// waits took. prefix-head-separate and one-publication write the frame as
// two publications (the reader can see a prefix without its head) or one.
func BenchmarkDevelRingPingPong(b *testing.B) {
	frame := make([]byte, 556)
	never := func() bool { return false }
	pingPong := func(b *testing.B, yields int, observed, onePublication bool) {
		var parked atomic.Uint64
		newRing := func() *ring {
			r := newRing(alignedRegion(ringRegionSize(256<<10)), true).enableWake()
			r.boundaryYields, r.readParks = yields, &parked
			return r
		}
		fwd, rev := newRing(), newRing()
		send := func(r *ring) {
			var prefix [8]byte
			binary.LittleEndian.PutUint32(prefix[0:], uint32(len(frame)))
			if onePublication {
				r.tryWrite(prefix[:], frame)
				return
			}
			r.write(prefix[:], never)
			r.write(frame, never)
		}
		recv := func(r *ring, buf []byte, seen *int) {
			if observed {
				// Yield for as long as twice the recent successful waits took.
				n := 0
				for budget := 2**seen + 4; n < budget && r.tail.Load() == r.head.Load(); n++ {
					runtime.Gosched()
				}
				if r.tail.Load() != r.head.Load() {
					*seen = (3**seen + n) / 4
				}
			}
			var prefix [8]byte
			r.read(prefix[:], frameBoundary, never)
			r.read(buf, midFrame, never)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			buf, seen := make([]byte, len(frame)), 16
			for i := 0; i < b.N; i++ {
				recv(fwd, buf, &seen)
				send(rev)
			}
		}()
		buf, seen := make([]byte, len(frame)), 16
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			send(fwd)
			recv(rev, buf, &seen)
		}
		<-done
		b.ReportMetric(float64(parked.Load())/float64(b.N), "parks/op")
	}
	for _, v := range []struct {
		name     string
		yields   int
		observed bool
	}{{"yield256", 256, false}, {"boundary4", 4, false}, {"boundary16", 16, false},
		{"boundary32", 32, false}, {"boundary64", 64, false}, {"observed", 0, true}} {
		b.Run(v.name, func(b *testing.B) { pingPong(b, v.yields, v.observed, true) })
	}
	b.Run("prefix-head-separate", func(b *testing.B) { pingPong(b, boundaryYields, false, false) })
	b.Run("one-publication", func(b *testing.B) { pingPong(b, boundaryYields, false, true) })
	b.Run("chan", func(b *testing.B) {
		ping, pong := make(chan struct{}), make(chan struct{})
		go func() {
			for range ping {
				pong <- struct{}{}
			}
		}()
		for i := 0; i < b.N; i++ {
			ping <- struct{}{}
			<-pong
		}
		close(ping)
	})
}
