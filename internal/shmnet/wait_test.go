package shmnet

import (
	"encoding/binary"
	"runtime"
	"sync"
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
	for _, node := range f.nodes {
		for _, r := range node.rails {
			n += r.Stats().Parks
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
	for _, node := range f.nodes {
		for _, r := range node.rails {
			if st := r.Stats(); st.Parks > 1 {
				t.Errorf("node %d rail %d: its ring sides parked %d times while idle, want once", node.id, r.index, st.Parks)
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
	f.nodes[1].SetSink(func(d *fabric.Delivery) { arrived <- len(d.Data) })
	rail := f.nodes[0].rails[0]
	eventually(t, "both readers to park", func() bool { return parks(f) == 2 })

	f.FailRail(0, 0)
	rail.SendEager(nil, 1, make([]byte, 100)) // lost with the rail
	f.nodes[0].Health().Enable(0)
	f.nodes[1].Health().Enable(0)
	rail.SendEager(nil, 1, make([]byte, 200))
	for n := 0; n != 200; { // the first frame arrives too if its writer saw the rail only after the revival
		select {
		case n = <-arrived:
		case <-time.After(10 * time.Second):
			t.Fatal("no traffic after FailRail and Enable: the parked reader never resumed")
		}
	}

	// An oversized prefix makes node 1's reader fail the stream and leave.
	l := rail.links[1]
	var prefix [prefixSize]byte
	binary.LittleEndian.PutUint32(prefix[0:], maxFrame)
	binary.LittleEndian.PutUint32(prefix[4:], maxFrame)
	l.producer.Lock()
	l.sendR.write(prefix[:], func() bool { return false })
	l.producer.Unlock()
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

// The link's frame order is the order of the send calls whichever route a
// frame takes: numbered small frames from one sender, while the reader is
// held so that a backlog builds in the ring and the writer's queue and
// then drains, arrive in sending order with both routes used. And the
// sender's own write is only for a frame that cannot make it wait: one
// with a body, and one larger than the ring's free space, go to the writer.
// Mutation tried: writing inline without the `pending == 0` test lets a
// small frame overtake the queue in the moment its writer is between two
// frames (the second phase opens that moment a hundred times).
func TestInlineWriteKeepsLinkOrder(t *testing.T) {
	env := rt.NewLive()
	f, err := NewHosted(env, Config{Nodes: 2, Rails: 1, RingBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const frames = 2000
	var mu sync.Mutex
	var got []uint32
	hold := make(chan struct{})
	all := make(chan struct{})
	f.nodes[1].SetSink(func(d *fabric.Delivery) {
		seq := binary.LittleEndian.Uint32(d.Data)
		if seq%500 == 1 {
			<-hold // a held reader: the ring fills, frames queue behind it
		}
		mu.Lock()
		got = append(got, seq)
		n := len(got)
		mu.Unlock()
		d.Release()
		if n == frames {
			close(all)
		}
	})
	rail := f.nodes[0].rails[0]
	go func() {
		for i := 0; i < frames/500; i++ {
			// Let the backlog build: ring full, writer stalled, queue filling.
			for len(rail.links[1].out) < 8 {
				time.Sleep(50 * time.Microsecond)
			}
			hold <- struct{}{}
		}
	}()
	for seq := uint32(0); seq < frames; seq++ {
		frame := make([]byte, 300) // a queued frame this long aliases its sender's buffer
		binary.LittleEndian.PutUint32(frame, seq)
		rail.SendEager(nil, 1, frame)
	}
	select {
	case <-all:
	case <-time.After(30 * time.Second):
		t.Fatalf("not all %d frames arrived", frames)
	}
	for i, seq := range got {
		if seq != uint32(i) {
			t.Fatalf("frame %d arrived at position %d: a frame overtook the link's queue", seq, i)
		}
	}
	st := rail.Stats()
	if st.InlineWrites == 0 || st.InlineWrites >= frames || st.Stalls == 0 {
		t.Fatalf("stats %+v: want some frames written by the sender, some by the writer behind a full ring", st)
	}

	// The window in which only the queue's emptiness can tell: frames are
	// queued, the ring has room and the token is free, because the writer is
	// between two frames. Holding the token while two frames are posted
	// parks the writer just before its copy; letting go and posting a third
	// at once races the writer for the token.
	l := rail.links[1]
	three := make(chan uint32, 3)
	f.nodes[1].SetSink(func(d *fabric.Delivery) { three <- binary.LittleEndian.Uint32(d.Data) })
	for round := 0; round < 100; round++ {
		eventually(t, "the link to go idle", func() bool { return !rail.Busy() })
		var abc [3][]byte
		for i := range abc {
			abc[i] = make([]byte, 300)
			binary.LittleEndian.PutUint32(abc[i], uint32(i))
		}
		l.producer.Lock()
		//railvet:ignore nolockio the test stands in for a sender mid-copy: with the token taken the two sends can only queue
		rail.SendEager(nil, 1, abc[0])
		//railvet:ignore nolockio as above
		rail.SendEager(nil, 1, abc[1])
		l.producer.Unlock()
		rail.SendEager(nil, 1, abc[2])
		for want := uint32(0); want < 3; want++ {
			if seq := <-three; seq != want {
				t.Fatalf("round %d: frame %d arrived in place of frame %d: it overtook the link's queue", round, seq, want)
			}
		}
	}

	// On the idle link: a head+body frame and a frame larger than the ring
	// arrive through the writer.
	eventually(t, "the link to go idle", func() bool { return !rail.Busy() })
	inline := rail.Stats().InlineWrites
	f.nodes[1].SetSink(func(d *fabric.Delivery) { hold <- struct{}{} })
	rail.SendDataV(nil, 1, make([]byte, 44), make([]byte, 100), nil)
	<-hold
	rail.SendEager(nil, 1, make([]byte, 8<<10))
	<-hold
	if now := rail.Stats().InlineWrites; now != inline {
		t.Fatalf("%d frames with a body or larger than the ring were written by their sender", now-inline)
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
			var prefix [prefixSize]byte
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
			var prefix [prefixSize]byte
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
