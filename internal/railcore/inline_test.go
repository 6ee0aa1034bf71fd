package railcore_test

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/railcore"
	"repro/internal/railcore/railcoretest"
)

// The link's frame order is the order of the send calls whichever route a
// frame takes, on a transport that takes sender-written frames (shm):
// numbered small frames from one sender, while the reader is held so that
// a backlog builds in the ring and the writer's queue and then drains,
// arrive in sending order with both routes used. And the sender's own
// write is only for a frame that cannot make it wait: one with a body,
// and one larger than the ring's free space, go to the writer. Mutation
// tried: writing inline without the `pending == 0` test lets a small frame
// overtake the queue in the moment its writer is between two frames (the
// second phase opens that moment a hundred times).
func TestInlineWriteKeepsLinkOrder(t *testing.T) {
	_, f := railcoretest.SHM.Open(t, 1, 4<<10)
	sink := f.Node(1).(fabric.DirectNode)
	const frames = 2000
	var mu sync.Mutex
	var got []uint32
	hold := make(chan struct{})
	all := make(chan struct{})
	sink.SetSink(func(d *fabric.Delivery) {
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
	rail := f.Node(0).Rail(0).(*railcore.Rail)
	go func() {
		for i := 0; i < frames/500; i++ {
			// Let the backlog build: ring full, writer stalled, queue filling.
			for rail.Queued(1) < 8 {
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
	three := make(chan uint32, 3)
	sink.SetSink(func(d *fabric.Delivery) { three <- binary.LittleEndian.Uint32(d.Data) })
	for round := 0; round < 100; round++ {
		eventually(t, "the link to go idle", func() bool { return !rail.Busy() })
		var abc [3][]byte
		for i := range abc {
			abc[i] = make([]byte, 300)
			binary.LittleEndian.PutUint32(abc[i], uint32(i))
		}
		release := rail.HoldProducer(1)
		rail.SendEager(nil, 1, abc[0])
		rail.SendEager(nil, 1, abc[1])
		release()
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
	sink.SetSink(func(d *fabric.Delivery) { hold <- struct{}{} })
	rail.SendDataV(nil, 1, make([]byte, 44), make([]byte, 100), nil)
	<-hold
	rail.SendEager(nil, 1, make([]byte, 8<<10))
	<-hold
	if now := rail.Stats().InlineWrites; now != inline {
		t.Fatalf("%d frames with a body or larger than the ring were written by their sender", now-inline)
	}
}

// eventually polls cond; link writers and readers run on their own
// goroutines.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
