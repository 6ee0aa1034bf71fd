package railcoretest

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/rt"
	"repro/internal/shmnet"
)

// The mover contract (railcore.Mover), for transports whose rail 0 has one
// (SHM, and Joined, whose rail 0 is shm): a body at or above the floor
// leaves the rail — the peer's reader copies it once from the sender's
// buffer into the placed buffer or a pool frame — and the frame's
// completion fires exactly once, whatever becomes of the frame.

// completions counts a frame's completion firings.
type completions struct {
	n     atomic.Int32
	fired chan struct{}
}

func newCompletions() *completions { return &completions{fired: make(chan struct{}, 16)} }

func (c *completions) Fire() {
	c.n.Add(1)
	c.fired <- struct{}{}
}

// once waits for the first firing and checks, after any straggler had
// the time to show, that there was exactly one.
func (c *completions) once(t *testing.T, what string) {
	t.Helper()
	select {
	case <-c.fired:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: completion never fired", what)
	}
	time.Sleep(10 * time.Millisecond)
	if n := c.n.Load(); n != 1 {
		t.Fatalf("%s: completion fired %d times, want 1", what, n)
	}
}

// moveFrame is a chunk-like frame: a short head and a body of n random
// bytes.
func moveFrame(n int) (head, body []byte) {
	body = make([]byte, n)
	rand.New(rand.NewSource(int64(n))).Read(body)
	return []byte("a chunk header of thirty-two by"), body
}

// placeInto is a placer that accepts every frame into dst and reports its
// outcome; calling before runs first (nil: nothing).
func placeInto(dst []byte, before func(), outcome chan bool) fabric.Placer {
	return func(from, rail int, head []byte, n int) ([]byte, fabric.Placed) {
		if before != nil {
			before()
		}
		return dst[:n], fabric.PlacedFunc(func(ok bool) { outcome <- ok })
	}
}

// MovePlaced: a body above the floor with a placer accepting it lands in
// the placed buffer, committed once, without touching the ring's space —
// no stall, though the frame is as large as the ring — and counts as one
// moved frame of head+body bytes.
func MovePlaced(t *testing.T, tr Transport) {
	_, f := tr.Open(t, 1, 0)
	head, body := moveFrame(256 << 10)
	dst := make([]byte, len(body))
	outcome := make(chan bool, 2)
	f.Node(1).(fabric.DirectNode).SetPlacer(placeInto(dst, nil, outcome))
	done := newCompletions()
	rail := f.Node(0).Rail(0)
	rail.SendDataV(nil, 1, head, body, done)
	if !recvOrFatal(t, "placement", outcome) || !bytes.Equal(dst, body) {
		t.Fatal("moved body not placed intact")
	}
	done.once(t, "placed move")
	st := rail.Stats()
	if st.Moved != 1 || st.Messages != 1 || st.Bytes != uint64(len(head)+len(body)) || st.Stalls != 0 {
		t.Fatalf("sender stats %+v, want 1 moved frame of head+body bytes and no stall", st)
	}
	if busy(rail) {
		t.Fatal("rail still busy after the move finished")
	}
}

// MoveDeclined: a declined placement still takes the one copy — into a
// pool frame delivered contiguously — never the ring.
func MoveDeclined(t *testing.T, tr Transport) {
	_, f := tr.Open(t, 1, 0)
	head, body := moveFrame(128 << 10)
	dn := f.Node(1).(fabric.DirectNode)
	sunk := make(chan []byte, 2)
	dn.SetSink(func(d *fabric.Delivery) { sunk <- append([]byte(nil), d.Data...); d.Release() })
	dn.SetPlacer(func(int, int, []byte, int) ([]byte, fabric.Placed) { return nil, nil })
	done := newCompletions()
	rail := f.Node(0).Rail(0)
	rail.SendDataV(nil, 1, head, body, done)
	if got := recvOrFatal(t, "declined frame", sunk); !bytes.Equal(got, append(append([]byte(nil), head...), body...)) {
		t.Fatalf("declined moved frame arrived with %d bytes, corrupted or short", len(got))
	}
	done.once(t, "declined move")
	if st := rail.Stats(); st.Moved != 1 {
		t.Fatalf("sender stats %+v, want the frame moved", st)
	}
}

// MoveRailKilled: a rail killed between the descriptor and the copy loses
// the frame — the placement aborts, nothing is delivered — and its
// completion still fires once; replayed on the revived rail, the same body
// arrives.
func MoveRailKilled(t *testing.T, tr Transport) {
	_, f := tr.Open(t, 1, 0)
	head, body := moveFrame(256 << 10)
	dst := make([]byte, len(body))
	outcome := make(chan bool, 2)
	dn := f.Node(1).(fabric.DirectNode)
	sunk := make(chan *fabric.Delivery, 2)
	dn.SetSink(func(d *fabric.Delivery) { sunk <- d })
	dn.SetPlacer(placeInto(dst, func() { f.FailRail(0, 0) }, outcome))
	done := newCompletions()
	rail := f.Node(0).Rail(0)
	rail.SendDataV(nil, 1, head, body, done)
	if recvOrFatal(t, "aborted placement", outcome) {
		t.Fatal("a placement on a killed rail committed")
	}
	done.once(t, "move on a killed rail")
	if len(sunk) != 0 {
		t.Fatal("the killed rail's frame was delivered")
	}

	f.Node(0).Health().Enable(0)
	f.Node(1).Health().Enable(0)
	clear(dst)
	dn.SetPlacer(placeInto(dst, nil, outcome))
	replay := newCompletions()
	rail.SendDataV(nil, 1, head, body, replay)
	if !recvOrFatal(t, "replayed placement", outcome) || !bytes.Equal(dst, body) {
		t.Fatal("replayed body not placed intact")
	}
	replay.once(t, "replayed move")
}

// MoveCloseSweeps: bodies whose descriptors the peer has not read when the
// sender closes — its reader is stuck in the sink — are finished by the
// close, each completion once, so no sender waits on a gone fabric. Their
// owner may then reuse them, so the peer, released, delivers none of them:
// it only sees the sender gone.
func MoveCloseSweeps(t *testing.T, tr Transport) {
	f0, f1 := tr.Pair(t, rt.NewLive(), rt.NewLive())
	const n = 4
	var bodies [n][]byte
	release, arrived := make(chan struct{}), make(chan []byte, 8)
	f1.Node(1).(fabric.DirectNode).SetSink(func(d *fabric.Delivery) {
		arrived <- append([]byte(nil), d.Data...)
		if len(d.Data) > 1<<10 {
			<-release // hold the reader: the moves behind this one stay unread
		}
	})
	var unblock sync.Once
	t.Cleanup(func() { unblock.Do(func() { close(release) }) })
	rail := f0.Node(0).Rail(0)
	// The first frame lets the peer probe this side's memory (mmap pairs).
	rail.SendEager(nil, 1, []byte("probe"))
	recvOrFatal(t, "first frame", arrived)

	var dones [n]*completions
	for i := range dones {
		dones[i] = newCompletions()
		var head []byte
		head, bodies[i] = moveFrame(64<<10 + i)
		rail.SendDataV(nil, 1, head, bodies[i], dones[i])
	}
	recvOrFatal(t, "first moved frame", arrived)
	deadline := time.Now().Add(10 * time.Second)
	for rail.Stats().Moved < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d bodies moved", rail.Stats().Moved, n)
		}
		time.Sleep(time.Millisecond)
	}
	if err := f0.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for i, d := range dones {
		d.once(t, fmt.Sprintf("move %d, outstanding at close", i))
	}
	if busy(rail) {
		t.Fatal("closed rail still counts posted bytes")
	}

	// The sender reuses its buffers; the peer's reader moves on.
	for _, b := range bodies {
		for i := range b {
			b[i] = 0xEE
		}
	}
	unblock.Do(func() { close(release) })
	peer := f1.Node(1).Rail(0)
	for deadline := time.Now().Add(10 * time.Second); peer.State() == fabric.RailUp; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the peer never saw the sender close")
		}
	}
	if len(arrived) != 0 {
		got := <-arrived
		t.Fatalf("a body outstanding at close was delivered after it (%d bytes, last byte %#x)", len(got), got[len(got)-1])
	}
	runtime.KeepAlive(&bodies)
}

// MoveSlotsFull: with every move slot busy — the peer's reader is held in
// the sink — a body larger than a quarter of the ring waits for a slot
// rather than stream through the ring, and every body arrives intact once
// the reader goes on. Bodies of twice the pair's 32 KiB rings make the
// quarter, and a slot table of 16 is outrun by the 24 bodies.
func MoveSlotsFull(t *testing.T, tr Transport) {
	f0, f1 := tr.Pair(t, rt.NewLive(), rt.NewLive())
	const n, size = 24, 64 << 10
	release, arrived := make(chan struct{}), make(chan []byte, n+1)
	f1.Node(1).(fabric.DirectNode).SetSink(func(d *fabric.Delivery) {
		arrived <- append([]byte(nil), d.Data...)
		d.Release()
		if len(d.Data) > 1<<10 && len(arrived) == 1 {
			<-release // hold the reader on the first body
		}
	})
	var unblock sync.Once
	t.Cleanup(func() { unblock.Do(func() { close(release) }) })
	rail := f0.Node(0).Rail(0)
	rail.SendEager(nil, 1, []byte("probe"))
	recvOrFatal(t, "first frame", arrived)

	var bodies [n][]byte
	for i := range bodies {
		var head []byte
		head, bodies[i] = moveFrame(size + i)
		rail.SendDataV(nil, 1, head, bodies[i], nil)
	}
	// The held reader lets the slots fill, then the writer waits.
	for deadline := time.Now().Add(10 * time.Second); rail.Stats().Moved < 16; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d bodies moved with the reader held", rail.Stats().Moved)
		}
	}
	unblock.Do(func() { close(release) })
	for i, b := range bodies {
		if got := recvOrFatal(t, fmt.Sprintf("body %d", i), arrived); !bytes.HasSuffix(got, b) {
			t.Fatalf("body %d arrived corrupted (%d bytes)", i, len(got))
		}
	}
	if st := rail.Stats(); st.Moved != n || st.Stalls != 0 {
		t.Fatalf("sender stats %+v, want all %d bodies moved and no stall", st, n)
	}
}

// MoveFloor: a body one byte below the floor streams through the rail, one
// at the floor moves; both arrive intact.
func MoveFloor(t *testing.T, tr Transport) {
	_, f := tr.Open(t, 1, 0)
	sunk := make(chan []byte, 2)
	f.Node(1).(fabric.DirectNode).SetSink(func(d *fabric.Delivery) { sunk <- append([]byte(nil), d.Data...); d.Release() })
	rail := f.Node(0).Rail(0)
	for _, c := range []struct {
		size  int
		moved uint64
	}{{shmnet.MoveFloor - 1, 0}, {shmnet.MoveFloor, 1}} {
		_, body := moveFrame(c.size)
		done := newCompletions()
		rail.SendData(nil, 1, body, done)
		if got := recvOrFatal(t, "frame", sunk); !bytes.Equal(got, body) {
			t.Fatalf("%d-byte body corrupted", c.size)
		}
		done.once(t, "frame at the floor")
		if st := rail.Stats(); st.Moved != c.moved {
			t.Fatalf("after a %d-byte body (floor %d): %d moved, want %d", c.size, shmnet.MoveFloor, st.Moved, c.moved)
		}
	}
}

// recvOrFatal waits for one value, failing the test instead of hanging it.
func recvOrFatal[T any](t *testing.T, what string, ch chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}
