package shmnet

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/rt"
)

// mmapPair attaches two one-rail distributed fabrics in this process over
// ring files, node 0 in fa and node 1 in fb, and collects what node 1
// receives.
func mmapPair(t *testing.T) (fa, fb *Fabric, got chan []byte) {
	t.Helper()
	cfg := Config{Nodes: 2, Rails: 1, Dir: t.TempDir()}
	var ea, eb error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); fa, ea = NewDistributed(rt.NewLive(), 0, cfg) }()
	go func() { defer wg.Done(); fb, eb = NewDistributed(rt.NewLive(), 1, cfg) }()
	wg.Wait()
	if ea != nil || eb != nil {
		t.Fatalf("attach: %v / %v", ea, eb)
	}
	t.Cleanup(func() { fa.Close(); fb.Close() })
	got = make(chan []byte, 4)
	fb.Node(1).(fabric.DirectNode).SetSink(func(d *fabric.Delivery) {
		got <- append([]byte(nil), d.Data...)
		d.Release()
	})
	return fa, fb, got
}

// sendBodies sends a short eager frame — the first frame, on which the
// peer probes this process — then a body above the move floor, and
// checks both arrive intact.
func sendBodies(t *testing.T, fa *Fabric, got chan []byte) {
	t.Helper()
	body := make([]byte, 4*MoveFloor)
	rand.New(rand.NewSource(3)).Read(body)
	rail := fa.Node(0).Rail(0)
	for _, want := range [][]byte{[]byte("probe"), body} {
		rail.SendData(nil, 1, want, nil)
		select {
		case d := <-got:
			if !bytes.Equal(d, want) {
				t.Fatalf("%d-byte frame arrived corrupted", len(want))
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d-byte frame never arrived", len(want))
		}
	}
}

// Across two processes' worth of mmap rings, a body above the floor moves
// once the peer's probe of this process succeeded: copied with
// process_vm_readv, never streamed.
func TestMoveOverMmapRings(t *testing.T) {
	fa, fb, got := mmapPair(t)
	sendBodies(t, fa, got)
	if st := fb.Node(1).Rail(0).Stats(); st.MoveRefused != 0 {
		t.Fatalf("probe refused: %s", st.MoveRefusedReason)
	}
	if st := fa.Node(0).Rail(0).Stats(); st.Moved != 1 {
		t.Fatalf("sender stats %+v, want the large body moved", st)
	}
	if m := fa.Node(0).Rail(0).(fabric.ChunkCapper).MaxChunk(1); m != 0 {
		t.Fatalf("a rail that moves its bodies caps chunks at %d", m)
	}
}

// A peer the probe may not read — here a pid that names no process, the
// same refusal path as Yama's or seccomp's EPERM — is counted once with
// its reason, and that peer's bodies stream through the ring intact; the
// engine plans no chunk above a quarter of the ring on that rail.
func TestMoveRefusedStreamsBodies(t *testing.T) {
	fa, fb, got := mmapPair(t)
	for _, l := range fa.Links(0) {
		l.Transport().(*lane).send.producerPid.Store(1<<22 + 1) // above pid_max
	}
	sendBodies(t, fa, got)
	st := fb.Node(1).Rail(0).Stats()
	if st.MoveRefused != 1 || !strings.Contains(st.MoveRefusedReason, "process_vm_readv") {
		t.Fatalf("receiver stats %+v, want one refusal with its reason", st)
	}
	if st := fa.Node(0).Rail(0).Stats(); st.Moved != 0 || st.Messages != 2 {
		t.Fatalf("sender stats %+v, want both frames streamed", st)
	}
	if m, want := fa.Node(0).Rail(0).(fabric.ChunkCapper).MaxChunk(1), fa.cfg.RingBytes/4; m != want {
		t.Fatalf("a rail that streams its bodies caps chunks at %d, want %d", m, want)
	}
}
