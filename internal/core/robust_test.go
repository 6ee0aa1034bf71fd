package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/rt"
	"repro/internal/wire"
)

// inject hands a raw frame to the engine as if it had arrived from node 0
// on the given rail.
func inject(eng *Engine, rail int, data []byte) {
	eng.dispatch(&fabric.Delivery{From: 0, Rail: rail, Data: data})
}

// Corrupt frames are dropped; the engine keeps serving.
func TestHandlerDropsCorruptFrames(t *testing.T) {
	env, eng := pair(t, Config{})
	var got int
	env.Go("app", func(ctx rt.Ctx) {
		inject(eng[1], 0, []byte{0xFF, 0xFF, 0xFF})                          // short garbage
		inject(eng[1], 0, make([]byte, wire.HeaderSize))                     // kind 0: corrupt
		badEager := wire.AppendControl(nil, wire.KindEager, 0, 0, 1, 1, 999) // count/payload mismatch
		inject(eng[1], 0, badEager)
		ctx.Sleep(time.Millisecond)
		// Normal traffic still flows.
		rr := eng[1].Irecv(0, 1, make([]byte, 16))
		eng[0].Isend(1, 1, []byte("alive"))
		got, _ = rr.Wait(ctx)
	})
	env.Run()
	if got != 5 {
		t.Fatalf("engine wedged after corrupt frames: got %d", got)
	}
}

// A frame whose lengths cannot be honoured is dropped and counted, not
// trusted: a 48-byte chunk of an unannounced message claiming 2^62 bytes
// (trusted, that TotalLen sizes an allocation the progress worker cannot
// make), a chunk whose Offset + length overflows, and an RTS whose length
// does not fit an int. The receiver keeps serving an untouched tag.
func TestHostileLengthsRejected(t *testing.T) {
	reg := metrics.NewRegistry()
	env, eng := pair(t, Config{Metrics: reg})
	var got int
	env.Go("app", func(ctx rt.Ctx) {
		huge := wire.EncodeData(0, 0, 3, 0xF2, 0, []byte("boom"), 1<<62)
		if len(huge) != 48 {
			t.Errorf("hostile frame is %d bytes, want 48", len(huge))
		}
		inject(eng[1], 0, huge)
		inject(eng[1], 1, wire.EncodeData(1, 0, 3, 0xF3, math.MaxInt-1, []byte("wrap"), 8))
		inject(eng[1], 0, wire.AppendControl(nil, wire.KindRTS, 0, 0, 3, 0xF4, 1<<63))
		ctx.Sleep(time.Millisecond)
		rr := eng[1].Irecv(0, 4, make([]byte, 16))
		eng[0].Isend(1, 4, []byte("probe"))
		got, _ = rr.Wait(ctx)
	})
	env.Run()
	if got != 5 {
		t.Fatalf("probe on an untouched tag: got %d bytes, want 5", got)
	}
	st := eng[1].Stats()
	if st.RejectedOversized != 1 || st.RejectedRange != 1 || st.RejectedRTS != 1 || st.Unexpected != 0 {
		t.Fatalf("rejections %d/%d/%d (oversized/range/rts), unexpected %d; want 1/1/1, 0",
			st.RejectedOversized, st.RejectedRange, st.RejectedRTS, st.Unexpected)
	}
	snap := reg.Snapshot()
	for _, reason := range rejectReasons {
		if m := snap.Find("nm_frames_rejected_total", metrics.L("node", "1", "reason", reason)...); m == nil || m.Value != 1 {
			t.Errorf("nm_frames_rejected_total{reason=%q} = %+v, want 1", reason, m)
		}
	}
}

// A CTS for an unknown message id (stale or duplicated) is ignored.
func TestStaleCTSIgnored(t *testing.T) {
	env, eng := pair(t, Config{})
	ok := false
	env.Go("app", func(ctx rt.Ctx) {
		inject(eng[0], 0, wire.AppendControl(nil, wire.KindCTS, 0, 0, 1, 0xDEAD, 0))
		ctx.Sleep(time.Millisecond)
		rr := eng[1].Irecv(0, 1, make([]byte, 256<<10))
		eng[0].Isend(1, 1, make([]byte, 256<<10))
		n, err := rr.Wait(ctx)
		ok = n == 256<<10 && err == nil
	})
	env.Run()
	if !ok {
		t.Fatal("stale CTS disturbed a later rendezvous")
	}
}

// A duplicate chunk (same offset twice) is idempotent: the failover
// path re-sends chunks whose rail died before the ack crossed, so an
// exact replay must neither fail the receive nor complete it early.
func TestDuplicateChunkIsIdempotent(t *testing.T) {
	env, eng := pair(t, Config{})
	var n int
	var rerr error
	buf := make([]byte, 1024)
	env.Go("app", func(ctx rt.Ctx) {
		rr := eng[1].Irecv(0, 1, buf)
		head := wire.EncodeData(0, 0, 1, 0xABC, 0, bytes.Repeat([]byte{'h'}, 512), 1024)
		inject(eng[1], 0, head)
		inject(eng[1], 0, head) // replayed offset 0: ignored
		ctx.Sleep(time.Millisecond)
		if rr.Done().Fired() {
			t.Error("duplicate chunk completed the message early")
		}
		inject(eng[1], 1, wire.EncodeData(1, 0, 1, 0xABC, 512, bytes.Repeat([]byte{'t'}, 512), 1024))
		n, rerr = rr.Wait(ctx)
	})
	env.Run()
	if rerr != nil || n != 1024 {
		t.Fatalf("n=%d err=%v", n, rerr)
	}
	if buf[0] != 'h' || buf[1023] != 't' {
		t.Fatalf("payload corrupted: %q...%q", buf[0], buf[1023])
	}
}

// A chunk replayed after its message completed is dropped instead of
// opening a ghost reassembly that would swallow a later receive.
func TestLateChunkReplayAfterCompletionIgnored(t *testing.T) {
	env, eng := pair(t, Config{})
	env.Go("app", func(ctx rt.Ctx) {
		rr := eng[1].Irecv(0, 1, make([]byte, 8))
		chunk := wire.EncodeData(0, 0, 1, 0x99, 0, []byte("complete"), 8)
		inject(eng[1], 0, chunk)
		if n, err := rr.Wait(ctx); err != nil || n != 8 {
			t.Errorf("first delivery n=%d err=%v", n, err)
		}
		inject(eng[1], 0, chunk) // late replay of the whole unit
		ctx.Sleep(time.Millisecond)
		// A fresh receive must still match fresh traffic, not the ghost.
		rr2 := eng[1].Irecv(0, 1, make([]byte, 16))
		eng[0].Isend(1, 1, []byte("fresh"))
		if n, err := rr2.Wait(ctx); err != nil || n != 5 {
			t.Errorf("post-replay receive n=%d err=%v", n, err)
		}
	})
	env.Run()
	if st := eng[1].Stats(); st.Unexpected != 0 {
		t.Fatalf("replay queued as unexpected: %+v", st)
	}
}

// An unexpected striped message (chunks before any Irecv) reassembles in
// a temporary buffer and matches a late receive.
func TestUnexpectedStripedMessage(t *testing.T) {
	env, eng := pair(t, Config{})
	var got []byte
	env.Go("app", func(ctx rt.Ctx) {
		inject(eng[1], 0, wire.EncodeData(0, 0, 9, 0x77, 4, []byte("tail"), 8))
		inject(eng[1], 1, wire.EncodeData(1, 0, 9, 0x77, 0, []byte("head"), 8))
		ctx.Sleep(time.Millisecond)
		buf := make([]byte, 8)
		rr := eng[1].Irecv(0, 9, buf)
		n, err := rr.Wait(ctx)
		if err != nil {
			t.Error(err)
		}
		got = buf[:n]
	})
	env.Run()
	if string(got) != "headtail" {
		t.Fatalf("got %q", got)
	}
}

// A chunk whose total exceeds the posted buffer errors out cleanly when
// announced via rendezvous.
func TestRdvLargerThanBufferViaRTS(t *testing.T) {
	env, eng := pair(t, Config{})
	var rerr error
	env.Go("app", func(ctx rt.Ctx) {
		rr := eng[1].Irecv(0, 3, make([]byte, 64))
		inject(eng[1], 0, wire.AppendControl(nil, wire.KindRTS, 0, 0, 3, 0x55, 4096))
		_, rerr = rr.Wait(ctx)
	})
	env.Run()
	if rerr == nil {
		t.Fatal("oversized RTS matched a small buffer without error")
	}
}

// The placer's claim discipline, step by step: a placed chunk holds its
// range against replays (which are declined, copied around it and
// parked); when the placement aborts — its rail died mid-body — the
// range is released unmarked and the parked replay fills what it can;
// the rest arrives by a fresh placement. Nothing hangs, nothing is
// marked twice, and no claim is left behind.
func TestPlacementAbortReleasesClaimAndDeliversParkedReplay(t *testing.T) {
	env, eng := pair(t, Config{})
	const total, id, tag = 128 << 10, 0xD1, 5
	payload := make([]byte, total)
	rand.New(rand.NewSource(4)).Read(payload)
	buf := make([]byte, total)
	head := func(off, n int) []byte { return wire.EncodeDataHeader(nil, 0, 0, tag, id, off, n, total) }
	chunk := func(off, n int) []byte { return wire.EncodeData(0, 0, tag, id, off, payload[off:off+n], total) }
	var n int
	var rerr error
	env.Go("app", func(ctx rt.Ctx) {
		rx := eng[1]
		rr := rx.Irecv(0, tag, buf)
		inject(rx, 0, wire.AppendControl(nil, wire.KindRTS, 0, 0, tag, id, total))
		ctx.Sleep(time.Millisecond)

		if d, _ := rx.placeChunk(0, 0, wire.EncodeDataHeader(nil, 0, 0, tag, id+1, 0, 8, 8), 8); d != nil {
			t.Error("chunk of an unannounced message was placed")
		}
		dst, done := rx.placeChunk(0, 0, head(0, 64<<10), 64<<10)
		if len(dst) != 64<<10 || &dst[0] != &buf[0] {
			t.Fatal("fresh rendezvous chunk not placed at its offset in the posted buffer")
		}
		copy(dst, payload[:1000]) // as far as the doomed frame got

		// The sender replans the lost unit; its re-split replay overlaps
		// the range still claimed.
		if d, _ := rx.placeChunk(0, 1, head(32<<10, 64<<10), 64<<10); d != nil {
			t.Error("replay placed over a range in flight")
		}
		inject(rx, 1, chunk(32<<10, 64<<10)) // parks: its missing gap [32K,96K) touches the claim
		inject(rx, 1, chunk(96<<10, 32<<10))
		ctx.Sleep(time.Millisecond)
		if rr.Done().Fired() || rx.InflightClaims() != 1 {
			t.Errorf("before abort: done=%v claims=%d, want pending with 1 claim", rr.Done().Fired(), rx.InflightClaims())
		}

		done.Placed(false)
		if rr.Done().Fired() || rx.InflightClaims() != 0 {
			t.Errorf("after abort: done=%v claims=%d, want pending with no claim", rr.Done().Fired(), rx.InflightClaims())
		}
		if d, _ := rx.placeChunk(0, 1, head(0, 64<<10), 64<<10); d != nil {
			t.Error("partially covered replay was placed: the parked replay did not fill [32K,64K)")
		}
		dst, done = rx.placeChunk(0, 1, head(0, 32<<10), 32<<10)
		if dst == nil {
			t.Fatal("released range not placeable again")
		}
		copy(dst, payload[:32<<10])
		done.Placed(true)
		n, rerr = rr.Wait(ctx)
	})
	env.Run()
	if rerr != nil || n != total || !bytes.Equal(buf, payload) {
		t.Fatalf("n=%d err=%v intact=%v", n, rerr, bytes.Equal(buf, payload))
	}
	if c := eng[1].InflightClaims(); c != 0 {
		t.Fatalf("%d claims left behind", c)
	}
}

// A receive posted while an unexpected striped message is still
// arriving — Irecv finds a partial but nothing complete to match — is
// matched when the last chunk lands instead of waiting forever beside a
// message queued as unexpected. Only an eager message travels
// unannounced, so it is at most the rails' 32 KiB eager limit.
func TestRecvPostedMidUnexpectedStripedMessage(t *testing.T) {
	env, eng := pair(t, Config{})
	const total, id, tag = 32 << 10, 0xE1, 6
	payload := make([]byte, total)
	rand.New(rand.NewSource(5)).Read(payload)
	buf := make([]byte, total)
	chunk := func(off, n int) []byte { return wire.EncodeData(0, 0, tag, id, off, payload[off:off+n], total) }
	var n int
	var rerr error
	env.Go("app", func(ctx rt.Ctx) {
		rx := eng[1]
		inject(rx, 0, chunk(0, total/2))
		ctx.Sleep(time.Millisecond)
		rr := rx.Irecv(0, tag, buf)
		inject(rx, 1, chunk(total/2, total/2))
		n, rerr = rr.Wait(ctx)
	})
	env.Run()
	if rerr != nil || n != total || !bytes.Equal(buf, payload) {
		t.Fatalf("n=%d err=%v intact=%v", n, rerr, bytes.Equal(buf, payload))
	}
	if st := eng[1].Stats(); st.Unexpected != 0 {
		t.Fatalf("message also queued as unexpected: %+v", st)
	}
}

// A replay that reaches past a range in flight is parked whole; when
// that write commits, the replay is delivered again and fills the bytes
// the committed range did not cover.
func TestCommitDeliversParkedReplayPastItsRange(t *testing.T) {
	env, eng := pair(t, Config{})
	const total, id, tag = 128 << 10, 0xF1, 7
	payload := make([]byte, total)
	rand.New(rand.NewSource(6)).Read(payload)
	buf := make([]byte, total)
	var n int
	var rerr error
	env.Go("app", func(ctx rt.Ctx) {
		rx := eng[1]
		rr := rx.Irecv(0, tag, buf)
		inject(rx, 0, wire.AppendControl(nil, wire.KindRTS, 0, 0, tag, id, total))
		ctx.Sleep(time.Millisecond)
		dst, done := rx.placeChunk(0, 0, wire.EncodeDataHeader(nil, 0, 0, tag, id, 0, 64<<10, total), 64<<10)
		if dst == nil {
			t.Fatal("fresh rendezvous chunk not placed")
		}
		inject(rx, 1, wire.EncodeData(1, 0, tag, id, 32<<10, payload[32<<10:], total))
		ctx.Sleep(time.Millisecond)
		if rr.Done().Fired() {
			t.Error("receive completed with a range still in flight")
		}
		copy(dst, payload)
		done.Placed(true)
		n, rerr = rr.Wait(ctx)
	})
	env.Run()
	if rerr != nil || n != total || !bytes.Equal(buf, payload) {
		t.Fatalf("n=%d err=%v intact=%v", n, rerr, bytes.Equal(buf, payload))
	}
}

// The one case where an acknowledged container's frame must not be
// recycled: the unit was replayed, the replay still sits unwritten in
// the survivor rail's queue — aliasing the frame — and the ack that
// retires the unit is the original's. The frame stays untouched (a later
// send gets a different buffer), the replay goes out byte for byte, and
// the receiver drops it as a duplicate. Without the !u.replayed guard in
// onAck the poisoned (then overwritten) frame is what the replay writes.
func TestAckOfOriginalDoesNotRecycleQueuedReplay(t *testing.T) {
	poisonRecycled(t)
	f, eng := stepPair(t, 2)
	tx, rx := f.nodes[0], f.nodes[1]
	payload := make([]byte, 512)
	rand.New(rand.NewSource(8)).Read(payload)
	buf := make([]byte, 512)

	rr := eng[1].Irecv(0, 3, buf)
	sr := eng[0].Isend(1, 3, payload)
	// Both rails have equal profiles: the container takes rail 0.
	original := tx.rails[0].step(t)
	if n, err := rr.Wait(nil); err != nil || n != len(payload) || !bytes.Equal(buf, payload) {
		t.Fatalf("first delivery: n=%d err=%v intact=%v", n, err, bytes.Equal(buf, payload))
	}
	rx.rails[0].queued(t, 1) // the ack is written, not yet delivered

	// Rail 0 dies under the sender before the ack crosses: the unit is
	// replayed onto rail 1, where the frame waits in the queue.
	tx.health.Report(0, fabric.RailDown, "test")
	tx.rails[1].queued(t, 1)
	if st := eng[0].Stats(); st.FailedOver != 1 {
		t.Fatalf("stats %+v, want one failed-over unit", st)
	}

	// The original's ack arrives and retires the unit.
	rx.rails[0].step(t)
	sr.RemoteDone().Wait(nil)
	if out := eng[0].OutstandingUnits(); out != 0 {
		t.Fatalf("%d units outstanding after the ack", out)
	}

	// Another send of the same size class must not land in the frame the
	// queued replay aliases.
	rr2 := eng[1].Irecv(0, 4, make([]byte, 512))
	other := bytes.Repeat([]byte{0xEE}, 512)
	eng[0].Isend(1, 4, other)
	tx.rails[1].queued(t, 2)

	if replay := tx.rails[1].step(t); !bytes.Equal(replay, original) {
		t.Fatalf("the queued replay went out changed (starts % x, original % x): its frame was recycled under it", replay[:4], original[:4])
	}
	tx.rails[1].step(t)
	if n, err := rr2.Wait(nil); err != nil || n != 512 {
		t.Fatalf("second message: n=%d err=%v", n, err)
	}
	// The duplicate container was dropped, not delivered a second time.
	rx.rails[1].queued(t, 2) // its re-ack and the second message's ack
	if st := eng[1].Stats(); st.Unexpected != 0 {
		t.Fatalf("replayed container delivered twice: %+v", st)
	}
}

// A transport reader never waits for a rail, whatever the rail's state:
// with the reverse link backed up and not stepped — one ack fits, no
// other can leave — the reader still takes every container off the
// forward link, delivering inline those whose worker is free, and the
// acks that found no room wait on pool workers, which may block. Once the
// reverse link moves, every receive completes intact (frames poisoned on
// release: one let go early would show), every RemoteDone fires and
// nothing stays outstanding. Mutation tried: acknowledging from dispatch
// with a plain ackUnit blocks the reader on the second container.
func TestReaderNeverBlocksOnBackedUpLink(t *testing.T) {
	poisonRecycled(t)
	f, eng := stepPair(t, 1)
	fwd, rev := f.nodes[0].rails[0], f.nodes[1].rails[0]
	rev.mu.Lock()
	rev.limit = 1
	rev.mu.Unlock()
	const msgs = 24
	rng := rand.New(rand.NewSource(20))
	var payloads, bufs [][]byte
	var recvs []*RecvRequest
	var sends []*SendRequest
	for i := 0; i < msgs; i++ {
		p := make([]byte, 600)
		rng.Read(p)
		payloads, bufs = append(payloads, p), append(bufs, make([]byte, 600))
		recvs = append(recvs, eng[1].Irecv(0, uint32(i), bufs[i]))
		sends = append(sends, eng[0].Isend(1, uint32(i), p))
		fwd.queued(t, i+1) // one container per message
	}

	read := make(chan struct{})
	go func() { // the forward link's reader
		defer close(read)
		for i := 0; i < msgs; i++ {
			fwd.step(t)
		}
	}()
	select {
	case <-read:
	case <-time.After(10 * time.Second):
		t.Fatal("the reader blocked behind a backed-up reverse link")
	}
	// The first container's ack took the link's one slot, the second's
	// waits on a worker; both were delivered before any worker blocked.
	for i := 0; i < 2; i++ {
		if n, err := recvs[i].Wait(nil); err != nil || n != 600 || !bytes.Equal(bufs[i], payloads[i]) {
			t.Fatalf("message %d with no ack able to leave: n=%d err=%v intact=%v", i, n, err, bytes.Equal(bufs[i], payloads[i]))
		}
	}
	if sends[0].RemoteDone().Fired() {
		t.Fatal("a send completed remotely though no ack crossed")
	}

	for i := 0; i < msgs; i++ {
		rev.step(t)
	}
	for i := range recvs {
		if n, err := recvs[i].Wait(nil); err != nil || n != 600 || !bytes.Equal(bufs[i], payloads[i]) {
			t.Fatalf("message %d: n=%d err=%v intact=%v", i, n, err, bytes.Equal(bufs[i], payloads[i]))
		}
		sends[i].RemoteDone().Wait(nil)
	}
	if out, claims := eng[0].OutstandingUnits(), eng[1].InflightClaims(); out != 0 || claims != 0 {
		t.Fatalf("%d units outstanding, %d claims in flight at quiescence", out, claims)
	}
}
