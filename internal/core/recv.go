package core

import (
	"fmt"
	"math"

	"repro/internal/fabric"
	"repro/internal/progress"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/wire"
)

// partial is a striped message being reassembled: either directly into a
// posted receive buffer (rendezvous) or into a temporary buffer
// (unexpected striped eager). It lives in the flow shard of its
// (sender, tag) pair; the shard lock guards everything but the byte
// writes, which claim disjoint ranges and run outside the lock so
// several writers — transport readers placing bodies straight from the
// ring or socket, workers copying contiguous frames — fill one large
// message in parallel.
//
// A rendezvous' partial lives in its RecvRequest (attachRdv): the receive
// owns one heap object, whatever the message's size.
type partial struct {
	re      wire.Reassembly
	req     *RecvRequest // nil while unexpected
	from    int
	tag     uint32
	buf     []byte
	rdv     bool // announced via RTS (a CTS was sent)
	ctsRail int  // rail the CTS travelled on (replayed if it dies)

	inflight  []wire.Span // ranges being written outside the shard lock
	inflight0 [2]wire.Span
	// parked holds replays whose missing bytes overlapped an in-flight
	// range. They are acknowledged on arrival (the bytes are in receiver
	// memory) and delivered again when a range is released: the write may
	// have aborted — a placement lost with its rail — or covered only
	// part of what the replay carries.
	parked []parkedChunk
}

// parkedChunk is one contiguous chunk frame kept for re-delivery.
type parkedChunk struct {
	h       wire.Header
	payload []byte
}

// claim marks [off, end) in flight when it is an exclusive fresh range:
// entirely missing and touched by no other writer. The claimant writes
// pa.buf[off:end] outside the shard lock, then releases the range and
// Marks it (or, aborting, only releases it).
func (pa *partial) claim(off, end int) bool {
	if !pa.re.Fresh(off, end-off) || pa.overlapsInflight(off, end) {
		return false
	}
	pa.inflight = append(pa.inflight, wire.Span{Off: off, End: end})
	return true
}

// overlapsInflight reports whether [off, end) touches a range another
// writer currently holds.
func (pa *partial) overlapsInflight(off, end int) bool {
	for _, r := range pa.inflight {
		if off < r.End && r.Off < end {
			return true
		}
	}
	return false
}

// release removes one claimed range and hands back the parked replays,
// which the caller delivers again (deliverChunk) once it has dropped the
// shard lock.
func (pa *partial) release(off, end int) []parkedChunk {
	for i, r := range pa.inflight {
		if r.Off == off && r.End == end {
			pa.inflight = append(pa.inflight[:i], pa.inflight[i+1:]...)
			break
		}
	}
	parked := pa.parked
	pa.parked = nil
	return parked
}

// InflightClaims reports how many byte ranges of partially received
// messages a writer holds right now (tests and diagnostics). It returns
// to 0 when traffic quiesces: a claim outliving its writer would make
// every replay of that range park forever.
func (e *Engine) InflightClaims() int {
	n := 0
	for i := range e.flows {
		s := &e.flows[i]
		s.mu.Lock()
		for _, pa := range s.partials {
			n += len(pa.inflight)
		}
		s.mu.Unlock()
	}
	return n
}

// Irecv posts a receive. It never blocks; matching happens against
// queued unexpected messages first. Only the shard of (from, tag) is
// touched — receives for other flows proceed in parallel. The request
// is the receive's one allocation.
//
//railvet:hotpath
func (e *Engine) Irecv(from int, tag uint32, buf []byte) *RecvRequest {
	req := &RecvRequest{From: from, Tag: tag, Buf: buf}
	req.done = e.env.EventAt(&req.doneSlot)
	k := key{from, tag}
	s := e.flow(from, tag)
	s.mu.Lock()
	// 1. A complete unexpected message?
	if m, ok := s.unexpect.pop(k); ok {
		s.matched++
		s.mu.Unlock()
		e.deliverTo(req, m.origin, m.msgID, m.data)
		return req
	}
	// 2. A rendezvous waiting for its buffer?
	if rts, ok := s.rdvQueued.pop(k); ok {
		s.matched++
		empty, err := e.attachRdv(s, req, rts.msgID, rts.total, rts.rail)
		s.mu.Unlock()
		if err != nil {
			req.complete(0, err)
			return req
		}
		if empty {
			req.complete(0, nil)
		}
		e.sendCTS(nil, rts.from, rts.rail, tag, rts.msgID, nil)
		return req
	}
	// 3. Queue the receive.
	s.recvs.push(k, req)
	s.mu.Unlock()
	return req
}

// attachRdv registers a reassembly straight into the posted buffer.
// ctsRail is the rail the CTS will travel on (tracked for replay). The
// caller holds s.mu — the shard owning (req.From, req.Tag) — and must
// complete the request itself when empty is true (zero-length message),
// after releasing the lock.
func (e *Engine) attachRdv(s *flowShard, req *RecvRequest, msgID uint64, total, ctsRail int) (empty bool, err error) {
	if total > len(req.Buf) {
		return false, fmt.Errorf("core: message of %d bytes exceeds receive buffer %d", total, len(req.Buf))
	}
	pa := &req.rdv
	if err := pa.init(msgID, req.Buf, total); err != nil {
		return false, err
	}
	if total == 0 {
		return true, nil
	}
	pa.req, pa.from, pa.tag, pa.rdv, pa.ctsRail = req, req.From, req.Tag, true, ctsRail
	s.partials[pkey{req.From, msgID}] = pa
	return false, nil
}

// init starts the reassembly of an n-byte message into buf, in place: pa
// must not be copied afterwards.
func (pa *partial) init(msgID uint64, buf []byte, n int) error {
	*pa = partial{buf: buf}
	pa.inflight = pa.inflight0[:0]
	return pa.re.Init(msgID, buf, n)
}

// sendCTS answers a rendezvous on the rail the RTS used. The CTS echoes
// the RTS sender's node id (`to`) as the frame origin — the trace id of
// the message it clears belongs to that node.
//
// Who sends it: the caller itself when it may block (a worker handling the
// RTS, the health actor replaying) — encoded into hdr, its scratch, when it
// has one — and one queued work item on the flow's worker when it may not
// (ctx nil: Irecv matching a parked RTS). On a modeled rail the
// handshake's cost occupies whoever sends.
func (e *Engine) sendCTS(ctx rt.Ctx, to, rail int, tag uint32, msgID uint64, hdr *[wire.HeaderSize]byte) {
	if ctx == nil {
		e.submitWork(progress.FlowKey(to, tag), workSendCTS, to, rail, wire.Header{Tag: tag, MsgID: msgID})
		return
	}
	e.traceFrom(e.env.Now(), to, trace.CTSSent, msgID, rail, 0, "")
	var cts []byte
	if hdr != nil {
		cts = hdr[:0]
	}
	cts = wire.AppendControl(cts, wire.KindCTS, uint8(rail), uint32(to), tag, msgID, 0)
	e.node.Rail(rail).SendControl(ctx, to, cts)
	e.settle(ctx, rail)
}

// dispatch is the engine's progression path: it classifies one delivery
// and decides, step by step, who runs the engine work. It runs on the
// transport's reader goroutine — on the simulator, at the virtual instant
// the frame lands — and never blocks.
//
// The rule is rt's: a handler has no Ctx and cannot block, an actor has
// one and may. The steps that send nothing — deliverEager (match, copy at
// most an eager payload, fire) and onAck (retire, release the frame, fire)
// — are handler steps (work.Handle): the reader runs them itself when the
// step's worker is idle with an empty queue, taking that worker's turn
// (progress.Pool.Handle), and queues them otherwise. The steps that send
// on a rail — chunk + ack, RTS → CTS, CTS → chunks — take a Ctx and always
// go to a pool worker (work.Do). The ack of a container is the one send a
// reader makes, and only through fabric.TrySender, which refuses instead
// of waiting (ackNow). Keys are what they always were — eager packets and
// RTS on their flow's worker, same flow, same worker, same order, so
// matching order is preserved per (source, tag) whoever runs the step;
// data chunks spread across workers by offset (reassembly accepts any
// order — this is the parallel striped copy); CTS and acks on the owning
// unit's worker.
//
// It also decides what becomes of the frame: a control frame is released
// as soon as its header is decoded; an eager container when its last
// packet has been delivered (work.Handle), on whichever goroutine that
// was; a chunk frame never — a parked replay may keep its payload.
//
// A modeled delivery's receive costs ride on its steps: RecvCPU on the
// first, CopyCPU on the last (work.Do). Such steps are always queued, since
// only a worker has a Ctx to charge them with.
//
//railvet:hotpath
func (e *Engine) dispatch(d *fabric.Delivery) {
	h, _, err := wire.DecodeHeader(d.Data)
	if err != nil {
		return
	}
	// Nothing of d may be read once the item that may release it has been
	// handed over — it may already have run, here or on a worker. The packet
	// walk below is safe: the frame lives until its last packet's item ran,
	// and that item does not exist before the walk has produced it.
	from, rail, recv, cp := d.From, d.Rail, d.RecvCPU, d.CopyCPU
	switch h.Kind {
	case wire.KindEager:
		_, pkts, err := wire.ScanEager(d.Data)
		if err != nil {
			return
		}
		var own *work
		if h.MsgID == 0 || e.seen.Mark(from, h.MsgID) {
			left := int(h.Count)
			for p, ok := pkts.Next(); ok; p, ok = pkts.Next() {
				w := e.getWork(workEager, from, rail)
				w.h.Origin, w.p = h.Origin, p
				if own == nil {
					own, w.frame = w, d
					w.left.Store(int32(left))
					w.recvCPU = recv
				}
				if left--; left == 0 {
					w.copyCPU = cp
				}
				w.share = own
				e.step(progress.FlowKey(from, p.Tag), w)
			}
		} else {
			e.traceFrom(e.env.Now(), int(h.Origin), trace.ReplayedDelivery, h.MsgID, rail,
				int(h.TotalLen), "eager container replay dropped")
		}
		if own == nil {
			d.Release() // dropped replay (or an empty container): nothing aliases it
		}
		if h.MsgID != 0 {
			// The container is safely in receiver memory (its packets are
			// delivered, or queued on in-process workers), so it can no
			// longer be lost to a dying rail: ack now.
			e.ackNow(progress.UnitKey(from, h.MsgID), from, rail, wire.Header{MsgID: h.MsgID})
		}
	case wire.KindData:
		hdr, payload, err := wire.DecodeData(d.Data)
		if err != nil {
			return
		}
		w := e.getWork(workChunk, from, rail)
		w.h, w.p.Payload, w.recvCPU, w.copyCPU = hdr, payload, recv, cp
		e.pool.SubmitWork(progress.ChunkKey(from, hdr.Tag, hdr.Offset), w)
	case wire.KindRTS:
		d.Release()
		w := e.getWork(workRTS, from, int(h.Rail))
		w.h, w.recvCPU, w.copyCPU = h, recv, cp
		e.pool.SubmitWork(progress.FlowKey(from, h.Tag), w)
	case wire.KindCTS:
		d.Release()
		w := e.getWork(workCTS, from, rail)
		w.h, w.recvCPU, w.copyCPU = h, recv, cp
		e.pool.SubmitWork(progress.UnitKey(from, h.MsgID), w)
	case wire.KindAck:
		d.Release()
		w := e.getWork(workOnAck, from, rail)
		w.h, w.recvCPU, w.copyCPU = h, recv, cp
		e.step(progress.UnitKey(from, h.MsgID), w)
	}
}

// step hands a step that cannot block to the pool (progress.Pool.Handle),
// unless it carries modeled receive costs: charging those takes a worker's
// Ctx.
//
//railvet:hotpath
func (e *Engine) step(key uint32, w *work) {
	if w.recvCPU|w.copyCPU != 0 {
		e.pool.SubmitWork(key, w)
		return
	}
	e.pool.Handle(key, w)
}

// deliverEager matches one complete logical packet under its flow's
// shard lock. origin is the submitting node from the container header
// (the trace id's node half — equal to `from` on today's unrouted
// fabrics, but the header is authoritative). When it returns the payload
// has been copied — into the posted buffer or into an unexpected message
// — and the caller may release the container's frame.
//
//railvet:hotpath
func (e *Engine) deliverEager(from, origin int, p wire.Packet) {
	k := key{from, p.Tag}
	s := e.flow(from, p.Tag)
	s.mu.Lock()
	if req, ok := s.recvs.pop(k); ok {
		s.matched++
		s.mu.Unlock()
		e.deliverTo(req, origin, p.MsgID, p.Payload)
		return
	}
	data := append([]byte(nil), p.Payload...) // the container's frame is recycled
	s.unexpect.push(k, &message{msgID: p.MsgID, origin: origin, data: data})
	s.unexpected++
	s.mu.Unlock()
	e.stats.unexpected.Add(1)
}

// placeChunk is the engine's fabric.Placer: a transport reader holding
// the head of a head+body frame asks where the body goes. A rendezvous
// chunk whose range can be claimed in the posted receive buffer is
// placed there — the reader fills req.Buf straight from the ring, the
// socket or the sender's buffer, the only copy on the receive side — and
// committed by the returned work item (work.Placed, recycled, so a placed
// chunk allocates nothing): Mark, complete the request if that was the
// last byte, acknowledge the unit from a pool worker (the reader never
// blocks on a rail send). Everything else is declined and arrives as a
// contiguous frame through dispatch: chunks of unknown messages (late replays,
// unexpected striped eager), duplicate or partially covered ranges,
// ranges another writer holds.
//
// An aborted placement (the frame was lost with its rail mid-body) only
// releases its claim: nothing was marked, the sender's unacknowledged
// unit is replayed, and whatever the lost frame already wrote into
// req.Buf is harmless — the replay rewrites the same bytes from the
// sender's one buffer. Replays parked while the claim was held are
// delivered again on either outcome.
func (e *Engine) placeChunk(from, rail int, head []byte, n int) ([]byte, fabric.Placed) {
	h, rest, err := wire.DecodeHeader(head)
	if err != nil || h.Kind != wire.KindData || len(rest) != 0 || h.ChunkLen != uint64(n) {
		return nil, nil
	}
	off, end, fits := chunkRange(h, n)
	if !fits {
		return nil, nil // the contiguous path counts and drops it
	}
	s := e.flow(from, h.Tag)
	s.mu.Lock()
	pa := s.partials[pkey{from, h.MsgID}]
	ok := pa != nil && end <= pa.re.Total() && pa.claim(off, end)
	s.mu.Unlock()
	if !ok {
		return nil, nil
	}
	w := e.getWork(workPlaced, from, rail) // the commit: recycled, not a closure per chunk
	w.h, w.pa = h, pa
	return pa.buf[off:end], w
}

// Placed commits or aborts a placement placeChunk accepted (fabric.Placed)
// and recycles the item.
func (w *work) Placed(filled bool) {
	e, pa, h, from := w.e, w.pa, w.h, w.from
	off, n := int(h.Offset), int(h.ChunkLen)
	s := e.flow(from, h.Tag)
	s.mu.Lock()
	parked := pa.release(off, off+n)
	var req *RecvRequest
	if filled {
		pa.re.Mark(off, n)
		req = e.retire(s, pa, from, h)
	}
	s.mu.Unlock()
	if req != nil {
		e.completeRecv(req, pa, h)
	}
	for _, p := range parked {
		e.deliverChunk(from, p.h, p.payload)
	}
	if filled {
		e.ackNow(progress.ChunkKey(from, h.Tag, h.Offset), from, w.rail, h)
	}
	e.putWork(w)
}

// chunkRange returns the byte range [off, end) of a chunk of n bytes at
// h.Offset, and false when the range does not fit an int — a peer's
// Offset is untrusted, and a wrapped end would index backwards.
func chunkRange(h wire.Header, n int) (off, end int, fits bool) {
	if h.Offset > uint64(math.MaxInt-n) {
		return 0, 0, false
	}
	return int(h.Offset), int(h.Offset) + n, true
}

// reject counts a frame from a peer dropped before the engine acted on it.
func (e *Engine) reject(reason int) { e.stats.rejected[reason].Add(1) }

// deliverChunk routes a contiguous chunk frame into its reassembly,
// creating an unexpected one on first contact if no rendezvous
// pre-registered it. It is the path of every chunk the placer did not
// take (and of all chunks on fabrics without one).
//
// The byte copy of a claimed range runs OUTSIDE the shard lock, so
// chunks of one large message arriving on different rails are copied
// into the receive buffer by several workers at once. Overlapping
// ranges (failover replays, which re-split a lost chunk's range) copy
// only their still-missing, unclaimed bytes under the lock; the
// overlapped bytes are identical on every copy, all originating from
// the sender's one buffer. A replay whose missing bytes touch a range in
// flight is parked until a range is released (see partial.parked).
func (e *Engine) deliverChunk(from int, h wire.Header, payload []byte) {
	off, end, fits := chunkRange(h, len(payload))
	if !fits {
		e.reject(rejectRange)
		return
	}
	k := key{from, h.Tag}
	pk := pkey{from, h.MsgID}
	s := e.flow(from, h.Tag)
	s.mu.Lock()
	pa := s.partials[pk]
	if pa == nil {
		if e.seen.Seen(from, h.MsgID) {
			// Late replay of a chunk whose message already completed
			// (the ack raced a rail failure): drop it — the handler
			// still re-acks the unit.
			s.mu.Unlock()
			e.traceFrom(e.env.Now(), int(h.Origin), trace.ReplayedDelivery, h.MsgID, -1,
				len(payload), "chunk replay dropped")
			return
		}
		// Unexpected striped eager message: reassemble into a temporary
		// buffer, matching a posted receive if one exists. Only an eager
		// message travels unannounced, so a longer one is a corrupt or
		// hostile frame, not a buffer to allocate.
		if e.eagerCap > 0 && h.TotalLen > e.eagerCap {
			s.mu.Unlock()
			e.reject(rejectOversized)
			return
		}
		pa = new(partial)
		if err := pa.init(h.MsgID, make([]byte, h.TotalLen), int(h.TotalLen)); err != nil {
			s.mu.Unlock()
			return
		}
		pa.from, pa.tag = from, h.Tag
		if req, ok := s.recvs.pop(k); ok {
			pa.req = req
			s.matched++
		}
		s.partials[pk] = pa
	}
	if end > pa.re.Total() {
		s.mu.Unlock()
		if pa.req != nil {
			pa.req.complete(0, fmt.Errorf("wire: chunk [%d,%d) outside message of %d bytes", off, end, pa.re.Total()))
		}
		return
	}
	var parked []parkedChunk
	if pa.claim(off, end) {
		// Exclusive fresh range: the parallel striped copy.
		s.mu.Unlock()
		copy(pa.buf[off:end], payload)
		s.mu.Lock()
		parked = pa.release(off, end)
		pa.re.Mark(off, len(payload))
	} else {
		// Duplicate or partially covered range: copy only the missing
		// bytes no other writer holds, under the lock.
		park := false
		for _, g := range pa.re.Missing(off, len(payload)) {
			if pa.overlapsInflight(g.Off, g.End) {
				park = true // the overlapped bytes are being written; retry on release
				continue
			}
			copy(pa.buf[g.Off:g.End], payload[g.Off-off:g.End-off])
			pa.re.Mark(g.Off, g.End-g.Off)
		}
		if park {
			pa.parked = append(pa.parked, parkedChunk{h, payload})
		}
	}
	req := e.retire(s, pa, from, h)
	s.mu.Unlock()
	if req != nil {
		e.completeRecv(req, pa, h)
	}
	for _, p := range parked {
		e.deliverChunk(from, p.h, p.payload)
	}
}

// retire removes a fully received partial from its shard. The caller
// holds s.mu and, once it released the lock, completes the returned
// receive with completeRecv; nil means bytes are still missing or the
// message was queued as unexpected.
func (e *Engine) retire(s *flowShard, pa *partial, from int, h wire.Header) *RecvRequest {
	if !pa.re.Done() {
		return nil
	}
	delete(s.partials, pkey{from, h.MsgID})
	e.seen.Mark(from, h.MsgID)
	if pa.req == nil {
		k := key{from, h.Tag}
		if req, ok := s.recvs.pop(k); ok {
			// A receive posted while the unexpected message was still
			// arriving: Irecv found nothing complete to match, so the
			// match happens here, in completion order.
			pa.req = req
			s.matched++
			return pa.req
		}
		// Completed with no posted receive: queue as unexpected.
		s.unexpect.push(k, &message{msgID: h.MsgID, origin: int(h.Origin), data: pa.buf})
		s.unexpected++
		e.stats.unexpected.Add(1)
	}
	return pa.req
}

// completeRecv finishes the receive a retired partial was matched to.
func (e *Engine) completeRecv(req *RecvRequest, pa *partial, h wire.Header) {
	if req.Buf != nil && len(pa.buf) > 0 && &req.Buf[0] == &pa.buf[0] {
		// Rendezvous path: bytes already in place.
		e.traceFrom(e.env.Now(), int(h.Origin), trace.Delivered, h.MsgID, -1, pa.re.Received(), "rendezvous")
		req.complete(pa.re.Received(), nil)
		return
	}
	e.deliverTo(req, int(h.Origin), h.MsgID, pa.buf[:pa.re.Received()])
}

// handleRTS matches a rendezvous announcement against posted receives.
// Duplicate announcements — the sender replays its RTS when the rail it
// travelled on dies before the CTS returns — are answered idempotently
// instead of matching a second receive. hdr is the caller's scratch for
// the CTS (see sendCTS).
func (e *Engine) handleRTS(ctx rt.Ctx, from, rail int, h wire.Header, hdr *[wire.HeaderSize]byte) {
	if h.TotalLen > math.MaxInt {
		e.reject(rejectRTSLength)
		return
	}
	k := key{from, h.Tag}
	pk := pkey{from, h.MsgID}
	s := e.flow(from, h.Tag)
	s.mu.Lock()
	if e.seen.Seen(from, h.MsgID) {
		// Replay of an RTS whose message already completed (a delayed
		// duplicate from the failover path): matching it against a
		// fresh receive would hang that receive forever — the sender
		// ignores the CTS of a rendezvous it already finished.
		s.mu.Unlock()
		return
	}
	if pa := s.partials[pk]; pa != nil && pa.rdv {
		// Already matched: the first CTS (or the rail it used) was
		// lost. Answer again on the replay's rail, which the sender
		// chose among its survivors.
		pa.ctsRail = rail
		s.mu.Unlock()
		e.sendCTS(ctx, from, rail, h.Tag, h.MsgID, hdr)
		return
	}
	for _, qd := range s.rdvQueued.pending(k) {
		if qd.msgID == h.MsgID {
			qd.rail = rail // still unmatched: just note the fresher rail
			s.mu.Unlock()
			return
		}
	}
	if req, ok := s.recvs.pop(k); ok {
		s.matched++
		empty, err := e.attachRdv(s, req, h.MsgID, int(h.TotalLen), rail)
		s.mu.Unlock()
		if err != nil {
			req.complete(0, err)
			return
		}
		if empty {
			req.complete(0, nil)
		}
		e.sendCTS(ctx, from, rail, h.Tag, h.MsgID, hdr)
		return
	}
	// No receive yet: the announcement parks, and counts as unexpected like
	// any message that arrived first.
	s.rdvQueued.push(k, &queuedRTS{msgID: h.MsgID, total: int(h.TotalLen), rail: rail, from: from})
	s.unexpected++
	s.mu.Unlock()
	e.stats.unexpected.Add(1)
}

// deliverTo copies a complete payload into the request's buffer and
// completes it. origin attributes the Delivered event to the sender's
// trace id.
func (e *Engine) deliverTo(req *RecvRequest, origin int, msgID uint64, data []byte) {
	if len(data) > len(req.Buf) {
		req.complete(0, fmt.Errorf("core: message of %d bytes exceeds receive buffer %d", len(data), len(req.Buf)))
		return
	}
	copy(req.Buf, data)
	e.traceFrom(e.env.Now(), origin, trace.Delivered, msgID, -1, len(data), "")
	req.complete(len(data), nil)
}
