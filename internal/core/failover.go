package core

import (
	"time"

	"repro/internal/fabric"
	"repro/internal/rt"
	"repro/internal/strategy"
	"repro/internal/trace"
	"repro/internal/wire"
)

// This file is the engine half of the rail-health subsystem: every
// transfer unit (eager container, rendezvous or parallel-eager chunk)
// stays registered as outstanding until the receiver acknowledges it,
// and when a rail goes Down — a NIC died mid-message — the engine
// re-plans the unacknowledged units of that rail onto the surviving
// rails by re-invoking the strategy with a filtered rail view. The
// receiver tolerates the resulting duplicates: reassembly ignores
// already-covered ranges and a bounded window of recently seen unit ids
// drops whole-unit replays. Outstanding units live in the unit shards
// (keyed by (peer, unit id) hash), so registration and retirement of
// concurrent flows never contend on one lock.

// seenCap bounds the receiver's duplicate-detection window per engine.
// Replays only happen within a failover window (sender resends as soon
// as the rail dies), so a few thousand ids of memory is ample.
const seenCap = 4096

// ackKey identifies one in-flight transfer unit awaiting its ack.
type ackKey struct {
	id     uint64 // container id (eager) or message id (chunks)
	offset uint64 // chunk offset; 0 for containers
}

// unit is one transfer unit retained until acknowledged: an eager
// container (frame kept verbatim — payloads are copied into the
// container at encode time) or a data chunk (resent from the request's
// buffer). A container's unit is embedded in the first request riding it
// (SendRequest.cont).
type unit struct {
	key      ackKey
	to       int
	rail     int
	sentAt   time.Duration // post time, for the telemetry ack round trip
	replayed bool          // failed over: its ack may belong to the original send

	frame []byte           // eager container frame; nil marks a chunk
	buf   *fabric.Delivery // the pooled buffer behind frame, if it is recycled (Engine.newFrame)
	reqs  *SendRequest     // container: requests riding it, chained by contNext

	req       *SendRequest // chunk: owning request
	off, size int          // chunk location in req.Data
	e         *Engine      // chunk: the engine its local completion reports to (Fire)
}

// Fire is a chunk's local completion (fabric.Completion): the rail no
// longer reads its bytes of the payload. The unit is the completion — a
// heap object the chunk has anyway — so nothing is allocated and no
// goroutine waits for the rail.
//
//railvet:hotpath
func (u *unit) Fire() {
	if u.req.chunkDone() {
		u.e.noteCompleted(u.req, u.e.env.Now())
	}
}

// bytes returns the unit's wire size (telemetry observation weight).
func (u *unit) bytes() int {
	if u.isChunk() {
		return u.size
	}
	return len(u.frame)
}

func (u *unit) isChunk() bool { return u.frame == nil }

// registerContainer records an eager container, sent at sentAt, as
// outstanding until its ack arrives. The unit lives in reqs[0]; reqs is
// not retained.
func (e *Engine) registerContainer(id uint64, to, rail int, buf *fabric.Delivery, frame []byte, reqs []*SendRequest, sentAt time.Duration) {
	for i, r := range reqs {
		r.addAcks(1)
		if i+1 < len(reqs) {
			r.contNext = reqs[i+1]
		}
	}
	u := &reqs[0].cont
	*u = unit{
		key: ackKey{id, 0}, to: to, rail: rail, sentAt: sentAt,
		frame: frame, buf: buf, reqs: reqs[0],
	}
	us := e.unit(to, id)
	us.mu.Lock()
	us.outstanding[u.key] = u
	us.mu.Unlock()
}

// registerChunk records a data chunk (rendezvous or parallel eager),
// sent at sentAt, as outstanding until its ack arrives. u is the caller's
// storage: the chunks of one message share one array.
func (e *Engine) registerChunk(u *unit, req *SendRequest, to, rail, off, size int, sentAt time.Duration) {
	req.addAcks(1)
	*u = unit{key: ackKey{req.msgID, uint64(off)}, to: to, rail: rail, sentAt: sentAt,
		req: req, off: off, size: size, e: e}
	us := e.unit(to, req.msgID)
	us.mu.Lock()
	us.outstanding[u.key] = u
	us.mu.Unlock()
}

// onAck retires an acknowledged unit and advances the owning requests'
// remote completion. from is the acknowledging node — the unit's
// destination. One clock read stamps the ack: the unit's round trip, its
// wire stage and every request it completes share it.
//
//railvet:hotpath
func (e *Engine) onAck(from int, h wire.Header) {
	k := ackKey{h.MsgID, h.Offset}
	us := e.unit(from, h.MsgID)
	us.mu.Lock()
	u := us.outstanding[k]
	delete(us.outstanding, k)
	us.mu.Unlock()
	if u == nil {
		return // duplicate ack, or ack for a unit replanned meanwhile
	}
	now := e.env.Now()
	// The ack round trip is the engine-level transfer measurement: half
	// of it approximates the one-way unit time on the rail it used.
	// Replayed units are excluded: their ack may be the *original*
	// transmission's (which raced the failover), and attributing that to
	// the replacement rail with the resend's timestamp would record a
	// spuriously instant transfer.
	if !u.replayed {
		e.observeUnit(from, u.rail, u.bytes(), u.sentAt, now, !u.isChunk())
		// The stage plane's wire leg: unit post to ack, per unit.
		e.observeStage(stageWireAcked, now-u.sentAt)
	}
	if u.isChunk() {
		if u.req.ackDone() {
			e.noteAcked(u.req, u.rail, now)
		}
		return
	}
	// The ack says the receiver holds the container, so the transport is
	// done reading the frame — unless a replay of it may still sit in
	// another rail's queue (the ack can be the original's): replayed
	// units leave their frame to the GC. Nothing reads u.frame past this
	// point; a stale replan gives up when it finds the unit retired.
	if u.buf != nil && !u.replayed {
		u.buf.Release()
	}
	for r := u.reqs; r != nil; r = r.contNext {
		if r.ackDone() {
			e.noteAcked(r, u.rail, now)
		}
	}
}

// ackUnit acknowledges one received transfer unit to its sender.
// arrival is the rail the unit came in on: the ack returns on it when
// it is still Up, so the sender's round-trip telemetry measures that
// rail alone — routing every ack over one shared rail would add that
// rail's congestion to every other rail's observations. A non-Up
// arrival rail (it may be the one that just died) falls back to the
// first healthy rail.
//
// The ack is encoded into hdr, the caller's scratch (fabrics copy short
// heads at enqueue).
//
//railvet:hotpath
func (e *Engine) ackUnit(ctx rt.Ctx, from int, id, offset uint64, arrival int, hdr *[wire.HeaderSize]byte) {
	rail := e.ackRailFor(arrival)
	e.node.Rail(rail).SendControl(ctx, from, wire.AppendAck(hdr[:0], uint8(rail), uint32(from), id, offset))
}

// ackNow acknowledges a received unit from a goroutine that must not wait
// — the transport reader that decoded or placed it: at once when the
// ack's rail takes the frame without waiting (fabric.TrySender), and
// otherwise from the pool worker key maps to, as ackUnit. h carries the
// unit's MsgID and Offset.
//
//railvet:hotpath
func (e *Engine) ackNow(key uint32, from, arrival int, h wire.Header) {
	w := e.getWork(workAck, from, arrival) // its scratch now, the queued step if the rail refuses
	w.h = h
	rail := e.ackRailFor(arrival)
	if ts, ok := e.node.Rail(rail).(fabric.TrySender); ok &&
		ts.TrySend(from, wire.AppendAck(w.hdr[:0], uint8(rail), uint32(from), h.MsgID, h.Offset)) {
		e.putWork(w)
		return
	}
	e.pool.SubmitWork(key, w)
}

// ackRailFor returns the rail the ack of a unit that came in on arrival
// travels on.
func (e *Engine) ackRailFor(arrival int) int {
	if arrival < 0 || arrival >= e.node.NumRails() || e.node.Rail(arrival).State() != fabric.RailUp {
		return e.ackRail()
	}
	return arrival
}

// ackRail picks the first Up rail (falling back to rail 0 when none is).
func (e *Engine) ackRail() int {
	for i := 0; i < e.node.NumRails(); i++ {
		if e.node.Rail(i).State() == fabric.RailUp {
			return i
		}
	}
	return 0
}

// upViewsFor returns the strictly-Up rail views for a decision about
// one destination: in adaptive mode the live (peer, rail) estimators —
// a rail death is exactly when the current estimates matter most. dest
// -1 keeps the static estimators.
//
//railvet:upfilter
func (e *Engine) upViewsFor(dest int) []strategy.RailView {
	views := e.railViewsFor(dest, e.env.Now())
	up := views[:0]
	for _, v := range views {
		if !v.Down {
			up = append(up, v)
		}
	}
	return up
}

// healthLoop is the engine's rail-health actor: it consumes the node's
// state-transition feed and re-plans in-flight work when rails die (or
// retries stranded work when one comes back).
func (e *Engine) healthLoop(ctx rt.Ctx) {
	for {
		item := e.healthQ.Pop(ctx)
		if item == nil {
			return // Stop
		}
		ev := item.(*fabric.RailEvent)
		now := e.env.Now()
		if e.tele != nil {
			// The usable rail set changed: invalidate every cached plan
			// at once by moving the estimate epoch.
			e.tele.BumpEpoch()
		}
		switch ev.State {
		case fabric.RailDown:
			e.trace(now, trace.RailLost, 0, ev.Rail, 0, ev.Reason)
			e.noteAnomaly(now, "rail down")
			e.replan(ctx)
		case fabric.RailSuspect:
			// A suspected rail — livenet lost its link and is holding
			// the rail through a bounded reconnect — must not strand
			// its in-flight units behind that backoff: move them onto
			// the Up rails now, exactly as a Down would. The receiver's
			// dedup window absorbs any original that still lands.
			e.trace(now, trace.RailLost, 0, ev.Rail, 0, "suspect: "+ev.Reason)
			e.noteAnomaly(now, "rail suspect")
			e.replan(ctx)
		case fabric.RailUp:
			// A recovered rail can carry units stranded while every
			// rail was down.
			e.trace(now, trace.Reconnect, 0, ev.Rail, 0, ev.Reason)
			e.replan(ctx)
		}
	}
}

// replan moves every outstanding unit, pending RTS and pending CTS that
// sits on a non-Up rail onto surviving rails, sweeping all shards. With
// no survivors the work stays put and is retried on the next RailUp
// transition.
func (e *Engine) replan(ctx rt.Ctx) {
	views := e.upViewsFor(-1)
	if len(views) == 0 {
		return
	}
	alive := make(map[int]bool, len(views))
	for _, v := range views {
		alive[v.Index] = true
	}
	var units []*unit
	type rdvResend struct {
		msgID uint64
		p     *pendingRdv
	}
	var rts []rdvResend
	for i := range e.units {
		us := &e.units[i]
		us.mu.Lock()
		for _, u := range us.outstanding {
			if !alive[u.rail] {
				units = append(units, u)
			}
		}
		for id, p := range us.rdvOut {
			if !alive[p.rail] {
				rts = append(rts, rdvResend{id, p})
			}
		}
		us.mu.Unlock()
	}
	type ctsResend struct {
		pk pkey
		pa *partial
	}
	var cts []ctsResend
	for i := range e.flows {
		s := &e.flows[i]
		s.mu.Lock()
		for pk, pa := range s.partials {
			if pa.rdv && !alive[pa.ctsRail] {
				cts = append(cts, ctsResend{pk, pa})
			}
		}
		s.mu.Unlock()
	}
	// Each resend re-plans with its destination's views so adaptive
	// mode places the replay by the live estimates, not the start-up
	// table. One snapshot per destination: a failover storm re-plans
	// hundreds of chunks of one striped message to the same peer.
	byDest := make(map[int][]strategy.RailView)
	viewsFor := func(dest int) []strategy.RailView {
		v, ok := byDest[dest]
		if !ok {
			v = e.upViewsFor(dest)
			byDest[dest] = v
		}
		return v
	}
	for _, u := range units {
		if u.isChunk() {
			e.resendChunk(ctx, u, viewsFor(u.to))
		} else {
			e.resendContainer(ctx, u, viewsFor(u.to))
		}
	}
	for _, r := range rts {
		e.resendRTS(ctx, r.msgID, r.p, viewsFor(r.p.req.To))
	}
	for _, c := range cts {
		e.resendCTS(ctx, c.pk, c.pa, viewsFor(c.pa.from))
	}
}

// resendContainer replays an eager container on the best surviving rail
// that accepts a frame of its size.
func (e *Engine) resendContainer(ctx rt.Ctx, u *unit, views []strategy.RailView) {
	fit := make([]strategy.RailView, 0, len(views))
	for _, v := range strategy.Usable(views) {
		if m := e.node.Rail(v.Index).Caps().MaxMsg; m > 0 && len(u.frame) > m {
			continue
		}
		fit = append(fit, v)
	}
	if len(fit) == 0 {
		return
	}
	now := e.env.Now()
	rail := strategy.BestRail(len(u.frame), now, fit)
	us := e.unit(u.to, u.key.id)
	us.mu.Lock()
	if us.outstanding[u.key] != u {
		us.mu.Unlock()
		return // acked while we were deciding
	}
	u.rail = rail
	u.sentAt = now // the replay's round trip starts now
	u.replayed = true
	us.mu.Unlock()
	for r := u.reqs; r != nil; r = r.contNext {
		r.failedOver.Store(true)
	}
	e.stats.failedOver.Add(1)
	// The frame is resent verbatim: its header rail byte still names
	// the dead rail, but that field is diagnostics-only and the slice
	// may alias an in-flight transport write, so it must not be touched.
	e.trace(now, trace.Resent, u.key.id, rail, len(u.frame), "container failover")
	e.noteAnomaly(now, "unit replay")
	e.node.Rail(rail).SendEager(ctx, u.to, u.frame)
}

// resendChunk re-plans one lost chunk's byte range by re-invoking the
// configured splitter over the surviving rails, registering the
// resulting sub-chunks as fresh outstanding units.
func (e *Engine) resendChunk(ctx rt.Ctx, u *unit, views []strategy.RailView) {
	at := e.env.Now()
	chunks := e.capChunks(u.to, e.cfg.Splitter.Split(u.size, at, views), nil)
	if len(chunks) == 0 {
		return
	}
	us := e.unit(u.to, u.key.id)
	us.mu.Lock()
	if us.outstanding[u.key] != u {
		us.mu.Unlock()
		return // acked while we were deciding
	}
	delete(us.outstanding, u.key)
	newUnits := make([]unit, len(chunks))
	for i, c := range chunks {
		nu := &newUnits[i]
		*nu = unit{key: ackKey{u.key.id, uint64(u.off + c.Offset)}, to: u.to, rail: c.Rail,
			sentAt: at, replayed: true, req: u.req, off: u.off + c.Offset, size: c.Size, e: e}
		us.outstanding[nu.key] = nu
	}
	us.mu.Unlock()
	u.req.failedOver.Store(true)
	e.stats.failedOver.Add(1)
	e.noteAnomaly(at, "unit replay")
	// The old unit's ack slot is retired only after the replacements
	// are counted, so the request's remote completion cannot fire early
	// (ackDone cannot hit zero here, but complete it if it ever did).
	u.req.addAcks(len(newUnits))
	if u.req.ackDone() {
		e.noteAcked(u.req, -1, at)
	}
	var hdr [wire.HeaderSize]byte
	for i := range newUnits {
		nu := &newUnits[i]
		e.trace(at, trace.Resent, u.key.id, nu.rail, nu.size, "chunk failover")
		e.sendChunk(ctx, u.req, nu.rail, nu.off, nu.size, nil, &hdr)
		at = e.env.Now()
	}
}

// resendRTS replays a rendezvous announcement whose rail died before
// the CTS arrived. The receiver answers duplicates idempotently.
func (e *Engine) resendRTS(ctx rt.Ctx, msgID uint64, p *pendingRdv, views []strategy.RailView) {
	now := e.env.Now()
	rail := strategy.BestRail(wire.HeaderSize, now, views)
	us := e.unit(p.req.To, msgID)
	us.mu.Lock()
	if us.rdvOut[msgID] != p {
		us.mu.Unlock()
		return // CTS arrived while we were deciding
	}
	p.rail = rail
	us.mu.Unlock()
	p.req.failedOver.Store(true)
	rts := wire.AppendControl(nil, wire.KindRTS, uint8(rail), e.origin(), p.req.Tag, msgID, uint64(len(p.req.Data)))
	e.trace(now, trace.RTSSent, msgID, rail, len(p.req.Data), "failover")
	e.node.Rail(rail).SendControl(ctx, p.req.To, rts)
}

// resendCTS replays a clear-to-send whose rail died; a duplicate CTS is
// ignored by the sender (rdvOut already cleared).
func (e *Engine) resendCTS(ctx rt.Ctx, pk pkey, pa *partial, views []strategy.RailView) {
	rail := strategy.BestRail(wire.HeaderSize, e.env.Now(), views)
	s := e.flow(pa.from, pa.tag)
	s.mu.Lock()
	if s.partials[pk] != pa {
		s.mu.Unlock()
		return // completed while we were deciding
	}
	pa.ctsRail = rail
	s.mu.Unlock()
	e.sendCTS(ctx, pa.from, rail, pa.tag, pk.id, nil)
}

// OutstandingUnits reports how many transfer units await receiver acks
// (tests and diagnostics).
func (e *Engine) OutstandingUnits() int {
	n := 0
	for i := range e.units {
		us := &e.units[i]
		us.mu.Lock()
		n += len(us.outstanding)
		us.mu.Unlock()
	}
	return n
}
