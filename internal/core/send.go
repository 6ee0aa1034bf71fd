package core

import (
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/progress"
	"repro/internal/rt"
	"repro/internal/strategy"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Isend submits a message. It never blocks and does no engine work on
// the caller's goroutine: the request joins its destination's submit
// queue and a progress worker — activated like NewMadeleine's scheduler
// when an eager packet is about to be emitted — plans and executes the
// flush, aggregating whatever accumulated for that destination. The
// request is the send's one allocation.
//
//railvet:hotpath
func (e *Engine) Isend(to int, tag uint32, data []byte) *SendRequest {
	req := &SendRequest{To: to, Tag: tag, Data: data}
	req.done, req.acked = e.env.EventAt(&req.doneSlot), e.env.EventAt(&req.ackedSlot)
	req.msgID = e.newID()
	req.submitAt = e.env.Now()
	e.trace(req.submitAt, trace.Submit, req.msgID, -1, len(data), "")
	e.sub.Put(to, req)
	return req
}

// IsendV submits a gather vector as one logical message. Single-segment
// vectors pass through zero-copy; multi-segment vectors are gathered at
// submission. (On rails with hardware gather/scatter the copy could be
// elided, but the eager framing of the transfer layer copies payloads
// regardless — the same trade-off the MX driver makes.)
func (e *Engine) IsendV(to int, tag uint32, v wire.IOVec) *SendRequest {
	var data []byte
	switch len(v) {
	case 0:
	case 1:
		data = v[0]
	default:
		data = v.Gather()
	}
	return e.Isend(to, tag, data)
}

// flushDest drains one destination's submit queue on a progress worker:
// eager packets become one batch, sent by the configured policy, and large
// messages start their rendezvous handshakes. It runs with no queue or
// shard lock held — a rail write that blocks inside stalls only this
// destination's worker, never the callers and never other destinations
// (see the slow-rail regression test). Flushes of one destination are
// serialised, which is what lets every slice it needs come from sc, the
// scratch the submitter keeps with the destination's queue.
//
//railvet:hotpath
func (e *Engine) flushDest(ctx rt.Ctx, to int, batch []*SendRequest, sc *destScratch) {
	thr := e.EagerThresholdTo(to)
	eagers := sc.eagers[:0]
	for _, r := range batch {
		if len(r.Data) <= thr {
			eagers = append(eagers, r)
			continue
		}
		e.startRendezvous(ctx, r, sc)
	}
	switch {
	case len(eagers) == 0:
	case e.cfg.Eager == PolicyGreedy:
		e.sendEagerGreedy(ctx, to, eagers, sc)
	default:
		e.sendEagerAggregate(ctx, to, eagers, sc)
	}
	clear(eagers) // scratch must not keep requests alive
	sc.eagers = eagers[:0]
}

// sendEagerGreedy is the Fig 3 baseline: each packet goes, whole, in a
// container of its own to the rail predicted idle first; PIO copies
// serialise on this core.
func (e *Engine) sendEagerGreedy(ctx rt.Ctx, to int, batch []*SendRequest, sc *destScratch) {
	sizes := make([]int, len(batch))
	for i, r := range batch {
		sizes[i] = len(r.Data)
	}
	at := e.env.Now()
	sc.views = e.appendRailViews(sc.views[:0], to, at)
	assign := strategy.AssignGreedy(sizes, at, sc.views)
	for i := range batch {
		at = e.emitContainer(ctx, to, assign[i], batch[i:i+1], at, sc)
	}
}

// sendEagerAggregate is the paper's strategy: pack the batch into
// containers on the fastest available rail; a single medium-sized packet
// may instead be split across rails and submitted from parallel cores.
// Rails are picked against the flush's first stamp, now.
//
//railvet:hotpath
func (e *Engine) sendEagerAggregate(ctx rt.Ctx, to int, batch []*SendRequest, sc *destScratch) {
	now := e.env.Now()
	sc.views = e.appendRailViews(sc.views[:0], to, now)
	rails := sc.views
	if len(batch) == 1 && e.cfg.EagerParallel {
		r := batch[0]
		// Under telemetry the views are live, so the prediction follows
		// what the wire currently delivers.
		if plan := strategy.PlanEager(len(r.Data), now, rails, e.pool.Idle(), model.OffloadSyncCost); plan.Parallel {
			e.sendEagerParallel(r, to, plan, now)
			return
		}
	}
	at := now
	// Fill containers up to the chosen rail's eager limit, fastest rail
	// first ("aggregate the messages and send them over the fastest
	// available network").
	i := 0
	for i < len(batch) {
		// Pick the rail for the first packet, then fill while it fits.
		// Zero-length packets still travel as (empty) containers, so pick
		// the rail as if they carried one byte.
		first := i
		pickSize := len(batch[first].Data)
		if pickSize == 0 {
			pickSize = 1
		}
		rail, probe := e.pickEagerRail(pickSize, now, rails, sc)
		if probe {
			e.trace(at, trace.Decision, 0, rail, pickSize, "probe: eager rail")
		}
		limit := e.profiles[rail].EagerMax
		for size := wire.HeaderSize; i < len(batch); i++ {
			size += wire.EntrySize(len(batch[i].Data))
			if limit > 0 && size > limit && i > first {
				break
			}
		}
		at = e.emitContainer(ctx, to, rail, batch[first:i], at, sc)
	}
}

// emitContainer sends group's packets to `to` as one eager container on
// rail, decided at `at` — the stamp the decision, the unit's send time and
// the EagerSent event share — and returns the clock reading it takes after
// the send: the stamp of the group's enqueue and completion stages, and
// the next container's decision stamp. Both eager policies send through it.
func (e *Engine) emitContainer(ctx rt.Ctx, to, rail int, group []*SendRequest, at time.Duration, sc *destScratch) time.Duration {
	pkts := sc.pkts[:0]
	size, total := wire.HeaderSize, 0
	for _, r := range group {
		pkts = append(pkts, wire.Packet{Tag: r.Tag, MsgID: r.msgID, Payload: r.Data})
		size += wire.EntrySize(len(r.Data))
		total += len(r.Data)
	}
	cid := e.newID()
	buf, frame := e.newFrame(size)
	frame = wire.AppendEagerID(frame, e.origin(), cid, uint8(rail), pkts)
	clear(pkts) // scratch must not keep payloads alive
	sc.pkts = pkts[:0]
	for _, r := range group {
		r.addPending(1)
		e.noteDecision(r, at)
	}
	e.registerContainer(cid, to, rail, buf, frame, group, at)
	agg, note := 0, ""
	if len(group) > 1 {
		agg, note = len(group), "aggregated"
	}
	e.trace(at, trace.EagerSent, group[0].msgID, rail, total, note)
	// Stats before the transport enqueue: the receiver's ack can fire
	// RemoteDone before this worker resumes, and a counter that lags
	// remote completion reads as a lost message to an observer.
	e.bumpEager(len(group), agg, 0, total)
	e.node.Rail(rail).SendEager(ctx, to, frame)
	e.settle(ctx, rail)
	at = e.env.Now()
	for _, r := range group {
		e.noteEnqueued(r, at)
		if r.chunkDone() {
			e.noteCompleted(r, at)
		}
	}
	return at
}

// pickEagerRail chooses an eager container's rail: normally the single
// best by current estimate. In adaptive mode every probeEvery()-th
// container instead rotates over the other usable rails — the
// eager-path analogue of the rendezvous iso probe. Without it a wrong
// estimate is self-sustaining: the argmin never places small traffic on
// the rails it dislikes, so they never produce the small-size
// observations that would rehabilitate them (a freshly warmed shm rail
// whose fit was extrapolated from large transfers, say).
//
// Candidates are restricted to rails whose EagerMax admits the payload:
// on a heterogeneous set the flush threshold is the max over usable
// rails, so a size can be eager-eligible overall yet oversized for an
// individual rail's PIO regime — shipping it there would violate that
// rail's contract. If no usable rail admits it (a health transition
// raced the flush decision), the unfiltered pick stands: the container
// is tolerated oversized, exactly as before rails were heterogeneous.
//
// probe reports a probe pick, which the caller records as a Decision.
func (e *Engine) pickEagerRail(n int, now time.Duration, rails []strategy.RailView, sc *destScratch) (rail int, probe bool) {
	fit := sc.fit[:0]
	anyUp := false
	//railvet:ignore railup size-prefilter only: anyUp tracks health and BestRail applies the Usable rule itself, with the all-down fallback documented above
	for _, v := range rails {
		if v.EagerMax == 0 || n <= v.EagerMax {
			fit = append(fit, v)
			anyUp = anyUp || !v.Down
		}
	}
	sc.fit = fit[:0]
	if !anyUp {
		fit = rails
	}
	best := strategy.BestRail(n, now, fit)
	pe := e.probeEvery()
	if pe == 0 {
		return best, false
	}
	c := e.eagerCount.Add(1)
	if c%uint64(pe) != 0 {
		return best, false
	}
	usable := strategy.Usable(fit)
	if len(usable) <= 1 {
		return best, false
	}
	rail = usable[int(c/uint64(pe))%len(usable)].Index
	if rail == best {
		rail = usable[int(c/uint64(pe)+1)%len(usable)].Index
	}
	return rail, true
}

// sendEagerParallel executes a parallel eager plan (Fig 7): each chunk is
// registered in the to-be-sent list of a different core — chunk i goes to
// the i-th pool worker after the flushing one — which performs the PIO
// copy on its own NIC after the offload synchronisation delay
// (model.OffloadSyncCost, the paper's 3 µs). The submitting core returns
// immediately — "the application can then resume its computation". at is
// the flush's decision stamp.
func (e *Engine) sendEagerParallel(r *SendRequest, to int, plan strategy.EagerPlan, at time.Duration) {
	e.noteDecision(r, at)
	r.addPending(len(plan.Chunks))
	// Register every chunk before the first chunk task can run: a chunk
	// delivered and acked while its siblings are still being encoded
	// must not fire RemoteDone early.
	units := make([]unit, len(plan.Chunks))
	for i, c := range plan.Chunks {
		e.registerChunk(&units[i], r, to, c.Rail, c.Offset, c.Size, at)
	}
	e.trace(at, trace.Decision, r.msgID, -1, len(r.Data),
		fmt.Sprintf("parallel eager: %d chunks, predicted %v", len(plan.Chunks), plan.Predicted))
	// Stats before the chunks can be posted: an offloaded chunk's ack can
	// fire RemoteDone before this worker resumes (the same ordering as
	// emitContainer's).
	e.bumpEager(1, 0, 1, len(r.Data))
	for i, c := range plan.Chunks {
		frame := wire.EncodeData(uint8(c.Rail), e.origin(), r.Tag, r.msgID, c.Offset,
			r.Data[c.Offset:c.Offset+c.Size], len(r.Data))
		e.trace(at, trace.OffloadStart, r.msgID, c.Rail, c.Size, "")
		e.pool.Submit(progress.DestKey(to)+uint32(i)+1, progress.Task{
			Name: "eager-chunk",
			Run: func(ctx rt.Ctx) {
				ctx.Sleep(model.OffloadSyncCost)
				e.node.Rail(c.Rail).SendEager(ctx, to, frame)
				e.settle(ctx, c.Rail)
				if r.chunkDone() {
					at := e.env.Now() // the last offloaded copy was posted
					e.noteEnqueued(r, at)
					e.noteCompleted(r, at)
				}
			},
		})
	}
}

// sendChunk posts bytes [off, off+size) of r as one head+body frame: a
// freshly encoded chunk header and the payload aliased where it lies in
// r.Data — first sends and failover replays alike assemble no frame.
// done (may be nil) fires when the rail no longer reads the payload.
// The header is encoded into hdr, the caller's scratch: fabrics copy a
// short head at enqueue, so hdr is free again when sendChunk returns.
func (e *Engine) sendChunk(ctx rt.Ctx, r *SendRequest, rail, off, size int, done fabric.Completion, hdr *[wire.HeaderSize]byte) {
	head := wire.EncodeDataHeader(hdr[:0], uint8(rail), e.origin(), r.Tag, r.msgID, off, size, len(r.Data))
	e.node.Rail(rail).SendDataV(ctx, r.To, head, r.Data[off:off+size], done)
	e.settle(ctx, rail)
}

// settle closes the window between choosing a rail and registering the
// unit posted on it: a rail that died in between was swept by replan
// before the unit existed, the dead link swallowed the frame, and no
// further health event would ever move it. Registration happens before
// this check and the state flips before replan's sweep, so one of the
// two always sees the unit.
func (e *Engine) settle(ctx rt.Ctx, rail int) {
	if e.node.Rail(rail).State() != fabric.RailUp {
		e.replan(ctx)
	}
}

func (e *Engine) bumpEager(sent, agg, par, bytes int) {
	e.stats.eagerSent.Add(uint64(sent))
	e.stats.eagerAggregated.Add(uint64(agg))
	e.stats.eagerParallel.Add(uint64(par))
	e.stats.bytesSent.Add(uint64(bytes))
}

// startRendezvous sends the RTS on the best small-message rail and parks
// the request until the CTS arrives. The rail is remembered so the RTS
// can be replayed if it dies before the CTS comes back.
func (e *Engine) startRendezvous(ctx rt.Ctx, r *SendRequest, sc *destScratch) {
	now := e.env.Now()
	sc.views = e.appendRailViews(sc.views[:0], r.To, now)
	rail := strategy.BestRail(wire.HeaderSize, now, sc.views)
	e.noteDecision(r, now) // protocol decision: rendezvous, RTS on `rail`
	r.rdvStart = now       // whole-rendezvous clock (telemetry rdv plane, noteAcked's histogram)
	us := e.unit(r.To, r.msgID)
	us.mu.Lock()
	us.rdvOut[r.msgID] = &pendingRdv{req: r, rail: rail}
	us.mu.Unlock()
	e.stats.rdvSent.Add(1)
	rts := wire.AppendControl(sc.hdr[:0], wire.KindRTS, uint8(rail), e.origin(), r.Tag, r.msgID, uint64(len(r.Data)))
	e.trace(now, trace.RTSSent, r.msgID, rail, len(r.Data), "")
	e.node.Rail(rail).SendControl(ctx, r.To, rts)
	e.settle(ctx, rail)
}

// onCTS resumes a parked rendezvous: the strategy is invoked now — with
// the NICs' current idle horizons — to split the message, and the chunk
// DMAs are posted. peer is the node the CTS came from (the destination of
// the send).
//
// The worker handling the CTS posts the chunks itself, and each chunk's
// unit is its own completion (unit.Fire): a rendezvous starts no
// goroutine. w is the work item running the step, whose scratch takes the
// plan and the chunk headers.
//
// The plan, the chunks' send stamps, the Decision event and the first
// ChunkPosted share one clock read; each chunk's post is followed by one
// more, which stamps the next ChunkPosted, and the last the enqueue stage.
func (e *Engine) onCTS(ctx rt.Ctx, peer int, msgID uint64, w *work) {
	us := e.unit(peer, msgID)
	us.mu.Lock()
	p := us.rdvOut[msgID]
	delete(us.rdvOut, msgID)
	us.mu.Unlock()
	if p == nil {
		return
	}
	r := p.req
	at := e.env.Now()
	chunks := e.capChunks(r.To, e.planRdv(r.To, len(r.Data), at, &w.plan), &w.plan)
	e.observeRdvPath(r, chunks)
	e.stats.chunksSent.Add(uint64(len(chunks)))
	e.stats.bytesSent.Add(uint64(len(r.Data)))
	r.addPending(len(chunks))
	// Register every chunk before the first one is posted: a chunk acked
	// while its siblings are still unregistered must not fire RemoteDone.
	// The units of a short plan live in the rendezvous' own object.
	units := p.units[:0]
	if len(chunks) > len(p.units) {
		units = make([]unit, 0, len(chunks))
	}
	units = units[:len(chunks)]
	for i, c := range chunks {
		e.registerChunk(&units[i], r, r.To, c.Rail, c.Offset, c.Size, at)
	}
	e.trace(at, trace.Decision, msgID, -1, len(r.Data), e.cfg.Splitter.Name())
	for i, c := range chunks {
		e.trace(at, trace.ChunkPosted, msgID, c.Rail, c.Size, "")
		e.sendChunk(ctx, r, c.Rail, c.Offset, c.Size, &units[i], &w.hdr)
		at = e.env.Now()
	}
	e.noteEnqueued(r, at) // every chunk DMA is posted
}
