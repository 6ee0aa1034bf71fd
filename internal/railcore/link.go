package railcore

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/fabric"
	"repro/internal/rt"
)

// Rail is one lane of a node: links to every peer plus the traffic
// accounting behind the engine's idle-horizon prediction.
type Rail struct {
	// The owner: the core that built the rail, its node and the rail's
	// transport-local index there. They never change.
	c     *Fabric
	node  int
	index int
	// home is the node the rail serves and its index there (see Join).
	home atomic.Pointer[home]

	// killed discards the rail's frames (FailRail); lock-free, since its
	// writers and readers check it on every frame.
	killed atomic.Bool
	// downHint marks a rail reported Down after a kill was observed
	// (locally or through the lane). The reader clears it — reporting the
	// rail back Up — when frames flow again: arriving traffic is the proof
	// of revival a peer process's EnableRail cannot deliver any other way.
	downHint atomic.Bool

	mu      sync.Mutex
	links   []*Link // by peer
	pending int64   // bytes posted but not yet written
	rate    float64 // EWMA write throughput, bytes/second
	stats   fabric.Stats

	// throttle > 1 slows the rail artificially (chaos hook): each write is
	// stretched to factor times its real duration. Float64 bits; 0 means
	// no throttle.
	throttle atomic.Uint64

	// stalls counts backpressure episodes on this rail's transports and
	// parks the times one of their sides gave up yielding and parked (shm:
	// the ring sides, through Counters); inlineWrites the frames senders
	// wrote themselves; moved the frames whose body a Mover took.
	stalls, parks, inlineWrites, moved atomic.Uint64
}

// Link is one endpoint of the stream joining a hosted node to a peer on
// one rail: the transport, the queue its writer drains, and the storage
// its writer and reader reuse for every frame.
type Link struct {
	rail *Rail
	peer int
	t    Transport
	tw   TryWriter // t's inline capability; nil when it has none
	mv   Mover     // t's body mover; nil when it has none
	out  chan outFrame
	// stop is closed when the link retires (Close, or a replacement);
	// retired says so to senders that must not wait on a gone writer.
	stop    chan struct{}
	retired atomic.Bool
	dead    atomic.Bool // the stream ended: set by whoever saw it first

	// producer is the right to write into a transport that takes
	// sender-written frames (tokenFree, tokenHeld, tokenWanted): held by
	// the writer for each frame, or by a sender inside one TryWrite.
	// Senders only ever try it (post), so nobody waits behind a blocking
	// write; the writer, the one side that waits for it, parks on
	// tokenWake until that one bounded copy is done.
	producer  atomic.Int32
	tokenWake chan struct{}

	// The writer's per-frame storage, owned by the link so nothing escapes
	// per frame: the frame being written and the prefix (the latter also
	// the producer token holder's, when that is a sender).
	cur    outFrame
	prefix [prefixSize]byte

	// The reader's: the prefix, and the head of a frame offered to the
	// placer.
	rprefix [prefixSize]byte
	scratch [fabric.PlaceHeadMax]byte
}

// Peer returns the remote node of the link.
func (l *Link) Peer() int { return l.peer }

// Rail returns the link's rail index in its owner.
func (l *Link) Rail() int { return l.rail.index }

// Node returns the owner's node the link belongs to.
func (l *Link) Node() int { return l.rail.node }

// Killed reports whether FailRail killed the link's rail.
func (l *Link) Killed() bool { return l.rail.killed.Load() }

// Transport returns the link's transport.
func (l *Link) Transport() Transport { return l.t }

// Dead reports whether the link's stream ended (failure, goodbye, or
// replacement).
func (l *Link) Dead() bool { return l.dead.Load() }

// Report records a health transition of the link's rail — while l is
// still the rail's link to its peer: a replaced link's late news must not
// overwrite what its replacement reported. It returns whether the state
// changed (railhealth.Tracker.Report).
func (l *Link) Report(s fabric.RailState, reason string) bool {
	r := l.rail
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.links[l.peer] == l && r.report(s, reason)
}

// report records a health transition of the rail in its home's tracker.
func (r *Rail) report(s fabric.RailState, reason string) bool {
	h := r.home.Load()
	return h.node.health.Report(h.index, s, reason)
}

func (l *Link) retire() {
	if l.retired.CompareAndSwap(false, true) {
		close(l.stop)
	}
}

// Producer token states; tokenWanted is held with the writer parked.
const (
	tokenFree int32 = iota
	tokenHeld
	tokenWanted
)

// takeProducer waits for the producer token: the writer's take. A sender
// holding it is inside one TryWrite, but may be descheduled there, so the
// writer parks rather than spins (a spinning writer holds the core that
// sender needs).
func (l *Link) takeProducer() {
	for !l.producer.CompareAndSwap(tokenFree, tokenHeld) {
		if l.producer.CompareAndSwap(tokenHeld, tokenWanted) {
			<-l.tokenWake
		}
	}
}

// releaseProducer gives the token back, waking the writer if it waits.
func (l *Link) releaseProducer() {
	if l.producer.Swap(tokenFree) == tokenWanted {
		l.tokenWake <- struct{}{} // one waiter, one wake: never blocks
	}
}

func putPrefix(p *[prefixSize]byte, head, body int) {
	binary.LittleEndian.PutUint32(p[0:], uint32(head))
	binary.LittleEndian.PutUint32(p[4:], uint32(body))
}

// outFrame is one queued frame: head followed by body (nil for one-slice
// frames). A short head travels by value (fabric.Head); a long head and
// the body stay aliased from the sender until done fires.
type outFrame struct {
	head fabric.Head
	body []byte
	done fabric.Completion
}

// size is the frame's length without the link prefix.
func (of *outFrame) size() int { return of.head.Len() + len(of.body) }

// finish retires one of the rail's frames: accounting first, then the
// completion. written is false on the drop paths (shutdown, retirement, a
// killed rail), so only frames that reached the transport count as
// traffic.
func (r *Rail) finish(of *outFrame, took, calib time.Duration, written bool) {
	r.noteWritten(of.size(), took, calib, written)
	if of.done != nil {
		of.done.Fire()
	}
}

// drain retires a retired link's queued frames unwritten, so no
// completion is lost.
func drain(l *Link) {
	for {
		select {
		case of := <-l.out:
			l.rail.finish(&of, 0, 0, false)
		default:
			return
		}
	}
}

// writeLoop drains a link's queue into its transport. Each frame is the
// prefix, then head and body written from their own slices — a rendezvous
// chunk goes from the caller's buffer to the ring or socket uncopied — out
// of storage the link owns, so a frame allocates nothing. done fires when
// the frame has been handed over (the live "the DMA drained"), or, for a
// body the transport's Mover took, once the peer has copied it. Per-frame
// timestamps use internal/clock, and one pair of them serves both the
// occupancy and the rate calibration unless a throttle sleep separates
// them.
//
//railvet:hotpath
func (c *Fabric) writeLoop(l *Link) {
	defer c.writers.Done()
	r := l.rail
	for {
		select {
		case l.cur = <-l.out:
			of := &l.cur
			if r.killed.Load() || l.t.PeerKilled() {
				// Killed rail: the frame is lost, exactly as a dying NIC
				// loses in-flight messages. Report Down (idempotent): a
				// peer process's FailRail reaches this side only through
				// the lane, and without the report the engine would never
				// replan the dropped frames onto a surviving rail.
				r.downHint.Store(true)
				r.report(fabric.RailDown, fmt.Sprintf("rail %d killed", r.index))
				r.finish(of, 0, 0, false)
				l.cur = outFrame{}
				continue
			}
			start := clock.Now()
			writeStart := start
			if th := r.throttleFactor(); th > 1 {
				// Chaos throttle: delay the frame before it reaches the
				// transport so delivery itself slows down — the stretched
				// transmission time plus a standing-queue term.
				exp := float64(of.size()+prefixSize)/r.currentRate() + throttleQueue.Seconds()
				time.Sleep(time.Duration(exp * (th - 1) * 1e9))
				writeStart = clock.Now()
			}
			if l.tw != nil {
				l.takeProducer()
			}
			var err error
			moved := false
			if l.mv != nil {
				if floor := l.mv.MoveFloor(); floor > 0 && len(of.body) >= floor {
					putPrefix(&l.prefix, of.head.Len()|movedBit, len(of.body))
					moved, err = l.mv.WriteMove(l.prefix[:], of.head.Bytes(),
						Move{Body: of.body, link: l, done: of.done, size: of.size(), start: start, calibFrom: writeStart})
				}
			}
			if !moved && err == nil {
				putPrefix(&l.prefix, of.head.Len(), len(of.body))
				err = l.t.WriteV(l.prefix[:], of.head.Bytes(), of.body)
			}
			if l.tw != nil {
				l.releaseProducer()
			}
			if moved {
				// The transport finishes the frame once the peer copied the
				// body: the completion and the accounting wait for that.
				r.moved.Add(1)
			} else {
				// The rate EWMA calibrates on the raw write only: folding
				// the throttle sleep in would shrink the rate, stretch the
				// next sleep, and spiral. Occupancy (took) keeps the full
				// delay. A failed write is not traffic, and its near-instant
				// failure must not calibrate the rate.
				end := clock.Now()
				calib, took := clock.Between(writeStart, end), clock.Between(start, end)
				r.finish(of, took, calib, err == nil)
				if err == nil {
					r.observeWrite(l.peer, of.size(), took)
				}
			}
			l.cur = outFrame{} // drop the sender's buffers
			if err != nil && err != ErrClosing {
				c.fail(fmt.Errorf("write: %w", err))
				c.lost(l, fmt.Sprintf("write error: %v", err), true)
			}
		case <-l.stop:
			// Retire every queued frame unwritten so no sender waits on a
			// gone link (a sender racing this drain re-drains, see post).
			// A closing fabric then says goodbye, so the peer's reader —
			// possibly in another process — stops without an error.
			drain(l)
			if c.closed.Load() {
				if l.tw != nil {
					l.takeProducer() // a sender may be mid-copy
				}
				putPrefix(&l.prefix, goodbye, 0)
				l.t.Goodbye(l.prefix[:])
				if l.tw != nil {
					l.releaseProducer()
				}
			}
			return
		}
	}
}

// readLoop decodes frames from the link's transport into the rail's home
// node, loaded once per frame. A frame with a head and a body is first
// offered to the home's placer: if it names a destination the body is read
// straight into it and the placement committed; otherwise — no placer, a
// frame without head or body, placement declined — head and body land in
// one buffer from the home's frame pool, delivered to the sink and
// recycled if the consumer releases it. A moved frame's body is not in the
// stream: the transport's Mover copies it from the sender's buffer into
// whichever destination that was, the one copy it takes. Frames read while
// the rail is killed are discarded (a placed one aborted) — the chaos
// hook's message loss — and the kill and revival are reported to the
// health tracker. A stream that ends aborts a placement
// under way.
//
//railvet:hotpath
func (c *Fabric) readLoop(l *Link) {
	defer c.readers.Done()
	r := l.rail
	for {
		if err := l.t.Read(l.rprefix[:], true); err != nil {
			c.readFailed(l, err)
			return
		}
		h := r.home.Load()
		n := h.node
		hn := binary.LittleEndian.Uint32(l.rprefix[0:])
		bn := binary.LittleEndian.Uint32(l.rprefix[4:])
		if hn == goodbye {
			c.readFailed(l, ErrGoodbye)
			return
		}
		moved := hn&movedBit != 0
		hn &^= movedBit
		if uint64(hn)+uint64(bn) > maxFrame || moved && l.mv == nil {
			c.fail(fmt.Errorf("frame of %d bytes exceeds limit or names a body the transport cannot move", uint64(hn)+uint64(bn)))
			c.lost(l, "malformed frame", false)
			return
		}
		var head, dst []byte
		var placed fabric.Placed
		if place := n.placer.Load(); place != nil && bn > 0 && hn > 0 && hn <= fabric.PlaceHeadMax {
			head = l.scratch[:hn]
			if err := l.t.Read(head, false); err != nil {
				c.readFailed(l, err)
				return
			}
			dst, placed = (*place)(l.peer, h.index, head, int(bn))
		}
		var d *fabric.Delivery
		if dst == nil {
			d = n.frames.Get(int(hn + bn))
			dst = d.Data[copy(d.Data, head):]
		}
		var err error
		if moved {
			// The stream holds the head, then the body's descriptor: one
			// copy from the sender's buffer fills dst, placed or not.
			if head == nil {
				err = l.t.Read(d.Data[:hn], false)
				dst = d.Data[hn:]
			}
			if err == nil {
				err = l.mv.ReadMove(dst)
			}
		} else {
			err = l.t.Read(dst, false)
		}
		if err != nil {
			if placed != nil {
				placed.Placed(false)
			}
			c.readFailed(l, err)
			return
		}
		if r.killed.Load() || l.t.PeerKilled() {
			// Discard: the rail is dead, this frame is the loss. Report
			// Down once per kill episode.
			if placed != nil {
				placed.Placed(false)
			}
			if r.downHint.CompareAndSwap(false, true) {
				r.report(fabric.RailDown, fmt.Sprintf("rail %d killed", r.index))
			}
			continue
		}
		if r.downHint.Load() && r.downHint.CompareAndSwap(true, false) {
			// Traffic flows again on a revived lane, whichever side
			// observed the kill. Admin-pinned rails stay Down (Report
			// respects the pin).
			r.report(fabric.RailUp, "rail revived")
		}
		if placed != nil {
			placed.Placed(true)
			continue
		}
		d.From, d.Rail = l.peer, h.index
		n.deliver(d)
	}
}

// readFailed ends a link whose stream ended under its reader: quietly while
// the fabric closes or once the link is already dead; a goodbye is a
// graceful shutdown — not an error, and not worth re-establishing, the
// rail is gone on purpose; anything else, a goodbye-less EOF from a dying
// peer included, is recorded in Err (so it explains a hung run) and goes
// to the fabric's LinkLost.
func (c *Fabric) readFailed(l *Link, err error) {
	if c.closed.Load() || l.dead.Load() {
		return
	}
	if err == ErrGoodbye {
		if l.dead.CompareAndSwap(false, true) {
			l.Report(fabric.RailDown, fmt.Sprintf("node %d shut down", l.peer))
		}
		return
	}
	c.fail(fmt.Errorf("node %d rail %d: connection lost: %w", l.peer, l.rail.index, err))
	c.lost(l, fmt.Sprintf("connection to node %d lost: %v", l.peer, err), true)
}

// lost hands a failed link to the fabric's LinkLost, once, unless the
// fabric is closing.
func (c *Fabric) lost(l *Link, reason string, recoverable bool) {
	if !l.dead.CompareAndSwap(false, true) || c.closed.Load() {
		return
	}
	c.cfg.LinkLost(l, reason, recoverable)
}

// Index returns the rail number in its home node.
func (r *Rail) Index() int { return r.home.Load().index }

// Caps returns the rail's kind and eager limit, its owner's. A live rail
// carries frames of any size up to the 1 GiB frame limit, which the
// engine never plans near: MaxMsg stays 0.
func (r *Rail) Caps() fabric.Caps {
	return fabric.Caps{Kind: r.c.cfg.Kind, EagerMax: r.c.cfg.EagerMax}
}

// State returns the rail's health state, as its home's tracker holds it.
func (r *Rail) State() fabric.RailState {
	h := r.home.Load()
	return h.node.health.State(h.index)
}

func (r *Rail) link(peer int) *Link {
	r.mu.Lock()
	defer r.mu.Unlock()
	if peer < 0 || peer >= len(r.links) {
		return nil
	}
	return r.links[peer]
}

// MaxChunk returns the largest rendezvous chunk the rail should carry to
// peer in one frame (fabric.ChunkCapper): no limit (0) unless the link's
// transport is a Mover that moves no bodies, whose buffer a larger chunk
// would fill by itself.
func (r *Rail) MaxChunk(peer int) int {
	l := r.link(peer)
	if l == nil || l.mv == nil || l.mv.MoveFloor() > 0 {
		return 0
	}
	return l.mv.StreamMax()
}

// Links returns the rail's current links.
func (r *Rail) Links() []*Link {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ls []*Link
	for _, l := range r.links {
		if l != nil {
			ls = append(ls, l)
		}
	}
	return ls
}

// Stats returns a snapshot of the traffic counters.
func (r *Rail) Stats() fabric.Stats {
	r.mu.Lock()
	st := r.stats
	r.mu.Unlock()
	st.Stalls, st.Parks, st.InlineWrites = r.stalls.Load(), r.parks.Load(), r.inlineWrites.Load()
	st.Moved = r.moved.Load()
	return st
}

// IdleAt predicts when the rail's posted bytes will have been written,
// from the throughput EWMA — the live analogue of the modeled NIC
// busy-until horizon that drives the paper's Fig 2 rail selection. An
// idle rail answers the caller's stamp: it is idle now, whatever the
// clock says by the time it answers.
func (r *Rail) IdleAt(now time.Duration) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pending <= 0 {
		return now
	}
	return now + time.Duration(float64(r.pending)/r.rate*1e9)
}

// Busy reports whether the rail has posted unwritten bytes. The engine
// never asks (IdleAt answers for it); tests wait on it.
func (r *Rail) Busy() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pending > 0
}

// currentRate returns the rail's throughput EWMA (bytes/second).
func (r *Rail) currentRate() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rate
}

// throttleFactor returns the active slow-down factor (1 when none).
func (r *Rail) throttleFactor() float64 {
	if bits := r.throttle.Load(); bits != 0 {
		if f := math.Float64frombits(bits); f > 1 {
			return f
		}
	}
	return 1
}

// SendEager transmits an eager container (the live analogue of the PIO
// copy; see SendDataV for who writes it).
func (r *Rail) SendEager(ctx rt.Ctx, to int, data []byte) {
	r.post(to, data, nil, nil, true)
}

// SendControl transmits a control message; what it costs elapses on its
// own.
func (r *Rail) SendControl(ctx rt.Ctx, to int, data []byte) {
	r.post(to, data, nil, nil, true)
}

// SendData streams a rendezvous chunk as a head-less frame, data its body
// — a large one leaves the rail for the transport's Mover; done fires when
// the sender may reuse the buffer.
func (r *Rail) SendData(ctx rt.Ctx, to int, data []byte, done fabric.Completion) {
	r.post(to, nil, data, done, true)
}

// SendDataV posts head and body as one frame. A frame with neither body
// nor done (eager containers, acks, RTS, CTS) that finds the rail idle —
// nothing queued, nothing being written — is written here, on the sender's
// goroutine, if the transport takes it without waiting (TryWriter): the
// hand-off to the writer would cost more than the copy. Everything else
// is queued for the link's writer, which writes head and body from their
// own slices, so the body — and a head longer than fabric.PlaceHeadMax —
// stay aliased until done fires; a shorter head is copied here. Frames
// with a body go that way on purpose: the two rails of a striped message
// then copy in parallel on two cores — the writers into the rings, or,
// for bodies a Mover takes, the peer's two readers out of the sender's
// buffer.
//
//railvet:hotpath
func (r *Rail) SendDataV(ctx rt.Ctx, to int, head, body []byte, done fabric.Completion) {
	r.post(to, head, body, done, true)
}

// TrySend posts a body-less frame if that takes no waiting — the sender's
// own write, or a free slot in the link's queue (fabric.TrySender).
//
//railvet:hotpath
func (r *Rail) TrySend(to int, data []byte) bool {
	return r.post(to, data, nil, nil, false)
}

// post is SendDataV; with wait false it refuses (false, nothing done)
// instead of waiting for a slot in a full link queue.
func (r *Rail) post(to int, head, body []byte, done fabric.Completion, wait bool) bool {
	size := len(head) + len(body)
	if size > maxFrame {
		// Refuse at the source: a larger frame would be rejected by the
		// receiver (or wrap the uint32 prefix past 4 GiB and desync the
		// stream). Mirrors simnet's MaxMsg panic.
		r.c.panicf("frame of %d bytes exceeds the %d-byte limit", size, maxFrame)
	}
	r.mu.Lock()
	var l *Link
	if to >= 0 && to < len(r.links) {
		l = r.links[to]
	}
	if l == nil {
		r.mu.Unlock()
		r.c.panicf("node %d has no rail-%d link to node %d", r.node, r.index, to)
	}
	// An idle rail (pending counts every frame from here to noteWritten)
	// has an empty queue and a free token, except for the moment between a
	// writer's release and its noteWritten.
	direct := l.tw != nil && len(body) == 0 && done == nil && r.pending == 0 && l.producer.CompareAndSwap(tokenFree, tokenHeld)
	// Messages/Bytes are counted when the frame is actually written
	// (noteWritten), so traffic dropped at shutdown is not overstated.
	r.pending += int64(size) + prefixSize
	r.stats.LastStart = r.c.env.Now()
	r.mu.Unlock()
	if direct {
		took, ok := r.writeNow(l, head)
		l.releaseProducer()
		if ok {
			r.inlineWrites.Add(1)
			r.noteWritten(size, took, took, true)
			r.observeWrite(l.peer, size, took)
			return true
		}
	}
	of := outFrame{head: fabric.MakeHead(head), body: body, done: done}
	if wait {
		select {
		case l.out <- of:
		case <-l.stop:
			r.finish(&of, 0, 0, false)
			return true
		}
	} else {
		select {
		case l.out <- of:
		default:
			r.mu.Lock()
			r.pending -= int64(size) + prefixSize
			r.mu.Unlock()
			return false
		}
	}
	// A sender racing the link's retirement may enqueue after the writer's
	// last drain: reclaim anything stranded so completions still fire.
	if l.retired.Load() {
		drain(l)
	}
	return true
}

// writeNow is the route of a small frame past the writer: the sender
// writes prefix and head itself, in one publication, when that cannot
// wait — the transport takes it right now — and nothing about the link
// calls for the writer (a killed or throttled rail, a closing fabric).
// The caller holds the producer token, taken with the rail idle (post), so
// the transport has one producer at a time and the link's frame order is
// the order of the send calls, exactly as through the queue. It reports
// whether the frame was written, and how long that took.
//
//railvet:hotpath
func (r *Rail) writeNow(l *Link, head []byte) (time.Duration, bool) {
	if r.c.closed.Load() || r.killed.Load() || r.throttleFactor() > 1 {
		return 0, false
	}
	putPrefix(&l.prefix, len(head), 0)
	start := clock.Now()
	if !l.tw.TryWrite(l.prefix[:], head) {
		return 0, false
	}
	return clock.Since(start), true
}

// noteWritten retires n posted bytes, counts the frame as traffic when it
// reached the transport, and folds the raw write duration (calib) into the
// throughput estimate. took additionally includes any chaos-throttle delay
// and only feeds the busy-time counter.
func (r *Rail) noteWritten(n int, took, calib time.Duration, written bool) {
	r.mu.Lock()
	r.pending -= int64(n) + prefixSize
	if r.pending < 0 {
		r.pending = 0
	}
	if written {
		r.stats.Messages++
		r.stats.Bytes += uint64(n)
	}
	r.stats.BusyTime += took
	if written && n >= rateCalibMin && calib > 0 {
		inst := float64(n) / calib.Seconds()
		r.rate = 0.7*r.rate + 0.3*inst
	}
	r.mu.Unlock()
}
