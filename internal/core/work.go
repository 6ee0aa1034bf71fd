package core

import (
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/rt"
	"repro/internal/strategy"
	"repro/internal/wire"
)

// This file holds what the live message path reuses instead of
// allocating. The rule: a message owns one heap object per side (its
// SendRequest, its RecvRequest); everything else is embedded in that
// object, borrowed from scratch owned by the serialised context using it
// (destScratch: one destination's flush), or recycled at the one point
// where no other reference can exist (work items when Do returns, frames
// on Release).

// workKind says which engine step a work item runs.
type workKind uint8

const (
	workEager workKind = iota // deliver one packet of an eager container
	workAck                   // acknowledge a received unit
	workChunk                 // deliver and acknowledge a contiguous chunk frame
	workRTS
	workCTS
	workOnAck
	workSendCTS // answer a parked RTS its late receive matched (h: Tag, MsgID)
	workPlaced  // commit a chunk placed straight into its reassembly (h, pa; not queued)
)

// work is one delivery's engine step as the progress pool carries it: by
// pointer, from the engine's free list, back on it when Do returns. It
// replaces a closure, its boxing into the queue's interface and the
// queue's own growth — three objects per hand-off, four hand-offs per
// eager message.
type work struct {
	e    *Engine
	kind workKind
	from int
	rail int
	h    wire.Header // control and chunk frames: the decoded header; acks: MsgID and Offset
	p    wire.Packet // eager: the packet (origin in h.Origin); chunk: the payload

	// An eager container's packets alias its receive frame. The item of
	// the first packet owns the frame and counts the packets not yet
	// delivered in left; every packet's item points at it through share,
	// and the one that brings left to zero releases the frame. The owner is
	// freed with the frame, not when its own packet is done.
	frame *fabric.Delivery
	share *work
	left  atomic.Int32

	// pa is the reassembly a placed chunk's commit marks (workPlaced).
	pa *partial

	// recvCPU and copyCPU are the modeled receive costs of the delivery
	// (fabric.Delivery.RecvCPU, CopyCPU) this step is the first, resp. last,
	// step of; the worker is busy for them before and after the step. Live
	// deliveries carry none.
	recvCPU, copyCPU time.Duration

	// hdr is where this item's ack or CTS is encoded: fabrics copy short
	// heads at enqueue, so the scratch is free again when the send call
	// returns. plan is where a CTS step plans its rendezvous.
	hdr  [wire.HeaderSize]byte
	plan planScratch

	next *work // free-list link
}

// workFreeMax bounds the free list: a burst may queue thousands of items
// at once, and the list should not pin that high-water mark for good.
const workFreeMax = 1024

func (e *Engine) getWork(kind workKind, from, rail int) *work {
	e.workMu.Lock()
	w := e.workFree
	if w != nil {
		e.workFree, e.workFreeN = w.next, e.workFreeN-1
	}
	e.workMu.Unlock()
	if w == nil {
		w = &work{e: e}
	}
	w.kind, w.from, w.rail, w.next = kind, from, rail, nil
	return w
}

// submitWork queues an actor step that needs only a header (an ack reads
// its MsgID and Offset) on the worker key maps to.
func (e *Engine) submitWork(key uint32, kind workKind, from, rail int, h wire.Header) {
	w := e.getWork(kind, from, rail)
	w.h = h
	e.pool.SubmitWork(key, w)
}

func (e *Engine) putWork(w *work) {
	w.p, w.frame, w.share, w.pa = wire.Packet{}, nil, nil, nil
	e.workMu.Lock()
	if e.workFreeN < workFreeMax {
		w.next, e.workFree, e.workFreeN = e.workFree, w, e.workFreeN+1
	}
	e.workMu.Unlock()
}

// Handle runs a step that cannot block (progress.Handler) and recycles the
// item: the two steps of an eager message that send nothing. It runs on
// the transport reader that decoded the frame when the step's worker is
// idle, else on the worker.
//
//railvet:hotpath
func (w *work) Handle() {
	e := w.e
	switch w.kind {
	case workEager:
		e.deliverEager(w.from, int(w.h.Origin), w.p)
		// The payload is in the receive buffer (matched) or copied
		// (unexpected): this packet no longer needs the frame.
		own := w.share
		if own.left.Add(-1) > 0 {
			if own == w {
				return // other packets still read the frame: the last one frees us
			}
		} else {
			own.frame.Release()
			if own != w {
				e.putWork(own)
			}
		}
	case workOnAck:
		e.onAck(w.from, w.h)
	}
	e.putWork(w)
}

// Do runs the item on a pool worker (progress.Work) and recycles it. The
// steps with a Ctx send on a rail, which can block. A step of a modeled
// delivery first charges its receive costs to the worker, around itself.
func (w *work) Do(ctx rt.Ctx) {
	if w.recvCPU|w.copyCPU != 0 {
		recv, cp := w.recvCPU, w.copyCPU
		w.recvCPU, w.copyCPU = 0, 0
		if recv > 0 {
			ctx.Sleep(recv)
		}
		w.Do(ctx)
		if cp > 0 {
			ctx.Sleep(cp)
		}
		return
	}
	e := w.e
	switch w.kind {
	case workEager, workOnAck:
		w.Handle()
		return
	case workAck:
		e.ackUnit(ctx, w.from, w.h.MsgID, w.h.Offset, w.rail, &w.hdr)
	case workChunk:
		e.deliverChunk(w.from, w.h, w.p.Payload)
		e.ackUnit(ctx, w.from, w.h.MsgID, w.h.Offset, w.rail, &w.hdr)
	case workRTS:
		e.handleRTS(ctx, w.from, w.rail, w.h, &w.hdr)
	case workCTS:
		e.onCTS(ctx, w.from, w.h.MsgID, w)
	case workSendCTS:
		e.sendCTS(ctx, w.from, w.rail, w.h.Tag, w.h.MsgID, &w.hdr)
	}
	e.putWork(w)
}

// destScratch is the scratch of one destination's flush: the state the
// submitter keeps with the destination's queue (progress.Submitter).
// Flushes of one destination are serialised on one worker, so nothing
// here needs a lock and nothing here outlives the flush.
type destScratch struct {
	views, fit []strategy.RailView
	eagers     []*SendRequest
	pkts       []wire.Packet
	hdr        [wire.HeaderSize]byte // an RTS on its way to the fabric
}

// newFrame returns an n-byte buffer for an eager container and, on
// engines that recycle, the pooled frame owning it (released when the
// container's ack retires a unit that was never replayed).
func (e *Engine) newFrame(n int) (*fabric.Delivery, []byte) {
	if !e.recycle {
		return nil, make([]byte, 0, n)
	}
	d := e.sendFrames.Get(n)
	return d, d.Data[:0]
}

// fifo is one matching queue. The backing array stays put — popping
// advances head and clears the slot, pushing compacts before it would
// grow — so a drained queue hands its whole array on (queues.free).
type fifo[T any] struct {
	items []T
	head  int
}

// queues is one kind of matching queue of a flow shard: posted receives,
// unexpected messages or parked RTS, by (source, tag). A key exists only
// while its queue holds something, and drained backing arrays wait on a
// short free list for the next key, so per-message tags neither grow the
// map nor allocate in steady state.
type queues[T any] struct {
	m    map[key]fifo[T]
	free [][]T
}

// queueFreeMax bounds a shard's list of spare backing arrays.
const queueFreeMax = 8

func newQueues[T any]() queues[T] { return queues[T]{m: make(map[key]fifo[T])} }

func (q *queues[T]) push(k key, v T) {
	f, ok := q.m[k]
	if !ok && len(q.free) > 0 {
		f.items, q.free = q.free[len(q.free)-1], q.free[:len(q.free)-1]
	}
	if f.head > 0 && len(f.items) == cap(f.items) {
		n := copy(f.items, f.items[f.head:])
		clear(f.items[n:])
		f.items, f.head = f.items[:n], 0
	}
	f.items = append(f.items, v)
	q.m[k] = f
}

// pop removes the oldest item under k.
func (q *queues[T]) pop(k key) (v T, ok bool) {
	f, ok := q.m[k]
	if !ok {
		return v, false
	}
	var zero T
	v, f.items[f.head] = f.items[f.head], zero
	if f.head++; f.head < len(f.items) {
		q.m[k] = f
		return v, true
	}
	delete(q.m, k)
	if len(q.free) < queueFreeMax {
		q.free = append(q.free, f.items[:0])
	}
	return v, true
}

// pending returns the items queued under k, oldest first (read-only).
func (q *queues[T]) pending(k key) []T {
	f := q.m[k]
	return f.items[f.head:]
}

// count returns the number of items queued under all keys.
func (q *queues[T]) count() int {
	n := 0
	for _, f := range q.m {
		n += len(f.items) - f.head
	}
	return n
}
