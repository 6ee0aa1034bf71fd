package fabric

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Head is a frame head as a fabric queues it. A head of at most
// PlaceHeadMax bytes is copied at enqueue, so the sender may encode acks,
// RTS/CTS and chunk headers into its own scratch and reuse that scratch
// the moment the send call returns; a longer head (an eager container) is
// aliased until the frame is written.
type Head struct {
	inline [PlaceHeadMax]byte
	n      int
	long   []byte // the aliased head when n > PlaceHeadMax
}

// MakeHead captures b for queueing.
func MakeHead(b []byte) Head {
	h := Head{n: len(b)}
	if len(b) <= PlaceHeadMax {
		copy(h.inline[:], b)
	} else {
		h.long = b
	}
	return h
}

// Len returns the head's length.
func (h *Head) Len() int { return h.n }

// Bytes returns the head's bytes. For a short head they live in h itself:
// keep h where the bytes must stay valid.
func (h *Head) Bytes() []byte {
	if h.long != nil {
		return h.long
	}
	return h.inline[:h.n]
}

// Frame recycling. A transport reader takes the buffer of a contiguous
// frame — and the Delivery beside it — from its node's FramePool; the
// consumer gives both back with Delivery.Release once it has copied out
// what it needs. Frames nobody releases are simply garbage-collected.
const (
	frameMinClass = 6  // 64 B
	frameClasses  = 12 // up to 128 KiB: every eager container, every control frame
	frameMaxSize  = 1 << (frameMinClass + frameClasses - 1)
	framesPerList = 32 // frames kept per size class
)

// FramePool is a size-classed free list of receive frames: power-of-two
// classes, an explicit bounded stack each (a sync.Pool would empty at
// every GC and make the allocation ratchets flaky). Safe for concurrent
// use: readers Get, workers Release.
type FramePool struct {
	mu   sync.Mutex
	free [frameClasses][]*Delivery
}

// Get returns a Delivery whose Data has length n, recycled when the pool
// holds a frame of n's class. Every other field is the caller's to set.
// Frames larger than the largest class are plain allocations and their
// Release is a no-op.
func (p *FramePool) Get(n int) *Delivery {
	if n > frameMaxSize {
		return &Delivery{Data: make([]byte, n)}
	}
	c := 0
	if n > 1<<frameMinClass {
		c = bits.Len(uint(n-1)) - frameMinClass
	}
	p.mu.Lock()
	var d *Delivery
	if l := p.free[c]; len(l) > 0 {
		d, p.free[c] = l[len(l)-1], l[:len(l)-1]
	}
	p.mu.Unlock()
	if d == nil {
		d = &Delivery{Data: make([]byte, 1<<(c+frameMinClass)), pool: p, class: uint8(c)}
	}
	d.Data = d.Data[:n]
	d.released = false
	return d
}

// Release hands a pooled frame back to the fabric that produced it; the
// caller must not touch d or d.Data afterwards. It is optional — an
// unreleased frame is garbage-collected as before — a no-op for
// unpooled deliveries (simulated fabrics, oversized frames, literals),
// and idempotent: a second call before the frame is reused does nothing.
func (d *Delivery) Release() {
	p := d.pool
	if p == nil || d.released {
		return
	}
	d.released = true
	d.Data = d.Data[:cap(d.Data)]
	Poison(d.Data)
	p.mu.Lock()
	if len(p.free[d.class]) < framesPerList {
		p.free[d.class] = append(p.free[d.class], d)
	}
	p.mu.Unlock()
}

var poisonRecycled atomic.Bool

// PoisonByte is what recycled buffers are filled with under
// SetRecyclePoison.
const PoisonByte = 0xDB

// SetRecyclePoison makes every buffer recycle (receive frames here, the
// engine's send frames through Poison) overwrite the buffer with
// PoisonByte first, so a use-after-recycle shows up as a payload mismatch
// instead of a rare, silent one. A test hook: the chaos and conformance
// suites switch it on.
func SetRecyclePoison(on bool) { poisonRecycled.Store(on) }

// Poison fills b with PoisonByte when SetRecyclePoison is on.
func Poison(b []byte) {
	if !poisonRecycled.Load() {
		return
	}
	for i := range b {
		b[i] = PoisonByte
	}
}
