// Package shmnet implements the fabric contract over shared-memory ring
// buffers: the paper's PIO regime made real. Every rail of every node
// pair is a pair of single-producer/single-consumer byte rings (one per
// direction), moved by plain memory copies and polled by a reader
// goroutine — no syscalls, no kernel path, no serialisation beyond the
// ring cursors themselves.
//
// The rings are lock-free: the producer owns the tail cursor, the
// consumer owns the head cursor, and both live *inside* the shared
// region, accessed through atomics. That makes the same ring code work
// over two backings:
//
//   - plain heap slices when all nodes are hosted in one process
//     (NewHosted) — what the mixed shm+TCP cluster and the tests use;
//   - an mmap-backed file per node pair when each node is its own OS
//     process on one host (NewDistributed) — the two-process
//     examples/tcp2proc case.
//
// Frames stream through the ring in pieces (the producer copies as space
// frees, the consumer copies as bytes arrive), so a frame larger than
// the ring still flows — the ring behaves like a socket, not a datagram
// slot. Except for large bodies: a rendezvous chunk's body is not copied
// into the ring and out again. The lane is a railcore.Mover (move.go):
// only the frame's prefix, head and an 8-byte descriptor of the body
// travel, and the consumer's reader copies the body once, from the
// sender's buffer straight into the placed buffer — with copy when both
// nodes share this process, with process_vm_readv across two. Copies per
// body byte, then:
//
//   - eager containers, control frames, and bodies below the lane's move
//     floor (32 KiB, never above a quarter of the ring, so a
//     streamed body cannot fill the ring by itself): two, sender → ring →
//     destination;
//   - bodies at or above the floor: one, sender → destination, on the
//     receiving reader's core — with two rails, two readers copy their
//     halves of a striped message at once;
//   - an mmap pair whose reader may not read its peer (process_vm_readv
//     refused by Yama ptrace_scope or seccomp, probed once per lane): two,
//     every body streams — in chunks of at most a quarter of the ring,
//     which the engine plans (lane.StreamMax).
package shmnet

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
)

// Ring region layout. The cursors sit on their own cache lines so the
// producer and consumer never false-share, and the whole header is part
// of the shared region so a peer process sees the same state.
const (
	ringHeadOff   = 0   // consumer cursor (uint64, monotonically grows)
	ringTailOff   = 64  // producer cursor (uint64, monotonically grows)
	ringStatusOff = 128 // ring status word (uint32)
	// The move words (mmap pairs; see move.go): moved bodies the consumer
	// has copied (uint64) and whether it can copy them at all (uint32),
	// both the consumer's; the producer's pid and the address of its probe
	// word (uint64 each), written before its first frame, and whether it
	// revoked its moves at close (uint32), the producer's.
	ringMoveDoneOff    = 136
	ringMoveOKOff      = 144
	ringPidOff         = 152
	ringProbeOff       = 160
	ringMoveRevokedOff = 168
	ringHdrSize        = 192 // data starts here
)

// Ring status values. The producer side owns transitions to goodbye;
// either side (or a chaos hook) may set killed; Enable sets open again.
const (
	ringOpen    = 0 // traffic flows
	ringGoodbye = 1 // producer closed gracefully: drain and stop
	ringKilled  = 2 // rail killed (chaos): frames are discarded
)

// ring is one direction of one (node pair, rail) lane. Exactly one
// goroutine writes (the link's writer) and one reads (the link's
// reader); cross-process, each process holds one end.
type ring struct {
	head   *atomic.Uint64
	tail   *atomic.Uint64
	status *atomic.Uint32
	data   []byte
	size   uint64

	// The move words of the shared header (see the layout above).
	moveDone, producerPid, probeAddr *atomic.Uint64
	moveOK, moveRevoked              *atomic.Uint32
	// moves is the producer's table of bodies handed to the consumer:
	// shared by both lanes of a hosted ring, the producer's own in an mmap
	// pair.
	moves moveTable

	region []byte // keeps the backing slice (or mapping) alive

	// In-process wakeups (nil on mmap-backed rings, which can only
	// poll): the producer nudges dataWake after publishing bytes, the
	// consumer nudges spaceWake after freeing space. Buffered at 1 and
	// re-checked after every wake, so the check-then-wait pattern loses
	// no wakeup — which is what lets a side park with no deadline: every
	// change it could be waiting for (bytes, space, goodbye, Close) is
	// followed by a nudge.
	dataWake  chan struct{}
	spaceWake chan struct{}
	// boundaryYields is how often an in-process reader yields at a frame
	// boundary before it parks (see backoff.wait).
	boundaryYields int

	// stalls, when installed, counts backpressure episodes: one per
	// write call that found the ring full and had to wait. Process-local
	// (not part of the shared region) — each producer counts the stalls
	// it suffered. Set before the producer goroutine starts.
	stalls *atomic.Uint64
	// onStall, when installed alongside stalls, fires once per episode
	// from the producer goroutine (Config.OnStall, rail-bound).
	onStall func()

	// readParks and writeParks, when installed, count the times the side
	// gave up yielding and parked on its wake channel. Process-local like
	// stalls; each is bumped by its side's one goroutine.
	readParks, writeParks *atomic.Uint64
}

// ringRegionSize returns the bytes a ring with dataBytes of payload
// space occupies.
func ringRegionSize(dataBytes int) int { return ringHdrSize + dataBytes }

// newRing lays a ring over region, whose first ringHdrSize bytes are the
// header. init zeroes the cursors (the creating side passes true; an
// attaching peer must not reset a live ring). The region must be 8-byte
// aligned — heap slices and mmap'd pages both are.
func newRing(region []byte, init bool) *ring {
	if len(region) <= ringHdrSize {
		panic(fmt.Sprintf("shmnet: ring region of %d bytes is smaller than the header", len(region)))
	}
	if uintptr(unsafe.Pointer(&region[0]))%8 != 0 {
		panic("shmnet: ring region is not 8-byte aligned")
	}
	r := &ring{
		head:   (*atomic.Uint64)(unsafe.Pointer(&region[ringHeadOff])),
		tail:   (*atomic.Uint64)(unsafe.Pointer(&region[ringTailOff])),
		status: (*atomic.Uint32)(unsafe.Pointer(&region[ringStatusOff])),
		data:   region[ringHdrSize:],
		size:   uint64(len(region) - ringHdrSize),
		region: region,

		moveDone:    (*atomic.Uint64)(unsafe.Pointer(&region[ringMoveDoneOff])),
		moveOK:      (*atomic.Uint32)(unsafe.Pointer(&region[ringMoveOKOff])),
		moveRevoked: (*atomic.Uint32)(unsafe.Pointer(&region[ringMoveRevokedOff])),
		producerPid: (*atomic.Uint64)(unsafe.Pointer(&region[ringPidOff])),
		probeAddr:   (*atomic.Uint64)(unsafe.Pointer(&region[ringProbeOff])),
	}
	if init {
		r.head.Store(0)
		r.tail.Store(0)
		r.status.Store(ringOpen)
		r.moveDone.Store(0)
		r.moveOK.Store(moveUnprobed)
		r.moveRevoked.Store(0)
		r.producerPid.Store(0)
		r.probeAddr.Store(0)
	}
	return r
}

// enableWake attaches in-process wakeup channels (hosted rings only —
// a peer process cannot receive on our channels, so mmap rings poll).
func (r *ring) enableWake() *ring {
	r.dataWake = make(chan struct{}, 1)
	r.spaceWake = make(chan struct{}, 1)
	r.boundaryYields = boundaryYields
	return r
}

// waitFor says what a ring side is waiting for, which decides how it
// waits.
type waitFor uint8

const (
	// midFrame: the peer is inside a copy right now — a reader that holds
	// the prefix waits for the head or the body, a writer waits for space
	// on a full ring. What it waits for is a microsecond away: keep
	// yielding.
	midFrame waitFor = iota
	// frameBoundary: between two frames nothing may come for a second. A
	// reader that can be woken yields a few times (the next frame of a
	// busy exchange is that close) and parks.
	frameBoundary
)

// backoff is the pacing of a ring side waiting for the other. It yields
// while the wait is fresh — a busy peer answers within microseconds,
// which is the whole point of the PIO regime — for as long as the kind
// of wait makes an answer likely, then parks on the wake channel with no
// deadline (in-process) or sleeps in growing steps (mmap rings, which can
// only poll and so pace every wait alike).
type backoff struct{ spins int }

const (
	backoffSpins    = 256
	backoffMinSleep = 5 * time.Microsecond
	backoffMaxSleep = 200 * time.Microsecond
	// boundaryYields is the knee of the engine's 512 B ping-pong (one-way
	// p50 / p99 / CPU per message at 4, 16, 32, 64 yields: 5.5 / 40 / 11.6,
	// 5.5 / 34 / 10.7, 6.5 / 37 / 13.3, 6.8 / 35 / 14.9 µs): with fewer the
	// vCPU goes idle between two messages and the tail pays a futex wake,
	// with more the two readers of a rail spend the cores the callers need
	// yielding to each other. The raw two-goroutine ring ping-pong
	// (BenchmarkDevelRingPingPong) cannot show it: nothing there competes
	// for the cores.
	boundaryYields = 16
)

// wait paces one more poll: yield while the wait has lasted fewer than
// yields polls, then park. wake is the calling side's wake channel (nil:
// it can only poll), parks its park counter.
func (b *backoff) wait(wake chan struct{}, yields int, parks *atomic.Uint64) {
	b.spins++
	if b.spins <= yields {
		runtime.Gosched()
		return
	}
	if wake == nil {
		d := backoffMinSleep << uint(min(b.spins-backoffSpins, 6))
		time.Sleep(min(d, backoffMaxSleep))
		return
	}
	if parks != nil {
		parks.Add(1)
	}
	<-wake
}

func (b *backoff) reset() { b.spins = 0 }

// nudge wakes the other side of an in-process ring (no-op when full or
// cross-process).
func nudge(ch chan struct{}) {
	if ch == nil {
		return
	}
	select {
	case ch <- struct{}{}:
	default:
	}
}

// write copies p into the ring, blocking (polling) while it is full.
// Only the producer goroutine may call it. It returns false when abort
// reports true before the copy completes; bytes already copied stay
// published, so an aborted mid-frame write poisons the stream — callers
// only abort when the lane is being torn down.
func (r *ring) write(p []byte, abort func() bool) bool {
	var b backoff
	stalled := false
	for len(p) > 0 {
		t := r.tail.Load()
		free := r.size - (t - r.head.Load())
		if free == 0 {
			if !stalled { // one episode per write, however long the wait
				stalled = true
				if r.stalls != nil {
					r.stalls.Add(1)
				}
				if r.onStall != nil {
					r.onStall()
				}
			}
			if abort() {
				return false
			}
			b.wait(r.spaceWake, backoffSpins, r.writeParks) // a full ring is mid-frame
			continue
		}
		b.reset()
		pos := t % r.size
		n := min(uint64(len(p)), free, r.size-pos)
		copy(r.data[pos:pos+n], p[:n])
		// The store publishes the copied bytes: the consumer loads tail
		// before touching data (Go atomics are sequentially consistent,
		// and compile to the fences cross-process visibility needs).
		r.tail.Store(t + n)
		nudge(r.dataWake)
		p = p[n:]
	}
	return true
}

// tryWrite copies a then b into the ring and publishes them together — the
// consumer sees both or neither — if they fit the free space right now; it
// never waits. Only the producer may call it.
func (r *ring) tryWrite(a, b []byte) bool {
	t := r.tail.Load()
	n := uint64(len(a) + len(b))
	if r.size-(t-r.head.Load()) < n {
		return false
	}
	r.put(t, a)
	r.put(t+uint64(len(a)), b)
	r.tail.Store(t + n)
	nudge(r.dataWake)
	return true
}

// put copies p to cursor position at, wrapping, without publishing it.
func (r *ring) put(at uint64, p []byte) {
	n := copy(r.data[at%r.size:], p)
	copy(r.data, p[n:])
}

// read fills p from the ring, blocking (polling) while it is empty; at
// says whether p starts a frame or continues one. Only the consumer
// goroutine may call it. It returns false when the stream ends first:
// abort reports true, or the ring is empty and the producer said goodbye.
// A killed ring does NOT end the stream — kill discards whole frames at
// the link layer; ending the byte stream mid-frame here would
// desynchronise the framing across a revive.
func (r *ring) read(p []byte, at waitFor, abort func() bool) bool {
	var b backoff
	yields := backoffSpins
	if at == frameBoundary && r.dataWake != nil {
		yields = r.boundaryYields
	}
	for len(p) > 0 {
		h := r.head.Load()
		avail := r.tail.Load() - h
		if avail == 0 {
			if abort() || r.status.Load() == ringGoodbye {
				return false
			}
			b.wait(r.dataWake, yields, r.readParks)
			continue
		}
		b.reset()
		pos := h % r.size
		n := min(uint64(len(p)), avail, r.size-pos)
		copy(p[:n], r.data[pos:pos+n])
		r.head.Store(h + n)
		nudge(r.spaceWake)
		p = p[n:]
	}
	return true
}

// alignedRegion allocates a heap-backed ring region with the 8-byte
// alignment the header atomics need.
func alignedRegion(n int) []byte {
	buf := make([]byte, n+8)
	off := 0
	if rem := int(uintptr(unsafe.Pointer(&buf[0])) % 8); rem != 0 {
		off = 8 - rem
	}
	return buf[off : off+n : off+n]
}
