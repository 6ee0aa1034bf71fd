package shmnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"unsafe"

	"repro/internal/railcore"
)

// Moving a body instead of streaming it (railcore.Mover). The writer puts
// a moved frame's prefix and head on the ring, then an 8-byte descriptor
// where the body would be; the body stays in the sender's buffer, parked
// in a slot of the ring's move table until the consumer has copied it:
//
//   - hosted (both nodes in this process): the descriptor is the slot
//     number — never an address — and the consumer's reader copies the
//     slot's body and finishes the move itself;
//   - mmap (two processes): the descriptor is the body's address in the
//     sender; the consumer copies with process_vm_readv, from the pid the
//     sender published in the ring header, and counts the copy in the
//     header's moveDone cursor, which the sender's own reader reaps.
//
// Slots fill and free in stream order, so the table is a ring too: with
// the next slot still busy a body the lane would stream (StreamMax) streams
// instead, and a larger one waits for the slot, as a write waits for ring
// space — it would otherwise fill the ring by itself.
//
// A sender that closes with moves its peer process has not copied revokes
// them in the header (moveRevoked) before it finishes them, and the peer's
// reader checks that word after each copy: a body copied after the
// revocation — its owner may have reused the buffer since — is dropped,
// never delivered.

const (
	// MoveFloor is the smallest body a lane moves, unless a quarter of
	// the ring is smaller: a body that streams can then never fill the
	// ring by itself. A quarter of the ring is also the largest chunk the
	// engine plans on a lane that streams its bodies (StreamMax).
	MoveFloor = 32 << 10
	// moveSlots bounds the bodies one ring direction has handed over and
	// not yet seen copied.
	moveSlots = 16
	// descSize is a moved body's descriptor in the stream.
	descSize = 8
	// probeMagic is the word a consumer reads from its producer's memory
	// to learn whether it may.
	probeMagic = 0x45564f4d52474e52 // "RNGRMOVE" little-endian
)

// The consumer's verdict on its producer's memory, in the header's moveOK
// word (mmap pairs; a hosted ring needs none).
const (
	moveUnprobed = iota
	moveAccepted
	moveRefused
)

// probeWord is what a peer's probe reads, at the address each producer
// publishes.
var probeWord uint64 = probeMagic

// moveSlot holds one body handed to the consumer.
type moveSlot struct {
	m    railcore.Move
	busy atomic.Bool
}

// moveTable is a ring direction's moved bodies not yet copied, slot
// seq%moveSlots for the seq-th move.
type moveTable struct {
	slots [moveSlots]moveSlot
	// seq is the producer's count of moves; reaped, in an mmap pair, the
	// moves the producer's reader has finished (the consumer's moveDone
	// runs ahead of it).
	seq, reaped uint64
}

// take empties a busy slot, freeing it for the producer, and returns its
// move for the caller to finish.
func (s *moveSlot) take() railcore.Move {
	m := s.m
	s.m = railcore.Move{}
	s.busy.Store(false)
	return m
}

// sweep finishes, uncopied, every move still in the table. It runs when
// the fabric has closed, its writers and readers gone; an mmap lane's
// moves are revoked and reaped first (lane.revoke).
func (t *moveTable) sweep() {
	for i := range t.slots {
		if s := &t.slots[i]; s.busy.Load() {
			s.take().Finish(false)
		}
	}
}

// revoke forbids the peer process to deliver the bodies this closing lane
// handed it, then finishes those it has copied already. Its reader counts
// a copy before it checks for the revocation, and this side revokes
// before it looks at the count, so each copy is either counted here — it
// read the body intact — or dropped there. The reader must have exited.
func (ln *lane) revoke() {
	if ln.remote {
		ln.send.moveRevoked.Store(1)
		ln.reap()
	}
}

// StreamMax returns the largest chunk body worth streaming through the
// ring in one frame, a quarter of it (railcore.Mover).
func (ln *lane) StreamMax() int { return len(ln.send.data) / 4 }

// MoveFloor returns the smallest body the lane moves: 0 when moving is
// off, and in an mmap pair until the peer's reader has probed this
// process's memory successfully.
//
//railvet:hotpath
func (ln *lane) MoveFloor() int {
	if ln.remote && ln.send.moveOK.Load() != moveAccepted {
		return 0
	}
	return ln.floor
}

// WriteMove parks m's body in the next move slot and writes prefix, head
// and the body's descriptor to the send ring (railcore.Mover). With that
// slot still busy it writes nothing and the body streams, unless the body
// is larger than the lane streams: it then waits for the peer's copy that
// frees the slot.
//
//railvet:hotpath
func (ln *lane) WriteMove(prefix, head []byte, m railcore.Move) (bool, error) {
	t := &ln.send.moves
	k := t.seq % moveSlots
	s := &t.slots[k]
	if s.busy.Load() {
		if len(m.Body) <= ln.StreamMax() {
			return false, nil
		}
		var b backoff
		for s.busy.Load() {
			if ln.abort() {
				return false, railcore.ErrClosing
			}
			b.wait(nil, backoffSpins, nil) // the copy is a peer's poll away
		}
	}
	s.m = m
	s.busy.Store(true)
	t.seq++
	d := k
	if ln.remote {
		d = uint64(uintptr(unsafe.Pointer(unsafe.SliceData(m.Body))))
	}
	binary.LittleEndian.PutUint64(ln.desc[:], d)
	if ln.send.write(prefix, ln.abort) && ln.send.write(head, ln.abort) && ln.send.write(ln.desc[:], ln.abort) {
		return true, nil
	}
	return true, railcore.ErrClosing // the slot waits for the sweep at Close
}

// ReadMove reads a moved body's descriptor and copies the body into dst
// (railcore.Mover): from the shared slot, finishing the move, when both
// ends are in this process; from the peer's memory otherwise, counting
// the copy in moveDone for the peer to reap.
//
//railvet:hotpath
func (ln *lane) ReadMove(dst []byte) error {
	if !ln.recv.read(ln.rdesc[:], midFrame, ln.readAbort) {
		return railcore.ErrGoodbye
	}
	d := binary.LittleEndian.Uint64(ln.rdesc[:])
	if ln.remote {
		err := readPeer(ln.peerPid, dst, uintptr(d))
		ln.recv.moveDone.Add(1)
		if ln.recv.moveRevoked.Load() != 0 {
			return railcore.ErrGoodbye // the peer closed: dst may hold reused bytes
		}
		return err
	}
	if d >= moveSlots {
		return errBadDescriptor
	}
	s := &ln.recv.moves.slots[d]
	if !s.busy.Load() || len(s.m.Body) != len(dst) {
		return errBadDescriptor
	}
	copy(dst, s.m.Body)
	s.take().Finish(true)
	return nil
}

var errBadDescriptor = errors.New("shmnet: moved body's descriptor names no body of its length")

// reap finishes the moves the mmap peer has copied since the last call. It
// runs on the lane's reader goroutine only — at every read and at every
// poll of an empty ring — so a finished move is seen within one poll. The
// peer's cursor orders the slot's fill before this read, but lives in
// shared memory the race detector does not follow; loading the slot's own
// busy flag, which the writer set after filling it, says so in Go terms.
func (ln *lane) reap() {
	t := &ln.send.moves
	for done := ln.send.moveDone.Load(); t.reaped < done; t.reaped++ {
		if s := &t.slots[t.reaped%moveSlots]; s.busy.Load() {
			s.take().Finish(true)
		}
	}
}

// publishProducer writes this process's pid and probe word address into
// the header of a ring it produces for a peer process, before any frame.
func publishProducer(r *ring) {
	r.producerPid.Store(uint64(os.Getpid()))
	r.probeAddr.Store(uint64(uintptr(unsafe.Pointer(&probeWord))))
}

// probePeer decides, once, on the consumer's first frame from an mmap
// peer — whose pid and probe word are in the header by then — whether
// this process may copy that peer's bodies, and publishes the verdict for
// the peer's writer. A refusal is reported with its reason; the peer's
// bodies then stream.
func (ln *lane) probePeer() {
	ln.probed = true
	pid, addr := int(ln.recv.producerPid.Load()), uintptr(ln.recv.probeAddr.Load())
	var got [8]byte
	err := readPeer(pid, got[:], addr)
	if err == nil && binary.LittleEndian.Uint64(got[:]) != probeMagic {
		err = errors.New("probe word mismatch")
	}
	if err != nil {
		ln.recv.moveOK.Store(moveRefused)
		if ln.refused != nil {
			ln.refused(fmt.Sprintf("process_vm_readv from pid %d: %v", pid, err))
		}
		return
	}
	ln.peerPid = pid
	ln.recv.moveOK.Store(moveAccepted)
}
