package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rt"
)

// SendRequest tracks one Isend. Done fires when the payload has left the
// host (every PIO copy posted or every DMA drained) and the buffer is
// reusable.
//
// It is the one heap object an eager send costs: both completion events
// and the container's transfer unit are embedded in it. Requests are
// never recycled — callers read them after completion and the unit
// tables point at them until the ack.
type SendRequest struct {
	// To, Tag and Data describe the message.
	To   int
	Tag  uint32
	Data []byte

	done  rt.Event
	acked rt.Event
	msgID uint64

	// doneSlot and ackedSlot are where done and acked live on a live
	// environment (rt.Env.EventAt); the simulator leaves them unused.
	doneSlot, ackedSlot rt.LiveEvent

	// cont is the eager container this request heads: the unit of a
	// container is embedded in the first request riding it, and
	// contNext chains the others. Chunk units (rendezvous, parallel
	// eager) are separate objects.
	cont     unit
	contNext *SendRequest

	// rdvStart is when the rendezvous handshake began (telemetry's
	// whole-rendezvous clock); zero for eager sends. Written once by the
	// flush worker before the RTS leaves, read by the ack completion.
	rdvStart time.Duration
	// submitAt and decideAt anchor the stage-latency attribution:
	// submitAt is stamped by Isend, decideAt by the flush worker when
	// the strategy picks this message's schedule. Readers (the flush
	// worker, the ack handlers) are downstream of those writes through
	// the submit queue and the transport round trip.
	submitAt time.Duration
	decideAt time.Duration
	// failedOver marks a request some unit of which was replayed onto
	// another rail: its end-to-end time includes the failover stall and
	// must not train the original rail's telemetry.
	failedOver atomic.Bool

	mu         sync.Mutex
	pending    int // outstanding chunks before Done fires
	ackPending int // outstanding unit acks before RemoteDone fires
}

// Done returns the completion event.
func (r *SendRequest) Done() rt.Event { return r.done }

// RemoteDone returns the remote-completion event: it fires when the
// receiver has acknowledged every transfer unit of the message, i.e.
// nothing of it can still be lost to a dying rail. Until then the
// payload buffer must stay untouched — the failover path re-sends lost
// chunks from it.
func (r *SendRequest) RemoteDone() rt.Event { return r.acked }

// Wait blocks the calling actor until the send completes locally.
func (r *SendRequest) Wait(ctx rt.Ctx) { r.done.Wait(ctx) }

// MsgID returns the engine-assigned message id (tracing).
func (r *SendRequest) MsgID() uint64 { return r.msgID }

func (r *SendRequest) addPending(n int) {
	r.mu.Lock()
	r.pending += n
	r.mu.Unlock()
}

// chunkDone decrements the outstanding-chunk count. It reports whether
// this call completed the request: the caller then records the
// completion and fires Done (Engine.noteCompleted), exactly once.
func (r *SendRequest) chunkDone() bool {
	r.mu.Lock()
	r.pending--
	fire := r.pending == 0
	r.mu.Unlock()
	return fire
}

func (r *SendRequest) addAcks(n int) {
	r.mu.Lock()
	r.ackPending += n
	r.mu.Unlock()
}

// ackDone decrements the outstanding-ack count. It reports whether this
// call completed the request remotely: the caller then records the
// remote completion and fires RemoteDone (Engine.noteAcked), exactly
// once.
func (r *SendRequest) ackDone() bool {
	r.mu.Lock()
	r.ackPending--
	fire := r.ackPending == 0
	r.mu.Unlock()
	return fire
}

func (r *SendRequest) String() string {
	return fmt.Sprintf("send{to=%d tag=%d n=%d id=%d}", r.To, r.Tag, len(r.Data), r.msgID)
}

// RecvRequest tracks one Irecv. Done fires when a matching message has
// fully arrived in Buf.
type RecvRequest struct {
	// From and Tag select the source and matching tag.
	From int
	Tag  uint32
	// Buf receives the payload; messages longer than Buf are an error
	// (fires Done with Err set).
	Buf []byte

	done     rt.Event
	doneSlot rt.LiveEvent // done's storage on a live environment

	// rdv is the reassembly of a rendezvous into Buf (attachRdv).
	rdv partial

	mu  sync.Mutex
	n   int
	err error
}

// Done returns the completion event.
func (r *RecvRequest) Done() rt.Event { return r.done }

// Wait blocks until the message arrived; it returns the received length.
func (r *RecvRequest) Wait(ctx rt.Ctx) (int, error) {
	r.done.Wait(ctx)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n, r.err
}

// Len returns the received length (valid after Done fires).
func (r *RecvRequest) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Err returns the receive error, if any (valid after Done fires).
func (r *RecvRequest) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

func (r *RecvRequest) complete(n int, err error) {
	r.mu.Lock()
	r.n, r.err = n, err
	r.mu.Unlock()
	r.done.Fire()
}

func (r *RecvRequest) String() string {
	return fmt.Sprintf("recv{from=%d tag=%d cap=%d}", r.From, r.Tag, len(r.Buf))
}
