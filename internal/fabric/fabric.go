// Package fabric defines the contract between the communication engine
// (internal/core, the optimizer–scheduler of the paper) and the
// byte-moving substrate underneath it.
//
// The engine schedules transfers; a fabric executes them. These
// implement this contract:
//
//   - internal/simnet: the modeled multirail cluster driven by analytic
//     NIC profiles, on the virtual clock of rt.SimEnv only (deterministic;
//     reproduces the paper's testbed). It is the one fabric that models
//     costs, and it charges them itself.
//   - the two live transports, moving internal/wire frames as actual
//     bytes on the wall clock over one link per (node pair, rail):
//     internal/livenet (a TCP connection per link) and internal/shmnet (a
//     pair of shared-memory rings per link). Both are the rail core
//     (internal/railcore) — one implementation of Node, Rail and
//     TrySender — over their own byte streams, so NewMix can join them
//     into one heterogeneous rail set, e.g. shm and TCP rails side by
//     side on one node. They carry no cost model: real costs elapse on
//     the wall clock.
//
// What every node shares. Whatever moves its bytes, a node's other half
// is the same: its id and health, the sink its deliveries go to (RecvQ
// while none is installed, drained into the sink when one is) and the
// telemetry its transfers are reported to. Inbox is that half, written
// once and embedded by every fabric's node.
//
// The split mirrors the paper's own layering (NewMadeleine's
// optimizer/scheduler above, Madeleine's network drivers below): the
// scheduler only ever asks a rail "when will you be idle?", posts eager
// containers, control messages and DMA chunks, and consumes Delivery
// items from the node's sink (DirectNode). Nothing in the engine may
// depend on how the bytes actually travel.
//
// Direct placement. A rendezvous chunk travels as a small head (the
// encoded chunk header) plus a body (the payload, aliased from the
// sender's buffer by Rail.SendDataV); the link framing of the live
// fabrics carries both lengths. A consumer that knows where payloads
// belong installs a Placer next to its sink (DirectNode.SetPlacer): the
// transport reader reads the head into a scratch buffer, asks the placer
// for the body's destination and fills that slice straight from the ring
// or socket — no frame-sized buffer, no second copy — or, on shmnet,
// straight from the sender's buffer, when the body was large enough to
// leave the ring (see internal/railcore's Mover). The live fabrics stay
// ignorant of what the head says (only the simulator, which models the
// protocol, reads a control frame's kind to charge its cost). Whatever
// the placer declines, every frame missing a
// head or a body (eager containers, control messages, SendData's bare
// body) and every fabric without a placer takes the contiguous path: one
// Delivery whose Data is head followed by body.
//
// Who writes a frame. A send is allowed to finish on the sender's
// goroutine when that cannot make it wait: on a transport that can write
// without waiting (shmnet's rings) the rail core writes a body-less frame
// itself when the rail is idle and the frame fits the ring's free space
// (one bounded memcpy, cheaper than waking the link's writer), and hands
// every other frame — one with a body, one behind a queue, one for a full
// ring, a killed or throttled rail — to the link's writer goroutine, in an
// order equal to the order of the send calls either way. On TCP every
// frame takes the writer: a socket write can block and nothing tells
// beforehand. A goroutine that must never wait (a transport reader) sends
// through TrySender or not at all.
//
// Ownership of small things. Two contracts keep the per-message path free
// of allocations without the engine knowing how a fabric queues or reads:
//
//   - A head (or one-slice frame) of at most PlaceHeadMax bytes is copied
//     when it is posted, by every Rail: acks, RTS/CTS and chunk headers are
//     encoded into the sender's own scratch, which is free again the
//     moment the send call returns. Longer heads — eager containers — and
//     bodies stay aliased as documented on Rail.
//   - Delivery.Release is optional and idempotent. The live transports take
//     the buffer of a contiguous frame, and the Delivery beside it, from a
//     per-node FramePool; a consumer that has copied out what it needs
//     calls Release and the next frame of that size reuses both. A
//     consumer that never calls it — a sink-only probe, RecvQ, anything
//     that parks the frame — keeps the frame
//     for as long as it likes: it is garbage-collected like any other
//     slice. Release on a delivery that did not come from a pool
//     (simulated fabrics, literals, oversized frames) does nothing.
package fabric

import (
	"fmt"
	"time"

	"repro/internal/rt"
)

// Delivery is a message arriving at a node: one internal/wire frame plus
// the receiver-side cost annotations charged by the progression engine.
type Delivery struct {
	// From is the sending node.
	From int
	// Rail is the rail index the message travelled on.
	Rail int
	// Data is the encoded wire frame.
	Data []byte
	// RecvCPU is the fixed receiver-core cost to process the delivery
	// before the engine handler runs (and before completion can fire).
	// Live fabrics report zero: real receive costs elapse on their own.
	RecvCPU time.Duration
	// CopyCPU is additional receiver-core occupancy (the eager receive
	// copy), charged after the handler to model core contention.
	CopyCPU time.Duration

	// Recycling state of a frame that came from a FramePool (see Release);
	// zero for every other delivery.
	pool     *FramePool
	class    uint8
	released bool
}

// Stats aggregates per-rail traffic counters.
type Stats struct {
	Messages uint64
	Bytes    uint64
	BusyTime time.Duration
	// Reconnects counts link re-establishments on the rail (livenet: a
	// replacement connection registered over a dead one). Zero on
	// fabrics without reconnection.
	Reconnects uint64
	// Stalls counts backpressure episodes (shmnet: a ring write that
	// found the ring full and had to wait). Zero on fabrics without
	// bounded rings.
	Stalls uint64
	// Parks counts the times a side of the rail's rings (shmnet: this
	// node's writers and readers) gave up yielding and parked on its wake
	// channel — the rail left the polling fast path. Zero on fabrics that
	// do not poll.
	Parks uint64
	// InlineWrites counts the frames (of Messages) the sender copied into
	// the rail itself instead of handing them to the rail's writer (shmnet:
	// a small frame on an idle link). Zero on fabrics whose writes can block.
	InlineWrites uint64
	// Moved counts the frames (of Messages) whose body the peer copied
	// straight from the sender's buffer instead of reading it from the
	// rail (shmnet: a body at or above the move floor). Zero on fabrics
	// whose bytes must cross the wire.
	Moved uint64
	// MoveRefused counts the rail's links whose peer's bodies cannot be
	// moved (shmnet over mmap: process_vm_readv refused when the peer
	// attached), and MoveRefusedReason says why; those bodies stream
	// through the rail.
	MoveRefused       uint64
	MoveRefusedReason string
}

// RailState is the health of one rail. Rails are a dynamic set: a NIC
// can die mid-message (livenet: broken TCP connection; simnet: injected
// fault) or be unplugged deliberately. The engine excludes non-Up rails
// from scheduling decisions and re-plans unacknowledged transfer units
// when a rail goes Down.
type RailState int

const (
	// RailUp: the rail is believed healthy and schedulable.
	RailUp RailState = iota
	// RailSuspect: a transport fault was observed and recovery (bounded
	// reconnect) is being attempted. No new work is scheduled on it, but
	// in-flight transfers are not yet re-planned.
	RailSuspect
	// RailDown: the rail is dead (recovery exhausted, fault injected, or
	// administratively disabled). Outstanding work is re-planned onto
	// surviving rails.
	RailDown
)

func (s RailState) String() string {
	switch s {
	case RailUp:
		return "up"
	case RailSuspect:
		return "suspect"
	case RailDown:
		return "down"
	default:
		return fmt.Sprintf("RailState(%d)", int(s))
	}
}

// RailEvent is one rail state transition, delivered to Health
// subscribers in transition order.
type RailEvent struct {
	// Node is the node whose rail changed.
	Node int
	// Rail is the rail index.
	Rail int
	// State is the new state.
	State RailState
	// At is the fabric time of the transition.
	At time.Duration
	// Reason describes the cause ("connection lost", "fault injection",
	// "admin", "reconnected", ...).
	Reason string
}

// Health is a node's rail-health surface: per-rail state, a state-change
// notification feed, and administrative control for planned hot-unplug.
// Implemented by internal/railhealth.Tracker for both fabrics.
type Health interface {
	// State returns the current state of one rail.
	State(rail int) RailState
	// States returns a snapshot of every rail's state.
	States() []RailState
	// Subscribe returns a fresh queue that receives a *RailEvent for
	// every subsequent state transition. Each subscriber owns its queue
	// (single consumer); push nil yourself as a stop nudge when the
	// consuming actor should exit.
	Subscribe() rt.Queue
	// Disable administratively forces the rail Down (planned hot-unplug).
	// Transport-level recovery cannot bring it back; Enable can.
	Disable(rail int, reason string)
	// Enable lifts an administrative Disable (and, on fabrics that can,
	// triggers reconnection of dead links). The rail returns to Up.
	Enable(rail int)
}

// Caps is what a rail is, as far as the engine is concerned: the name of
// its kind and the limits that bind every frame posted on it. Costs are
// not part of it — the engine learns those by sampling.
type Caps struct {
	// Kind names the rail's family: "tcp", "shm", or a modeled NIC's
	// profile name ("Myri-10G").
	Kind string
	// EagerMax is the largest eager payload the rail accepts.
	EagerMax int
	// MaxMsg is the largest frame the rail carries in one piece (0: no
	// limit).
	MaxMsg int
}

// Rail is one NIC (or one TCP lane): a serialised send engine with an
// idleness horizon.
type Rail interface {
	// Index returns the rail number within its node.
	Index() int
	// Caps returns the rail's kind and limits.
	Caps() Caps
	// IdleAt predicts when the rail's send engine will have drained all
	// posted work: now — the caller's stamp — if idle, otherwise the
	// expected end of the queued transfers. This is the knowledge Fig 2's
	// NIC selection relies on.
	IdleAt(now time.Duration) time.Duration
	// State returns the rail's current health state. Strategies must not
	// place new work on non-Up rails.
	State() RailState
	// Stats returns a snapshot of the traffic counters.
	Stats() Stats
	// SendEager transmits an eager (PIO) container. It may block the
	// calling actor for the host-side cost; the payload is aliased until
	// the message is handed to the wire (a frame of at most PlaceHeadMax
	// bytes is copied before the call returns, as for every send).
	SendEager(ctx rt.Ctx, to int, data []byte)
	// SendControl transmits a small control message (RTS/CTS/Ack).
	// Control messages are header-sized, hence copied: data may be
	// scratch. A modeled rail charges the protocol costs of the frame's
	// kind itself; live rails ignore what the frame says.
	SendControl(ctx rt.Ctx, to int, data []byte)
	// SendData streams a rendezvous chunk. The calling actor is blocked
	// only for the descriptor post; done (may be nil) fires when the
	// transfer drains and the sender may reuse the buffer. It is
	// SendDataV with no head: data is the body.
	SendData(ctx rt.Ctx, to int, data []byte, done Completion)
	// SendDataV streams a rendezvous chunk given as head followed by
	// body, gathering from both slices without coalescing them: the
	// receiver sees one frame of len(head)+len(body) bytes. The body —
	// and a head longer than PlaceHeadMax — are aliased until done fires
	// (done may be nil: the caller then keeps them untouched until the
	// unit is acknowledged); a shorter head is copied before the call
	// returns.
	SendDataV(ctx rt.Ctx, to int, head, body []byte, done Completion)
}

// TrySender is an optional Rail capability for a goroutine that must not
// wait — a transport reader answering the frame it just decoded. TrySend
// posts a body-less frame exactly as SendControl would, if that takes no
// waiting (the live rails: the sender's own ring write on shm, or a free
// slot in the link's queue), and otherwise
// reports false having done nothing: the caller then leaves the send to a
// goroutine that may block. A plain send from a reader is never an
// option — two readers each blocked on the other's full link would be a
// deadlock.
type TrySender interface {
	TrySend(to int, data []byte) bool
}

// ChunkCapper is an optional Rail capability: MaxChunk returns the largest
// rendezvous chunk worth sending to `to` in one frame right now, or 0 for
// no limit. A shm rail whose peer cannot copy bodies out of this process
// streams them through its ring, which a chunk larger than a fraction of
// the ring would fill by itself; the engine then plans that rail's share
// as several chunks.
type ChunkCapper interface {
	MaxChunk(to int) int
}

// Completion is how a rail reports that a transfer drained: it calls Fire,
// once, from whichever goroutine finished (or dropped) the frame; Fire
// must not block. An rt.Event is one; the engine passes the chunk's own
// transfer unit, so a chunk's local completion needs neither an event nor
// a goroutine parked on it.
type Completion interface{ Fire() }

// Node is one endpoint of the fabric: an indexed set of rails plus a
// delivery queue, which holds what arrives while no consumer is installed
// (DirectNode: the engine takes every delivery from its node's sink).
type Node interface {
	DirectNode
	// ID returns the node's index in the fabric.
	ID() int
	// NumRails returns the number of rails of this node.
	NumRails() int
	// Rail returns the i-th rail.
	Rail(i int) Rail
	// RecvQ returns the queue *Delivery items are pushed to. A nil item
	// is the conventional stop nudge for parked consumers.
	RecvQ() rt.Queue
	// Health returns the node's rail-health surface.
	Health() Health
	// Cores returns the number of cores the node exposes to the
	// communication system: the modeled count on the simulator, the
	// host's (runtime.GOMAXPROCS) on a live fabric.
	Cores() int
	// SetTelemetry installs the node's telemetry sink: every transfer of
	// its rails is reported to it. SetTelemetry(nil) detaches the sink.
	SetTelemetry(Telemetry)
}

// Telemetry receives per-transfer measurements from a fabric's
// transport layer: one call per completed wire transfer, carrying the
// peer, the rail, the bytes moved and the observed duration (a real
// write time on live fabrics; the modeled occupancy plus wire latency
// on simulated ones). Implemented by internal/telemetry.Tracker. Calls
// arrive on transport goroutines (or simulated NIC actors) and must not
// block.
type Telemetry interface {
	ObserveTransfer(peer, rail, bytes int, d time.Duration)
}

// DirectNode is the part of Node that hands deliveries straight to a
// consumer on the transport goroutine that produced them (simnet: at the
// virtual instant the frame lands), bypassing RecvQ. The engine installs
// its dispatch there: the live fabrics' per-link readers and the
// simulator feed the engine's worker pool directly instead of funnelling
// every delivery through one queue and one progression actor. The sink must not block:
// it classifies the delivery and enqueues the engine work elsewhere.
// Installing a sink atomically drains deliveries already sitting in
// RecvQ through it, in order, before any later delivery is handed over
// — a distributed peer may have started sending before the consumer
// existed. SetSink(nil) restores queue delivery.
//
// SetPlacer installs (or, with nil, removes) the placement hook consulted
// for head+body frames; frames it declines, and all frames while none is
// installed, reach the sink (or RecvQ) as contiguous deliveries.
type DirectNode interface {
	SetSink(fn func(*Delivery))
	SetPlacer(fn Placer)
}

// Placer answers a transport reader's question "where does the body of
// this frame go?". from and rail identify the link, head is the frame's
// head (valid only during the call) and bodyLen the number of body bytes
// that follow. It returns the destination — exactly bodyLen bytes the
// reader may write until it reports the outcome to done — or a nil dst to
// decline, in which case the frame is delivered contiguously to the sink.
//
// The placer runs on the reader goroutine and must not block. For every
// accepted placement the reader calls done.Placed exactly once:
// Placed(true) after dst was filled completely, Placed(false) when the
// frame was lost mid-body (read error, shutdown, killed rail) and dst
// holds garbage. Placed must not block either. done is an interface so a
// consumer can answer with an object it recycles rather than a fresh
// closure per frame.
type Placer func(from, rail int, head []byte, bodyLen int) (dst []byte, done Placed)

// Placed receives the outcome of one accepted placement (see Placer).
type Placed interface{ Placed(ok bool) }

// PlacedFunc adapts a function to Placed.
type PlacedFunc func(ok bool)

// Placed calls f(ok).
func (f PlacedFunc) Placed(ok bool) { f(ok) }

// PlaceHeadMax bounds the head a reader offers to a Placer (it is read
// into a per-link scratch buffer of this size); frames with a longer
// head are delivered contiguously. It is also the size up to which every
// Rail copies a head at enqueue (see Head).
const PlaceHeadMax = 64

// Fabric is a set of nodes joined by parallel rails.
type Fabric interface {
	// Env returns the execution environment the fabric runs on.
	Env() rt.Env
	// NumNodes returns the number of nodes.
	NumNodes() int
	// Node returns node i. Fabrics that host only part of a distributed
	// system return a remote stub for non-hosted nodes; stubs expose ID
	// only and panic on any transfer or queue access.
	Node(i int) Node
	// NumRails returns the number of rails joining every node pair.
	NumRails() int
	// ThrottleRail slows rail r artificially on every hosted node: factor
	// > 1 multiplies the rail's effective transfer cost (10 = ten times
	// slower), factor <= 1 removes the throttle. It is the chaos hook that
	// congests a rail without killing it — the rail stays Up, only its
	// observed performance degrades, which is exactly what the telemetry's
	// drift detector must notice.
	ThrottleRail(rail int, factor float64)
	// Close releases transport resources (listeners, connections). It is
	// a no-op for purely in-memory fabrics.
	Close() error
}

// joiner is a fabric that can merge with others into one rail set: the
// live fabrics, through the rail core they embed (railcore.Fabric.Join).
type joiner interface {
	// Join merges parts, the receiver among them, in rail order; local is
	// the node this process hosts (-1: all of them).
	Join(local int, parts ...Fabric) (Fabric, error)
}

// NewMix makes one heterogeneous rail set of several live fabrics — say
// one shared-memory rail and two TCP rails as a single three-rail fabric:
// the rails of subs[k] follow those of subs[0..k-1], and each node is one
// node of the rail core whatever transport its rails run on. local is the
// node id hosted by this process, or -1 when every node is hosted; it must
// match how the subs were built. Fabrics that cannot join (the simulator)
// are refused. Closing the result closes the subs.
func NewMix(local int, subs ...Fabric) (Fabric, error) {
	if len(subs) < 2 {
		return nil, fmt.Errorf("fabric: mix needs at least 2 sub-fabrics, got %d", len(subs))
	}
	j, ok := subs[0].(joiner)
	if !ok {
		return nil, fmt.Errorf("fabric: %T cannot join a mixed rail set", subs[0])
	}
	return j.Join(local, subs...)
}
