// Package trace records per-message timelines of the engine's decisions
// and transfers — the role FxT/Pajé tracing plays for the original
// NewMadeleine. A Tracer receives one Event per step (submission,
// strategy decision, chunk posted, delivery, completion). Two
// implementations exist. The FlightRecorder is the always-on sink: every
// engine records into it, and its per-Kind totals (Of) are the metrics
// plane's nm_trace_events_total family. The Collector stores events for
// inspection by tests, tools and examples; an engine records into one as
// an optional second subscriber.
//
// Clock discipline: event timestamps are never taken here — Event.At is
// stamped by the engine from its environment clock, once per message
// boundary: the same instant feeds the event, the stage histogram and
// the transfer unit's send stamp (rt.LiveEnv.Now is internal/clock-backed,
// so enabling a Tracer adds no clock read at all). FlightRecorder.Record
// is //railvet:hotpath so the hotclock analyzer rejects any wall-clock
// read creeping in.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Kind classifies a timeline event.
type Kind int

const (
	// Submit: the application handed the message to the engine.
	Submit Kind = iota + 1
	// Decision: the strategy chose a schedule (Note names the splitter or
	// the probe; the chunks it produced follow as ChunkPosted events).
	Decision
	// EagerSent: an eager container left on Rail (Size = payload bytes,
	// Note is "aggregated" when several packets share it). Notes on the
	// per-message path are constants: a tracer is always installed, so a
	// formatted note would be built for every message and read by none.
	EagerSent
	// OffloadStart: a chunk was registered for a remote core (Fig 7).
	OffloadStart
	// RTSSent and CTSSent mark the rendezvous handshake.
	RTSSent
	CTSSent
	// ChunkPosted: a rendezvous chunk DMA was posted on Rail.
	ChunkPosted
	// Delivered: the receiver completed a message (recv side).
	Delivered
	// Completed: the sender's request completed locally.
	Completed
	// RailLost: a rail went Down (Note holds the reason; MsgID is 0).
	RailLost
	// Resent: a transfer unit was re-planned onto a surviving rail.
	Resent
	// Acked: the last outstanding transfer unit of a message was
	// acknowledged by the receiver (sender side — the point after which
	// failover will never replay any of its frames).
	Acked
	// ReplayedDelivery: the receiver dropped a frame the dedup window
	// recognised as already delivered (a failover replay arriving after
	// the original made it through).
	ReplayedDelivery
	// Reconnect: a rail came back Up after a reconnect (Note holds the
	// health reason; MsgID is 0).
	Reconnect

	// numKinds bounds the Kind enum (for per-kind count arrays).
	numKinds
)

// Kinds returns every event kind, in enum order (metrics iteration).
func Kinds() []Kind {
	out := make([]Kind, 0, int(numKinds)-1)
	for k := Submit; k < numKinds; k++ {
		out = append(out, k)
	}
	return out
}

var kindNames = map[Kind]string{
	Submit: "submit", Decision: "decision", EagerSent: "eager-sent",
	OffloadStart: "offload", RTSSent: "rts", CTSSent: "cts",
	ChunkPosted: "chunk", Delivered: "delivered", Completed: "completed",
	RailLost: "rail-down", Resent: "resent", Acked: "acked",
	ReplayedDelivery: "replayed-delivery", Reconnect: "reconnect",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one step of a message's life.
type Event struct {
	At    time.Duration
	Node  int
	MsgID uint64
	Kind  Kind
	Rail  int // -1 when not rail-specific
	Size  int
	Note  string
	// Origin is the node that submitted the message. Together with
	// MsgID it forms the message's trace id: the wire headers carry it
	// to the far endpoint so receiver-side events land on the same
	// cross-node span as the sender's (see SpanKey). Rail events
	// (RailLost, Reconnect) carry the observing node.
	Origin int
}

func (e Event) String() string {
	rail := ""
	if e.Rail >= 0 {
		rail = fmt.Sprintf(" rail=%d", e.Rail)
	}
	return fmt.Sprintf("%12v n%d msg=%d/%d %-10s%s size=%d %s",
		e.At, e.Node, e.Origin, e.MsgID, e.Kind, rail, e.Size, e.Note)
}

// Tracer receives events. Implementations must be safe for concurrent
// use (the live environment records from many goroutines).
type Tracer interface {
	Record(Event)
}

// DefaultCollectorCap bounds a NewCollector: a long-running cluster
// with a Collector installed must not grow its trace without limit.
// Tests that need every event of an unbounded run use NewCollectorCap
// with an explicit 0 (unlimited).
const DefaultCollectorCap = 1 << 16

// Collector stores events in arrival order, up to a cap; events past
// the cap are counted in Dropped rather than stored.
type Collector struct {
	mu      sync.Mutex
	events  []Event
	cap     int
	dropped uint64
}

// NewCollector returns an empty collector bounded at DefaultCollectorCap.
func NewCollector() *Collector { return &Collector{cap: DefaultCollectorCap} }

// NewCollectorCap returns an empty collector holding at most cap
// events; cap 0 means unlimited (test helpers only — never install an
// unbounded collector on a production cluster).
func NewCollectorCap(cap int) *Collector { return &Collector{cap: cap} }

// Record implements Tracer.
func (c *Collector) Record(e Event) {
	c.mu.Lock()
	if c.cap > 0 && len(c.events) >= c.cap {
		c.dropped++
	} else {
		c.events = append(c.events, e)
	}
	c.mu.Unlock()
}

// Dropped returns the number of events discarded because the collector
// was full.
func (c *Collector) Dropped() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Events returns a snapshot of all recorded events.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Len returns the number of recorded events.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// ByMsg returns the timeline of one message, time-ordered.
func (c *Collector) ByMsg(msgID uint64) []Event {
	var out []Event
	for _, e := range c.Events() {
		if e.MsgID == msgID {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Of returns all events of the given kind, time-ordered.
func (c *Collector) Of(kind Kind) []Event {
	var out []Event
	for _, e := range c.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Dump writes the whole trace, time-ordered, one event per line.
func (c *Collector) Dump(w io.Writer) {
	evs := c.Events()
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	var b strings.Builder
	for _, e := range evs {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	io.WriteString(w, b.String())
}
