package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultFlightSlots is the ring capacity of a NewFlightRecorder(0):
// the last 4Ki events, a few seconds of traffic on a busy engine —
// enough context to explain the anomaly that triggered a dump.
const DefaultFlightSlots = 4096

// maxAnomalies bounds the retained anomaly dumps (newest wins).
const maxAnomalies = 8

// anomalyMinGap rate-limits dumps per reason: a stalling shm ring can
// report thousands of episodes per second, and each dump snapshots the
// whole ring.
const anomalyMinGap = 50 * time.Millisecond

// flightSlot is one ring entry. Every field is atomic: concurrent
// writers a full lap apart may collide on a slot, and Snapshot reads
// race with writers by design — the seq protocol discards torn slots,
// and atomics keep the race detector (and cross-package readers)
// honest. Note strings are not stored: a string field would defeat the
// zero-alloc guarantee, and the flight recorder's job is the shape of
// the timeline, not its prose.
type flightSlot struct {
	// seq is 2*gen+1 while generation gen is being written, 2*gen+2
	// once it is published. Snapshot only trusts a slot whose seq reads
	// 2*gen+2 both before and after the field loads.
	seq   atomic.Uint64
	at    atomic.Int64 // time.Duration
	msgID atomic.Uint64
	meta  atomic.Uint64 // kind | rail<<8 | node<<24 | origin<<40
	size  atomic.Int64
}

func packMeta(e Event) uint64 {
	return uint64(uint8(e.Kind)) |
		uint64(uint16(int16(e.Rail)))<<8 |
		uint64(uint16(e.Node))<<24 |
		uint64(uint16(e.Origin))<<40
}

func unpackMeta(m uint64) (kind Kind, rail, node, origin int) {
	kind = Kind(uint8(m))
	rail = int(int16(uint16(m >> 8)))
	node = int(uint16(m >> 24))
	origin = int(uint16(m >> 40))
	return
}

// Anomaly is one auto-dump: the flight-recorder contents at the moment
// something went wrong (rail down, unit replay, shm ring stall).
type Anomaly struct {
	At     time.Duration
	Node   int
	Reason string
	Events []Event
}

// FlightRecorder is the always-on Tracer: a lock-free fixed-size ring
// of the most recent events plus a total per event Kind, cheap enough
// (0 allocs/op, ratcheted) to stay installed on every production engine.
// Snapshot returns the ring on demand; NoteAnomaly captures it
// automatically when the engine detects trouble; Of and TotalRecorded
// count every event ever recorded, ring wrap or not.
type FlightRecorder struct {
	slots []flightSlot
	mask  uint64
	head  atomic.Uint64
	kinds [numKinds]atomic.Uint64

	anomMu    sync.Mutex
	anomalies []Anomaly // newest-wins ring of maxAnomalies
	anomNext  int
	anomTotal uint64
	lastDump  map[string]time.Duration
}

// NewFlightRecorder returns a recorder holding the most recent `size`
// events (rounded up to a power of two; 0 means DefaultFlightSlots).
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightSlots
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &FlightRecorder{
		slots:    make([]flightSlot, n),
		mask:     uint64(n - 1),
		lastDump: make(map[string]time.Duration),
	}
}

// Record implements Tracer. It counts the event's kind, claims the next
// generation with one atomic add and publishes the event under the
// slot's seq protocol — no locks, no allocation. Two writers a full ring lap apart can
// collide on a slot; the loser's generation reads torn and Snapshot
// drops it, which is the right trade for a recorder that must never
// slow the hot path.
//
//railvet:hotpath
func (f *FlightRecorder) Record(e Event) {
	if e.Kind > 0 && e.Kind < numKinds {
		f.kinds[e.Kind].Add(1)
	}
	gen := f.head.Add(1) - 1
	s := &f.slots[gen&f.mask]
	s.seq.Store(2*gen + 1)
	s.at.Store(int64(e.At))
	s.msgID.Store(e.MsgID)
	s.meta.Store(packMeta(e))
	s.size.Store(int64(e.Size))
	s.seq.Store(2*gen + 2)
}

// Len returns the number of events currently held (≤ ring size).
func (f *FlightRecorder) Len() int {
	h := f.head.Load()
	if h > uint64(len(f.slots)) {
		return len(f.slots)
	}
	return int(h)
}

// TotalRecorded returns the number of events ever recorded.
func (f *FlightRecorder) TotalRecorded() uint64 { return f.head.Load() }

// Of returns the number of events of one kind ever recorded.
func (f *FlightRecorder) Of(k Kind) uint64 {
	if k <= 0 || k >= numKinds {
		return 0
	}
	return f.kinds[k].Load()
}

// Overwritten returns how many events have been lost to ring wrap.
func (f *FlightRecorder) Overwritten() uint64 {
	h := f.head.Load()
	if h <= uint64(len(f.slots)) {
		return 0
	}
	return h - uint64(len(f.slots))
}

// Snapshot returns the retained events, oldest first. Slots being
// rewritten while the snapshot runs are skipped (their seq reads
// torn), so a snapshot under full write load returns slightly fewer
// events than Len — never garbage.
func (f *FlightRecorder) Snapshot() []Event {
	h := f.head.Load()
	n := uint64(len(f.slots))
	start := uint64(0)
	if h > n {
		start = h - n
	}
	out := make([]Event, 0, h-start)
	for gen := start; gen < h; gen++ {
		s := &f.slots[gen&f.mask]
		want := 2*gen + 2
		if s.seq.Load() != want {
			continue
		}
		at := s.at.Load()
		msgID := s.msgID.Load()
		meta := s.meta.Load()
		size := s.size.Load()
		if s.seq.Load() != want { // rewritten mid-read: drop it
			continue
		}
		kind, rail, node, origin := unpackMeta(meta)
		out = append(out, Event{
			At: time.Duration(at), Node: node, MsgID: msgID,
			Kind: kind, Rail: rail, Size: int(size), Origin: origin,
		})
	}
	return out
}

// NoteAnomaly records that something went wrong at `at` on `node` and
// snapshots the ring into the anomaly log, rate-limited per reason so
// a storm (a stalling ring, a flapping rail) keeps the first dump of
// each burst instead of thrashing. The clock is the caller's engine
// clock — the recorder itself never reads time.
func (f *FlightRecorder) NoteAnomaly(at time.Duration, node int, reason string) {
	f.anomMu.Lock()
	f.anomTotal++
	if last, ok := f.lastDump[reason]; ok && at-last < anomalyMinGap {
		f.anomMu.Unlock()
		return
	}
	f.lastDump[reason] = at
	a := Anomaly{At: at, Node: node, Reason: reason, Events: f.Snapshot()}
	if len(f.anomalies) < maxAnomalies {
		f.anomalies = append(f.anomalies, a)
	} else {
		f.anomalies[f.anomNext] = a
	}
	f.anomNext = (f.anomNext + 1) % maxAnomalies
	f.anomMu.Unlock()
}

// Anomalies returns the retained anomaly dumps, oldest first.
func (f *FlightRecorder) Anomalies() []Anomaly {
	f.anomMu.Lock()
	defer f.anomMu.Unlock()
	out := make([]Anomaly, 0, len(f.anomalies))
	if len(f.anomalies) == maxAnomalies {
		out = append(out, f.anomalies[f.anomNext:]...)
		out = append(out, f.anomalies[:f.anomNext]...)
	} else {
		out = append(out, f.anomalies...)
	}
	return out
}

// AnomalyTotal returns the number of NoteAnomaly calls, including ones
// the per-reason rate limit suppressed.
func (f *FlightRecorder) AnomalyTotal() uint64 {
	f.anomMu.Lock()
	defer f.anomMu.Unlock()
	return f.anomTotal
}
