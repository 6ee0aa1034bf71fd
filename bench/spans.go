package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/trace"
	"repro/multirail"
)

// The traced run measures from outside the program: the harness records
// a span around each of its own calls into the public API, and joins
// them with the event stream the engine already exports through
// Config.Tracer. New instrumentation inside the engine is a later issue.

type spanKind uint8

const (
	spanIsend spanKind = iota
	spanIrecv
	spanWaitSend
	spanWaitRecv
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"multirail.Isend", "multirail.Irecv", "multirail.Wait.send", "multirail.Wait.recv"}

// callSpan is one timed call. (tag, seq) identify the message within the
// benchmark; the Isend span also carries the engine's message id, which
// joins every span of that message to the engine's own events.
type callSpan struct {
	kind       spanKind
	node       int
	tag        uint32
	seq        uint64
	msgID      uint64 // Isend spans only
	start, end time.Duration
}

// maxSpans bounds the in-memory span log and event log of one traced
// pass; later calls and events are counted, not kept. Medians over the
// first few hundred thousand calls are what the per-layer numbers need.
const maxSpans = 200_000

// event is a trace.Event without its Note: pointer-free, so that the log
// costs the garbage collector nothing to scan while the pass runs.
type event struct {
	at           time.Duration
	msgID        uint64
	size         int32
	node, origin int16
	rail         int16
	kind         trace.Kind
}

// spanLog keeps one traced pass's spans and engine events in memory;
// they are written out when the pass has ended. A nil *spanLog records
// nothing and reads no clock, so the untraced run pays one nil check
// per call site.
type spanLog struct {
	c *multirail.Cluster

	mu      sync.Mutex
	calls   []callSpan
	events  []event
	dropped int
}

func newSpanLog() *spanLog {
	return &spanLog{calls: make([]callSpan, 0, maxSpans), events: make([]event, 0, maxSpans)}
}

// reset forgets what was recorded so far.
func (s *spanLog) reset() {
	s.mu.Lock()
	s.calls, s.events, s.dropped = s.calls[:0], s.events[:0], 0
	s.mu.Unlock()
}

// Record implements multirail.Tracer.
func (s *spanLog) Record(e trace.Event) {
	s.mu.Lock()
	if len(s.events) < cap(s.events) {
		s.events = append(s.events, event{at: e.At, msgID: e.MsgID, size: int32(e.Size),
			node: int16(e.Node), origin: int16(e.Origin), rail: int16(e.Rail), kind: e.Kind})
	} else {
		s.dropped++
	}
	s.mu.Unlock()
}

func (s *spanLog) now() time.Duration {
	if s == nil {
		return 0
	}
	return s.c.Now()
}

func (s *spanLog) add(kind spanKind, node int, tag uint32, seq uint64, start, end time.Duration) {
	if s != nil {
		s.put(callSpan{kind: kind, node: node, tag: tag, seq: seq, start: start, end: end})
	}
}

// addSend records the span of an Isend call that began at start and has
// just returned.
func (s *spanLog) addSend(node int, tag uint32, seq, msgID uint64, start time.Duration) {
	if s != nil {
		s.put(callSpan{kind: spanIsend, node: node, tag: tag, seq: seq, msgID: msgID, start: start, end: s.c.Now()})
	}
}

func (s *spanLog) put(cs callSpan) {
	s.mu.Lock()
	if len(s.calls) < cap(s.calls) {
		s.calls = append(s.calls, cs)
	} else {
		s.dropped++
	}
	s.mu.Unlock()
}

// stitch groups the recorded engine events into one span per message.
func (s *spanLog) stitch() []trace.Span {
	evs := make([]trace.Event, len(s.events))
	for i, e := range s.events {
		evs[i] = trace.Event{At: e.at, Node: int(e.node), MsgID: e.msgID, Kind: e.kind,
			Rail: int(e.rail), Size: int(e.size), Origin: int(e.origin)}
	}
	return trace.Stitch(evs)
}

// callP50 returns the median duration (ns) of the recorded calls of one
// kind, and how many there were.
func (s *spanLog) callP50(kind spanKind) (float64, int) {
	var d []float64
	for _, cs := range s.calls {
		if cs.kind == kind {
			d = append(d, float64(cs.end-cs.start))
		}
	}
	return median(d), len(d)
}

// stage is a named interval inside the engine, cut from its own events.
type stage struct {
	name     string
	from, to trace.Kind
}

var (
	eagerStages = []stage{
		{"core.submit_to_wire", trace.Submit, trace.EagerSent},
		{"core.wire_to_delivered", trace.EagerSent, trace.Delivered},
		{"core.delivered_to_acked", trace.Delivered, trace.Acked},
	}
	rdvStages = []stage{
		{"core.rdv_handshake", trace.RTSSent, trace.ChunkPosted},
		{"core.rdv_chunks_to_delivered", trace.ChunkPosted, trace.Delivered},
	}
	allStages = append(append([]stage(nil), eagerStages...), rdvStages...)
)

// stageP50 returns the median length (ns) of a stage over every message
// span that has both of its events.
func stageP50(spans []trace.Span, st stage) (float64, int) {
	var d []float64
	for i := range spans {
		a, okA := spans[i].First(st.from)
		b, okB := spans[i].First(st.to)
		if okA && okB && b.At >= a.At {
			d = append(d, float64(b.At-a.At))
		}
	}
	return median(d), len(d)
}

// msgKey joins the harness's (node, tag, seq) to the engine's trace id.
type msgKey struct {
	origin int
	tag    uint32
	seq    uint64
}

// chromeEvent is one entry of the Chrome trace-event JSON format, the
// shape trace.PerfettoJSON writes.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TsUs  float64        `json:"ts"`
	DurUs float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   uint64         `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// maxWrittenMsgs bounds a span file: the first messages of the pass are
// enough to read a timeline, and the file stays loadable.
const maxWrittenMsgs = 2000

// write renders the first messages of the pass as Chrome trace-event
// JSON under results/: per message one root slice from its Isend to its
// receiver's Wait, the harness's call spans and the engine's stages as
// child slices (args.parent names the root, args.id the shared message
// id), and the engine's raw events as instants. Process id = node,
// thread id = engine message id.
func (s *spanLog) write(name string, stitched []trace.Span) (string, error) {
	ids := map[msgKey]uint64{}
	for _, cs := range s.calls {
		if cs.kind == spanIsend {
			ids[msgKey{cs.node, cs.tag, cs.seq}] = cs.msgID
		}
	}
	type traceID struct {
		origin int
		msgID  uint64
	}
	keep := map[traceID]bool{}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	var out []chromeEvent
	byMsg := map[traceID][]callSpan{}
	for _, cs := range s.calls {
		// A receive-side call belongs to the message the peer sent.
		origin := cs.node
		if cs.kind == spanIrecv || cs.kind == spanWaitRecv {
			origin = cs.node ^ 1
		}
		id, ok := ids[msgKey{origin, cs.tag, cs.seq}]
		if !ok {
			continue
		}
		k := traceID{origin, id}
		if !keep[k] {
			if len(keep) >= maxWrittenMsgs {
				continue
			}
			keep[k] = true
		}
		byMsg[k] = append(byMsg[k], cs)
	}
	for k, calls := range byMsg {
		root := fmt.Sprintf("msg %d/%d", k.origin, k.msgID)
		var start, end time.Duration
		for _, cs := range calls {
			if cs.kind == spanIsend {
				start = cs.start
			}
			if cs.kind == spanWaitRecv {
				end = cs.end
			}
		}
		if end > start {
			out = append(out, chromeEvent{Name: root, Phase: "X", TsUs: us(start), DurUs: us(end - start), Pid: k.origin, Tid: k.msgID})
		}
		for _, cs := range calls {
			out = append(out, chromeEvent{
				Name: spanNames[cs.kind], Phase: "X", TsUs: us(cs.start), DurUs: max(us(cs.end-cs.start), 0.001),
				Pid: cs.node, Tid: k.msgID, Args: map[string]any{"parent": root, "id": root, "seq": cs.seq},
			})
		}
	}
	for i := range stitched {
		sp := &stitched[i]
		k := traceID{sp.Key.Origin, sp.Key.MsgID}
		if !keep[k] {
			continue
		}
		root := fmt.Sprintf("msg %d/%d", k.origin, k.msgID)
		for _, st := range allStages {
			a, okA := sp.First(st.from)
			b, okB := sp.First(st.to)
			if okA && okB && b.At >= a.At {
				out = append(out, chromeEvent{
					Name: st.name, Phase: "X", TsUs: us(a.At), DurUs: max(us(b.At-a.At), 0.001),
					Pid: k.origin, Tid: k.msgID, Args: map[string]any{"parent": root, "id": root},
				})
			}
		}
		for _, e := range sp.Events {
			out = append(out, chromeEvent{
				Name: e.Kind.String(), Phase: "i", TsUs: us(e.At), Pid: e.Node, Tid: k.msgID,
				Args: map[string]any{"rail": e.Rail, "size": e.Size, "id": root},
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TsUs < out[j].TsUs })
	b, err := json.Marshal(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{out})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(resultsDir, "trace-"+name+".json")
	return path, os.WriteFile(path, b, 0o644)
}
