package trace

import (
	"encoding/json"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/ratchet"
)

func fev(at time.Duration, node, origin int, msgID uint64, k Kind) Event {
	return Event{At: at, Node: node, Origin: origin, MsgID: msgID, Kind: k, Rail: 0, Size: 8}
}

func TestFlightRecorderRoundTrip(t *testing.T) {
	f := NewFlightRecorder(8)
	for i := 0; i < 5; i++ {
		f.Record(fev(time.Duration(i)*time.Microsecond, 1, 1, uint64(i+1), EagerSent))
	}
	got := f.Snapshot()
	if len(got) != 5 {
		t.Fatalf("snapshot has %d events, want 5", len(got))
	}
	for i, e := range got {
		if e.MsgID != uint64(i+1) || e.Node != 1 || e.Origin != 1 || e.Kind != EagerSent || e.Size != 8 {
			t.Fatalf("event %d round-tripped wrong: %+v", i, e)
		}
		if e.At != time.Duration(i)*time.Microsecond {
			t.Fatalf("event %d timestamp %v, want %v", i, e.At, time.Duration(i)*time.Microsecond)
		}
	}
	if f.Overwritten() != 0 {
		t.Fatalf("overwritten = %d before wrap", f.Overwritten())
	}
}

func TestFlightRecorderWrap(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		f.Record(fev(time.Duration(i), 0, 0, uint64(i+1), Submit))
	}
	got := f.Snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot has %d events after wrap, want 4", len(got))
	}
	// Oldest retained generation is 6 → msgID 7.
	for i, e := range got {
		if e.MsgID != uint64(7+i) {
			t.Fatalf("event %d msgID %d, want %d (oldest-first after wrap)", i, e.MsgID, 7+i)
		}
	}
	if f.Overwritten() != 6 {
		t.Fatalf("overwritten = %d, want 6", f.Overwritten())
	}
	if f.TotalRecorded() != 10 {
		t.Fatalf("total = %d, want 10", f.TotalRecorded())
	}
}

func TestFlightRecorderNegativeRail(t *testing.T) {
	f := NewFlightRecorder(4)
	f.Record(Event{At: time.Second, Node: 2, Origin: 2, MsgID: 9, Kind: Decision, Rail: -1, Size: 0})
	got := f.Snapshot()
	if len(got) != 1 || got[0].Rail != -1 {
		t.Fatalf("rail -1 did not survive the meta packing: %+v", got)
	}
}

// TestFlightRecorderRecordAllocs is the always-on recorder's ratchet:
// it must cost 0 allocs/op or it cannot be installed on every engine.
func TestFlightRecorderRecordAllocs(t *testing.T) {
	f := NewFlightRecorder(0)
	e := fev(time.Millisecond, 1, 1, 42, ChunkPosted)
	allocs := testing.AllocsPerRun(1000, func() { f.Record(e) })
	ratchet.Check(t, "trace/flight_record", allocs)
}

// Concurrent writers wrap the ring many times over while a reader
// snapshots it: no torn event escapes, and the per-kind totals (Of)
// count every event ever recorded, not what the ring still holds. An
// out-of-range kind counts in the total only.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(64)
	kinds := []Kind{Submit, EagerSent, Delivered, Acked}
	var wg sync.WaitGroup
	for w := range kinds {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				f.Record(fev(time.Duration(i), w, w, uint64(i+1), kinds[w]))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				f.Snapshot() // must never return garbage or race
			}
		}
	}()
	wg.Wait()
	close(done)
	for _, e := range f.Snapshot() {
		if e.Node >= len(kinds) || e.Kind != kinds[e.Node] || e.MsgID == 0 || e.MsgID > 500 {
			t.Fatalf("torn event escaped the seq protocol: %+v", e)
		}
	}
	f.Record(fev(0, 0, 0, 1, numKinds))
	if f.TotalRecorded() != 2001 {
		t.Fatalf("total = %d, want 2001", f.TotalRecorded())
	}
	for _, k := range Kinds() {
		want := uint64(0)
		if slices.Contains(kinds, k) {
			want = 500
		}
		if got := f.Of(k); got != want {
			t.Errorf("Of(%v) = %d, want %d", k, got, want)
		}
	}
	if got := f.Of(numKinds); got != 0 {
		t.Errorf("Of(out of range) = %d, want 0", got)
	}
}

func TestFlightRecorderAnomalies(t *testing.T) {
	f := NewFlightRecorder(8)
	f.Record(fev(time.Millisecond, 0, 0, 1, Submit))
	f.NoteAnomaly(2*time.Millisecond, 0, "rail down")
	f.NoteAnomaly(3*time.Millisecond, 0, "rail down") // within min gap: suppressed
	f.NoteAnomaly(100*time.Millisecond, 0, "rail down")
	f.NoteAnomaly(100*time.Millisecond, 1, "shm ring stall")
	got := f.Anomalies()
	if len(got) != 3 {
		t.Fatalf("kept %d anomalies, want 3 (one rate-limited away)", len(got))
	}
	if f.AnomalyTotal() != 4 {
		t.Fatalf("anomaly total = %d, want 4", f.AnomalyTotal())
	}
	if got[0].Reason != "rail down" || len(got[0].Events) != 1 {
		t.Fatalf("first dump wrong: %+v", got[0])
	}
	// Overflow: newest maxAnomalies win.
	for i := 0; i < 2*maxAnomalies; i++ {
		f.NoteAnomaly(time.Duration(i)*time.Second, 0, "replay")
	}
	got = f.Anomalies()
	if len(got) != maxAnomalies {
		t.Fatalf("kept %d anomalies after overflow, want %d", len(got), maxAnomalies)
	}
	for i := 1; i < len(got); i++ {
		if got[i].At < got[i-1].At {
			t.Fatalf("anomalies not oldest-first: %v then %v", got[i-1].At, got[i].At)
		}
	}
}

func TestCollectorBounded(t *testing.T) {
	c := NewCollectorCap(3)
	for i := 0; i < 5; i++ {
		c.Record(fev(time.Duration(i), 0, 0, uint64(i+1), Submit))
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	if c.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", c.Dropped())
	}
	// 0 means unlimited.
	u := NewCollectorCap(0)
	for i := 0; i < 5; i++ {
		u.Record(fev(time.Duration(i), 0, 0, uint64(i+1), Submit))
	}
	if u.Len() != 5 || u.Dropped() != 0 {
		t.Fatalf("unlimited collector: len=%d dropped=%d", u.Len(), u.Dropped())
	}
}

func TestStitch(t *testing.T) {
	events := []Event{
		fev(4*time.Microsecond, 1, 0, 7, Delivered),                  // receiver, sender 0's msg 7
		fev(1*time.Microsecond, 0, 0, 7, Submit),                     // sender
		fev(2*time.Microsecond, 0, 0, 7, EagerSent),                  // sender
		fev(3*time.Microsecond, 1, 1, 7, Submit),                     // different origin, same msgID
		{At: 5 * time.Microsecond, Node: 0, Kind: RailLost, Rail: 1}, // MsgID 0: skipped
		fev(6*time.Microsecond, 0, 0, 7, Completed),
	}
	spans := Stitch(events)
	if len(spans) != 2 {
		t.Fatalf("stitched %d spans, want 2 (same msgID, different origins)", len(spans))
	}
	s := spans[0]
	if s.Key != (SpanKey{Origin: 0, MsgID: 7}) {
		t.Fatalf("first span key %+v", s.Key)
	}
	if len(s.Events) != 4 {
		t.Fatalf("span has %d events, want 4", len(s.Events))
	}
	for i := 1; i < len(s.Events); i++ {
		if s.Events[i].At < s.Events[i-1].At {
			t.Fatalf("span not time-ordered at %d", i)
		}
	}
	if d, ok := s.First(Delivered); !ok || d.Node != 1 {
		t.Fatalf("receiver event missing from sender's span: %+v ok=%v", d, ok)
	}
	if s.Start() != 1*time.Microsecond || s.End() != 6*time.Microsecond {
		t.Fatalf("span bounds %v..%v", s.Start(), s.End())
	}
}

func TestAlignClocks(t *testing.T) {
	events := []Event{
		fev(10*time.Microsecond, 0, 0, 1, EagerSent),
		fev(2*time.Microsecond, 1, 0, 1, Delivered), // receiver clock behind: impossible ordering
	}
	off := AlignClocks(events)
	if off[1] != 8*time.Microsecond {
		t.Fatalf("node 1 offset %v, want 8µs", off[1])
	}
	if events[1].At != 10*time.Microsecond {
		t.Fatalf("receiver event not shifted: %v", events[1].At)
	}
	// Shared clock: no shift.
	ok := []Event{
		fev(1*time.Microsecond, 0, 0, 2, EagerSent),
		fev(3*time.Microsecond, 1, 0, 2, Delivered),
	}
	if off := AlignClocks(ok); len(off) != 0 {
		t.Fatalf("shared-clock events got offsets: %v", off)
	}
}

func TestExportRoundTripAndPerfetto(t *testing.T) {
	f := NewFlightRecorder(8)
	f.Record(fev(1*time.Microsecond, 0, 0, 3, Submit))
	f.Record(fev(2*time.Microsecond, 0, 0, 3, EagerSent))
	f.Record(fev(3*time.Microsecond, 1, 0, 3, Delivered))
	f.NoteAnomaly(4*time.Microsecond, 0, "test")
	snap := TakeRingSnapshot(f)
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back RingSnapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != 3 || back.Total != 3 || len(back.Anomalies) != 1 {
		t.Fatalf("snapshot round trip: %+v", back)
	}
	if got := back.Events[2].Event(); got.Kind != Delivered || got.Origin != 0 || got.Node != 1 {
		t.Fatalf("event round trip: %+v", got)
	}

	p := PerfettoJSON(f.Snapshot())
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(p, &doc); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v", err)
	}
	// One "X" slice for the span plus one "i" instant per event.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("perfetto has %d entries, want 4", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0]["ph"] != "X" {
		t.Fatalf("first perfetto entry is %v, want the span slice", doc.TraceEvents[0]["ph"])
	}
}
