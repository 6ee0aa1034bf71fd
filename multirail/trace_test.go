package multirail_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/multirail"
)

// TestFlightRecorderStitchesMixedCluster is the distributed-tracing
// acceptance check: on a live 3-node mixed shm+tcp cluster, one eager
// message and one striped rendezvous must each stitch — from the
// always-on flight recorder alone — into a single cross-node span
// carrying the sender's trace id (origin + message id), with the
// receiver-side events attributed to it and the stages in order:
// Submit first, then the wire events, Delivered on the far node, and
// Completed/Acked closing the sender side.
func TestFlightRecorderStitchesMixedCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock mixed fabric")
	}
	const (
		eagerSize = 1111   // below both eager thresholds
		rdvSize   = 200000 // above both: forced rendezvous
	)
	c, err := multirail.New(multirail.Config{
		Live:     true,
		Nodes:    3,
		ShmRails: 1,
		TCPRails: 1,
		Splitter: multirail.IsoSplit(), // stripe over both rail kinds
		// Pinned thresholds (4 and 16 KiB, cap 32 KiB): live sampling can
		// put the crossover below eagerSize on a busy host.
		SamplingFrom: thresholdSampling(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.FabricKind() != "shm+tcp" {
		t.Fatalf("fabric %s, want shm+tcp", c.FabricKind())
	}

	eager := make([]byte, eagerSize)
	rdv := make([]byte, rdvSize)
	bufE := make([]byte, eagerSize)
	bufR := make([]byte, rdvSize)
	c.Go("traced", func(ctx multirail.Ctx) {
		rrE := c.Node(1).Irecv(0, 7, bufE)
		rrR := c.Node(2).Irecv(0, 8, bufR)
		srE := c.Node(0).Isend(1, 7, eager)
		srR := c.Node(0).Isend(2, 8, rdv)
		for _, rr := range []*multirail.RecvRequest{rrE, rrR} {
			if _, err := rr.Wait(ctx); err != nil {
				panic(fmt.Sprintf("recv: %v", err))
			}
		}
		srE.RemoteDone().Wait(ctx)
		srR.RemoteDone().Wait(ctx)
	})
	c.Run()

	// RemoteDone wakes the waiter the instant the last ack lands; the
	// Acked trace event is recorded by the acking goroutine right after.
	// Poll briefly instead of racing it.
	var eagerSpan, rdvSpan *trace.Span
	deadline := time.Now().Add(2 * time.Second)
	for {
		spans := trace.Stitch(c.Flight().Snapshot())
		eagerSpan = findSpanBySize(spans, eagerSize)
		rdvSpan = findSpanBySize(spans, rdvSize)
		if complete(eagerSpan) && complete(rdvSpan) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("spans incomplete after 2s: eager=%v rdv=%v",
				kinds(eagerSpan), kinds(rdvSpan))
		}
		time.Sleep(5 * time.Millisecond)
	}

	checkSpan(t, "eager", eagerSpan, 0, 1)
	if !eagerSpan.Has(trace.EagerSent) {
		t.Errorf("eager span missing EagerSent: %v", kinds(eagerSpan))
	}

	checkSpan(t, "rdv", rdvSpan, 0, 2)
	for _, k := range []trace.Kind{trace.RTSSent, trace.CTSSent, trace.ChunkPosted} {
		if !rdvSpan.Has(k) {
			t.Errorf("rdv span missing %s: %v", k, kinds(rdvSpan))
		}
	}
	if cts, ok := rdvSpan.First(trace.CTSSent); ok && cts.Node != 2 {
		t.Errorf("CTS recorded on node %d, want the receiver (2)", cts.Node)
	}
	rails := map[int]bool{}
	for _, e := range rdvSpan.Events {
		if e.Kind == trace.ChunkPosted {
			rails[e.Rail] = true
		}
	}
	if len(rails) < 2 {
		t.Errorf("iso-split rendezvous used rails %v, want chunks on both", rails)
	}
}

// findSpanBySize returns the span whose Delivered event carried `size`
// bytes — how the test tells its messages apart in the shared ring.
func findSpanBySize(spans []trace.Span, size int) *trace.Span {
	for i := range spans {
		if e, ok := spans[i].First(trace.Delivered); ok && e.Size == size {
			return &spans[i]
		}
	}
	return nil
}

func complete(s *trace.Span) bool {
	return s != nil && s.Has(trace.Submit) && s.Has(trace.Delivered) &&
		s.Has(trace.Completed) && s.Has(trace.Acked)
}

func kinds(s *trace.Span) []string {
	if s == nil {
		return nil
	}
	out := make([]string, len(s.Events))
	for i, e := range s.Events {
		out[i] = fmt.Sprintf("%s@n%d", e.Kind, e.Node)
	}
	return out
}

// checkSpan asserts the cross-node invariants every complete span must
// satisfy: the trace id names the sender, the span opens with Submit on
// the sender, the receiver's Delivered is attributed to the sender's
// trace id, and the sender-side closers are present.
func checkSpan(t *testing.T, name string, s *trace.Span, origin, dest int) {
	t.Helper()
	if s.Key.Origin != origin {
		t.Errorf("%s: span origin %d, want %d", name, s.Key.Origin, origin)
	}
	if s.Events[0].Kind != trace.Submit || s.Events[0].Node != origin {
		t.Errorf("%s: span opens with %s@n%d, want submit@n%d",
			name, s.Events[0].Kind, s.Events[0].Node, origin)
	}
	d, _ := s.First(trace.Delivered)
	if d.Node != dest {
		t.Errorf("%s: Delivered on node %d, want %d", name, d.Node, dest)
	}
	if d.Origin != origin {
		t.Errorf("%s: receiver attributed delivery to origin %d, want %d",
			name, d.Origin, origin)
	}
	for i := 1; i < len(s.Events); i++ {
		if s.Events[i].At < s.Events[i-1].At {
			t.Errorf("%s: events out of order at %d", name, i)
		}
	}
}

// TestTraceCountsMatchTracer: the per-kind totals the cluster reports
// (TraceCounts, nm_trace_events_total) are read from the flight
// recorder, and a Config.Tracer receives the same events — so over a
// simulated run that exercises eager aggregation, parallel eager and
// striped rendezvous, a collector's count of each kind equals
// TraceCounts of that kind, for every kind.
func TestTraceCountsMatchTracer(t *testing.T) {
	col := multirail.NewTraceCollector()
	c, err := multirail.New(multirail.Config{Tracer: col, EagerParallel: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Go("app", func(ctx multirail.Ctx) {
		// A lone medium message goes parallel eager; then a burst of small
		// ones shares a container beside a striped rendezvous.
		for _, sizes := range [][]int{{16 << 10}, {16, 16, 16, 4 << 20}} {
			var recvs []*multirail.RecvRequest
			var sends []*multirail.SendRequest
			for i, n := range sizes {
				recvs = append(recvs, c.Node(1).Irecv(0, uint32(i), make([]byte, n)))
			}
			for i, n := range sizes {
				sends = append(sends, c.Node(0).Isend(1, uint32(i), make([]byte, n)))
			}
			for i := range sizes {
				recvs[i].Wait(ctx)
				sends[i].RemoteDone().Wait(ctx)
			}
		}
	})
	c.Run()
	if col.Dropped() != 0 {
		t.Fatalf("collector dropped %d events", col.Dropped())
	}
	for _, k := range trace.Kinds() {
		if got, want := c.TraceCounts(k), uint64(len(col.Of(k))); got != want {
			t.Errorf("TraceCounts(%v) = %d, the tracer saw %d", k, got, want)
		}
	}
	if total := c.Flight().TotalRecorded(); total != uint64(col.Len()) {
		t.Errorf("flight recorder saw %d events, the tracer %d", total, col.Len())
	}
	for _, k := range []trace.Kind{trace.Submit, trace.EagerSent, trace.OffloadStart, trace.RTSSent,
		trace.CTSSent, trace.ChunkPosted, trace.Delivered, trace.Completed, trace.Acked} {
		if c.TraceCounts(k) == 0 {
			t.Errorf("the run produced no %v events: it no longer covers that kind", k)
		}
	}
}
