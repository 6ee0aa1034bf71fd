package multirail

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/railhealth"
	"repro/internal/rt"
)

// drainRailEvents empties a health subscription queue, counting events
// by the state they announced.
func drainRailEvents(q rt.Queue) map[fabric.RailState]int {
	got := map[fabric.RailState]int{}
	for {
		item, ok := q.TryPop()
		if !ok {
			break
		}
		if ev, ok := item.(*fabric.RailEvent); ok && ev != nil {
			got[ev.State]++
		}
	}
	return got
}

// testHealthTransitionMetrics forces a full Suspect → Down → Enable
// cycle on one rail through node 0's own tracker and checks that the
// transition counters and the state gauge move exactly as the railhealth
// event feed says.
func testHealthTransitionMetrics(t *testing.T, cfg Config, rail int) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	tracker, ok := c.fab.Node(0).Health().(*railhealth.Tracker)
	if !ok {
		t.Fatalf("fabric %q has no railhealth tracker", c.FabricKind())
	}
	q := tracker.Subscribe()

	railL := strconv.Itoa(rail)
	transitions := func(state string) uint64 {
		m := c.MetricsSnapshot().Find("nm_rail_transitions_total",
			metrics.L("node", "0", "rail", railL, "state", state)...)
		if m == nil {
			t.Fatalf("nm_rail_transitions_total{state=%q} missing", state)
		}
		return uint64(m.Value)
	}
	stateGauge := func() float64 {
		m := c.MetricsSnapshot().Find("nm_rail_state",
			metrics.L("node", "0", "rail", railL)...)
		if m == nil {
			t.Fatal("nm_rail_state missing")
		}
		return m.Value
	}
	base := map[string]uint64{
		"up": transitions("up"), "suspect": transitions("suspect"), "down": transitions("down"),
	}

	// Fault observed → bounded recovery running → recovery exhausted.
	tracker.Report(rail, fabric.RailSuspect, "test: transport fault")
	if g := stateGauge(); g != float64(fabric.RailSuspect) {
		t.Fatalf("after Suspect: nm_rail_state = %v, want %d", g, fabric.RailSuspect)
	}
	tracker.Report(rail, fabric.RailDown, "test: recovery exhausted")
	if g := stateGauge(); g != float64(fabric.RailDown) {
		t.Fatalf("after Down: nm_rail_state = %v, want %d", g, fabric.RailDown)
	}
	// Repair: the rail returns to Up.
	tracker.Enable(rail)
	if g := stateGauge(); g != float64(fabric.RailUp) {
		t.Fatalf("after Enable: nm_rail_state = %v, want %d", g, fabric.RailUp)
	}

	// The events the feed delivered are the ground truth the counters
	// must match (set() bumps the counter and publishes under one
	// critical section, so there is no window where they disagree).
	events := drainRailEvents(q)
	want := map[fabric.RailState]int{
		fabric.RailSuspect: 1, fabric.RailDown: 1, fabric.RailUp: 1,
	}
	for st, n := range want {
		if events[st] != n {
			t.Fatalf("event feed delivered %d %v events, want %d", events[st], st, n)
		}
	}
	for st, name := range railStateNames {
		if got, wantN := transitions(name)-base[name], uint64(events[st]); got != wantN {
			t.Fatalf("nm_rail_transitions_total{state=%q} moved by %d, events say %d", name, got, wantN)
		}
	}
}

func TestHealthTransitionMetricsSim(t *testing.T) {
	testHealthTransitionMetrics(t, Config{}, 0)
}

func TestHealthTransitionMetricsTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock fabric")
	}
	testHealthTransitionMetrics(t, Config{
		Fabric: FabricTCP, Nodes: 2, TCPRails: 2, SamplingMax: 64 << 10,
	}, 0)
}

// On the mixed fabric the TCP rail (rail 1, after the shm rail) lives in
// the node's one tracker, under its own index.
func TestHealthTransitionMetricsMixed(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock fabric")
	}
	testHealthTransitionMetrics(t, Config{
		Fabric: FabricTCP, Nodes: 2, ShmRails: 1, TCPRails: 1, SamplingMax: 64 << 10,
	}, 1)
}

// A mixed cluster's rails share one health tracker per node, which
// publishes a transition before the call that caused it returns: the Down
// event of DisableRail is already queued for every subscriber, with no
// forwarding goroutine in between.
func TestMixedHealthPublishesSynchronously(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock fabric")
	}
	c, err := New(Config{Fabric: FabricTCP, Nodes: 2, ShmRails: 1, TCPRails: 1, SamplingMax: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := c.fab.Node(0).Health().Subscribe()
	c.DisableRail(1)
	item, ok := q.TryPop()
	if !ok {
		t.Fatal("no health event queued when DisableRail returned")
	}
	if ev := item.(*fabric.RailEvent); ev.Node != 0 || ev.Rail != 1 || ev.State != fabric.RailDown {
		t.Fatalf("first event %+v, want node 0 rail 1 down", ev)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMetricsExporterMixedCluster is the ISSUE 7 acceptance test: a live
// mixed shm+tcp cluster with the adaptive loop on serves /metrics and
// /metrics.json with the per-rail families populated — traffic counted
// on both substrates, latency histograms filled, plan cache and
// telemetry and trace families present.
func TestMetricsExporterMixedCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock fabric")
	}
	c, err := New(Config{
		Live:              true,
		Nodes:             2,
		ShmRails:          1,
		TCPRails:          1,
		SamplingMax:       64 << 10,
		AdaptiveTelemetry: true,
		MetricsAddr:       "127.0.0.1:0",
		MetricsPprof:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.MetricsAddr() == "" {
		t.Fatal("MetricsAddr empty with exporter configured")
	}

	// Eager and rendezvous traffic so every observation path runs.
	c.Go("traffic", func(ctx rt.Ctx) {
		small := []byte("metrics probe")
		buf := make([]byte, 64)
		for i := uint32(0); i < 20; i++ {
			rr := c.Node(1).Irecv(0, i, buf)
			sr := c.Node(0).Isend(1, i, small)
			sr.Wait(ctx)
			if _, err := rr.Wait(ctx); err != nil {
				t.Error(err)
			}
		}
		big := make([]byte, 1<<20)
		bigBuf := make([]byte, 1<<20)
		rr := c.Node(1).Irecv(0, 999, bigBuf)
		sr := c.Node(0).Isend(1, 999, big)
		sr.Wait(ctx)
		if _, err := rr.Wait(ctx); err != nil {
			t.Error(err)
		}
	})
	c.Run()

	// Acks arrive asynchronously after Wait returns; poll the snapshot
	// until both histograms have observations.
	histCount := func(family string) uint64 {
		m := c.MetricsSnapshot().Find(family, metrics.L("node", "0")...)
		if m == nil {
			return 0
		}
		return m.Count
	}
	waitFor(t, 5*time.Second, "latency histogram observations", func() bool {
		return histCount("nm_eager_latency_seconds") > 0 && histCount("nm_rdv_latency_seconds") > 0
	})

	snap := c.MetricsSnapshot()
	for _, kind := range []string{"shm", "tcp"} {
		m := snap.Find("nm_rail_frames_total", metrics.L("node", "0", "kind", kind)...)
		if m == nil || m.Value == 0 {
			t.Fatalf("nm_rail_frames_total{kind=%q} = %+v, want > 0 (sampling alone crosses every rail)", kind, m)
		}
	}
	if m := snap.Find("nm_rail_moved_total", metrics.L("node", "0", "kind", "shm")...); m == nil || m.Value == 0 {
		t.Fatalf("nm_rail_moved_total{kind=shm} = %+v, want > 0 (a 1 MiB rendezvous crossed the shm rail)", m)
	}
	if m := snap.Find("nm_rail_move_refused", metrics.L("node", "0", "kind", "shm")...); m == nil || m.Value != 0 {
		t.Fatalf("nm_rail_move_refused{kind=shm} = %+v, want 0 on a hosted rail", m)
	}
	if m := snap.Find("nm_engine_events_total", metrics.L("node", "0", "kind", "eager_sent")...); m == nil || m.Value == 0 {
		t.Fatalf("nm_engine_events_total{kind=eager_sent} = %+v, want > 0", m)
	}
	if m := snap.Find("nm_engine_events_total", metrics.L("node", "0", "kind", "rdv_sent")...); m == nil || m.Value == 0 {
		t.Fatalf("nm_engine_events_total{kind=rdv_sent} = %+v, want > 0", m)
	}
	if m := snap.Find("nm_telemetry_observations_total", metrics.L("node", "0")...); m == nil || m.Value == 0 {
		t.Fatalf("nm_telemetry_observations_total = %+v, want > 0", m)
	}
	if m := snap.Find("nm_trace_events_total", metrics.L("kind", "submit")...); m == nil || m.Value == 0 {
		t.Fatalf("nm_trace_events_total{kind=submit} = %+v, want > 0", m)
	}
	if f := snap.Family("nm_plan_cache_hits_total"); f == nil || len(f.Metrics) == 0 {
		t.Fatal("nm_plan_cache_hits_total family missing")
	}

	// The HTTP surface: Prometheus text and the JSON snapshot must agree
	// with the in-process view.
	get := func(path string) string {
		resp, err := http.Get("http://" + c.MetricsAddr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	text := get("/metrics")
	for _, want := range []string{
		"# TYPE nm_rail_frames_total counter",
		`nm_rail_frames_total{node="0",rail="0",kind="shm"}`,
		"# TYPE nm_eager_latency_seconds histogram",
		`nm_eager_latency_seconds_bucket{node="0",le=`,
		"nm_rail_state{",
		"nm_rail_transitions_total{",
		"# TYPE nm_rail_moved_total counter",
		"# TYPE nm_rail_move_refused gauge",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text[:min(len(text), 2000)])
		}
	}
	var remote metrics.Snapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &remote); err != nil {
		t.Fatal(err)
	}
	if m := remote.Find("nm_eager_latency_seconds", metrics.L("node", "0")...); m == nil || m.Count == 0 {
		t.Fatalf("/metrics.json eager histogram = %+v, want observations", m)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Fatal("pprof endpoint empty with MetricsPprof set")
	}
}
