package multirail

import (
	"strconv"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/railhealth"
	"repro/internal/trace"
)

// MetricsSnapshot is a point-in-time copy of every metric family the
// cluster exports (what /metrics.json serves).
type MetricsSnapshot = metrics.Snapshot

// MetricLabel selects metrics inside a snapshot (Snapshot.Find).
type MetricLabel = metrics.Label

// MetricsRegistry returns the cluster's metric registry, for embedding
// the families in an application's own exporter.
func (c *Cluster) MetricsRegistry() *metrics.Registry { return c.metricsReg }

// MetricsSnapshot returns a snapshot of every family — engine counters,
// latency histograms, plan cache, telemetry fits, rail health and
// traffic, trace event counts.
func (c *Cluster) MetricsSnapshot() MetricsSnapshot { return c.metricsReg.Snapshot() }

// MetricsAddr returns the bound address of the metrics exporter, or ""
// when Config.MetricsAddr was unset. With a ":0" config value this is
// how the chosen port is discovered.
func (c *Cluster) MetricsAddr() string {
	if c.metricsSrv == nil {
		return ""
	}
	return c.metricsSrv.Addr()
}

// TraceCounts returns how many trace events of one kind the cluster's
// engines have emitted (counted even with no Config.Tracer installed).
func (c *Cluster) TraceCounts(k trace.Kind) uint64 { return c.flight.Of(k) }

// Flight returns the cluster's always-on flight recorder: the last few
// thousand trace events of every hosted engine in a lock-free ring,
// with the anomaly dumps the engines captured (rail down, unit replay,
// shm ring stall). The metrics exporter serves it at /trace/ring.json
// and /trace/perfetto; this accessor is the in-process view.
func (c *Cluster) Flight() *FlightRecorder { return c.flight }

// railStateNames maps fabric.RailState to the metric label values of the
// nm_rail_transitions_total family.
var railStateNames = map[fabric.RailState]string{
	fabric.RailUp:      "up",
	fabric.RailSuspect: "suspect",
	fabric.RailDown:    "down",
}

// initClusterMetrics registers the cluster-level families for one hosted
// node: per-rail traffic and health, plus (once) the per-kind trace
// event counts. Everything is a func instrument over state the fabrics
// already maintain — scraping reads it, the data paths never see it.
func (c *Cluster) initClusterMetrics(node int) {
	reg := c.metricsReg
	nodeL := strconv.Itoa(node)
	n := c.fab.Node(node)

	for r := 0; r < n.NumRails(); r++ {
		r := r
		rail := n.Rail(r)
		lbl := metrics.L("node", nodeL, "rail", strconv.Itoa(r), "kind", c.kinds[r])
		reg.CounterFunc("nm_rail_frames_total",
			"Wire frames the rail carried.",
			func() uint64 { return rail.Stats().Messages }, lbl...)
		reg.CounterFunc("nm_rail_bytes_total",
			"Wire bytes the rail carried.",
			func() uint64 { return rail.Stats().Bytes }, lbl...)
		reg.CounterFunc("nm_rail_reconnects_total",
			"Link re-establishments (live TCP rails; 0 elsewhere).",
			func() uint64 { return rail.Stats().Reconnects }, lbl...)
		reg.CounterFunc("nm_rail_ring_stalls_total",
			"Ring-full backpressure episodes (shm rails; 0 elsewhere).",
			func() uint64 { return rail.Stats().Stalls }, lbl...)
		reg.CounterFunc("nm_rail_ring_parks_total",
			"Times a ring side gave up yielding and parked (shm rails; 0 elsewhere).",
			func() uint64 { return rail.Stats().Parks }, lbl...)
		reg.CounterFunc("nm_rail_inline_writes_total",
			"Frames the sender copied into the rail itself, past the writer goroutine (shm rails; 0 elsewhere).",
			func() uint64 { return rail.Stats().InlineWrites }, lbl...)
		reg.CounterFunc("nm_rail_moved_total",
			"Frames whose body the peer copied straight from the sender's buffer, off the ring (shm rails; 0 elsewhere).",
			func() uint64 { return rail.Stats().Moved }, lbl...)
		reg.GaugeFunc("nm_rail_move_refused",
			"Links of the rail whose peer's bodies cannot be moved and stream through the ring: process_vm_readv refused (mmap shm rails; 0 elsewhere).",
			func() float64 { return float64(rail.Stats().MoveRefused) }, lbl...)

		stateLbl := metrics.L("node", nodeL, "rail", strconv.Itoa(r))
		health := n.Health()
		reg.GaugeFunc("nm_rail_state",
			"Current rail health: 0 up, 1 suspect, 2 down.",
			func() float64 { return float64(health.State(r)) }, stateLbl...)
		// One tracker per node, the mixed fabric's included.
		if tracker, ok := health.(*railhealth.Tracker); ok {
			for st, name := range railStateNames {
				st := st
				reg.CounterFunc("nm_rail_transitions_total",
					"Times the rail entered a health state (initial Up excluded).",
					func() uint64 { return tracker.Transitions(r, st) },
					metrics.L("node", nodeL, "rail", strconv.Itoa(r), "state", name)...)
			}
		}
	}
}

// initTraceMetrics registers the process-wide per-kind trace event
// counts (the flight recorder is shared by every hosted engine) and its
// own health counters.
func (c *Cluster) initTraceMetrics() {
	for _, k := range trace.Kinds() {
		k := k
		c.metricsReg.CounterFunc("nm_trace_events_total",
			"Engine timeline events by kind, across hosted nodes.",
			func() uint64 { return c.flight.Of(k) },
			metrics.L("kind", k.String())...)
	}
	c.metricsReg.CounterFunc("nm_flight_events_total",
		"Events the flight recorder has seen (ring wrap included).",
		c.flight.TotalRecorded)
	c.metricsReg.CounterFunc("nm_flight_overwritten_total",
		"Flight-recorder events lost to ring wrap.",
		c.flight.Overwritten)
	c.metricsReg.CounterFunc("nm_flight_anomalies_total",
		"Anomaly dumps noted (rail down, unit replay, ring stall).",
		c.flight.AnomalyTotal)
}
