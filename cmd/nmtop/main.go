// Nmtop is a live dashboard over a running cluster's metrics endpoint —
// top(1) for the multirail engine. Point it at a process started with
// Config.MetricsAddr (or nmping -metrics-addr) and it polls
// /metrics.json, rendering per-rail health, traffic rates, latency
// quantiles and plan-cache behaviour in place.
//
// Usage:
//
//	nmtop [-addr 127.0.0.1:9141] [-refresh 1s] [-once]
//
// -once prints a single snapshot and exits (no screen control), which is
// what scripts and the CI smoke test use.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9141", "metrics endpoint host:port (Config.MetricsAddr)")
	refresh := flag.Duration("refresh", time.Second, "poll interval")
	once := flag.Bool("once", false, "print one snapshot and exit (no screen control)")
	flag.Parse()

	url := "http://" + *addr + "/metrics.json"
	var prev *metrics.Snapshot
	var prevAt time.Time
	for {
		snap, err := fetch(url)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nmtop: %v\n", err)
			if *once {
				os.Exit(1) // scripts and CI need the failure to be loud
			}
			// Continuous mode rides out exporter restarts instead of dying.
			time.Sleep(*refresh)
			continue
		}
		now := time.Now()
		var b strings.Builder
		render(&b, *addr, snap, prev, now.Sub(prevAt))
		renderSlowest(&b, *addr)
		if *once {
			os.Stdout.WriteString(b.String())
			return
		}
		// Home the cursor and clear to end of screen: repaint in place
		// without the full-clear flicker.
		fmt.Printf("\x1b[H\x1b[2J%s", b.String())
		prev, prevAt = &snap, now
		time.Sleep(*refresh)
	}
}

func fetch(url string) (metrics.Snapshot, error) {
	var snap metrics.Snapshot
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

// railRow is one (node, rail) line of the dashboard.
type railRow struct {
	node, rail int
}

// railRows enumerates the (node, rail) pairs present in the snapshot, in
// order.
func railRows(s metrics.Snapshot) []railRow {
	var rows []railRow
	if f := s.Family("nm_rail_state"); f != nil {
		for i := range f.Metrics {
			m := &f.Metrics[i]
			node, _ := strconv.Atoi(m.Label("node"))
			rail, _ := strconv.Atoi(m.Label("rail"))
			rows = append(rows, railRow{node, rail})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].node != rows[j].node {
			return rows[i].node < rows[j].node
		}
		return rows[i].rail < rows[j].rail
	})
	return rows
}

var stateNames = [...]string{"up", "SUSPECT", "DOWN"}

// value reads one sample, 0 when absent.
func value(s *metrics.Snapshot, family string, labels ...metrics.Label) float64 {
	if s == nil {
		return 0
	}
	if m := s.Find(family, labels...); m != nil {
		return m.Value
	}
	return 0
}

// rate computes a per-second delta against the previous poll.
func rate(cur, prev *metrics.Snapshot, dt time.Duration, family string, labels ...metrics.Label) float64 {
	if prev == nil || dt <= 0 {
		return 0
	}
	return (value(cur, family, labels...) - value(prev, family, labels...)) / dt.Seconds()
}

// familySum adds up every sample of a family carrying the given labels
// (e.g. the per-shard plan-cache counters of one node).
func familySum(s *metrics.Snapshot, family string, labels ...metrics.Label) float64 {
	f := s.Family(family)
	if f == nil {
		return 0
	}
	total := 0.0
next:
	for i := range f.Metrics {
		m := &f.Metrics[i]
		for _, want := range labels {
			if m.Label(want.Name) != want.Value {
				continue next
			}
		}
		total += m.Value
	}
	return total
}

func render(b *strings.Builder, addr string, cur metrics.Snapshot, prev *metrics.Snapshot, dt time.Duration) {
	fmt.Fprintf(b, "nmtop — %s — %s\n\n", addr, time.Now().Format("15:04:05"))

	rows := railRows(cur)
	fmt.Fprintf(b, "%-5s %-5s %-5s %-8s %12s %12s %10s %7s %7s %9s %9s %9s\n",
		"node", "rail", "kind", "state", "frames/s", "bytes/s", "total", "reconn", "stalls", "parks/s", "inline/s", "moved/s")
	nodes := map[int]bool{}
	for _, r := range rows {
		nodes[r.node] = true
		nodeL, railL := strconv.Itoa(r.node), strconv.Itoa(r.rail)
		sel := metrics.L("node", nodeL, "rail", railL)
		kind := ""
		if m := cur.Find("nm_rail_frames_total", sel...); m != nil {
			kind = m.Label("kind")
		}
		state := "?"
		if st := int(value(&cur, "nm_rail_state", sel...)); st >= 0 && st < len(stateNames) {
			state = stateNames[st]
		}
		fmt.Fprintf(b, "%-5s %-5s %-5s %-8s %12.0f %12s %10s %7.0f %7.0f %9.0f %9.0f %9.0f\n",
			nodeL, railL, kind, state,
			rate(&cur, prev, dt, "nm_rail_frames_total", sel...),
			stats.SizeLabel(int(rate(&cur, prev, dt, "nm_rail_bytes_total", sel...))),
			stats.SizeLabel(int(value(&cur, "nm_rail_bytes_total", sel...))),
			value(&cur, "nm_rail_reconnects_total", sel...),
			value(&cur, "nm_rail_ring_stalls_total", sel...),
			rate(&cur, prev, dt, "nm_rail_ring_parks_total", sel...),
			rate(&cur, prev, dt, "nm_rail_inline_writes_total", sel...),
			rate(&cur, prev, dt, "nm_rail_moved_total", sel...))
	}

	nodeIDs := make([]int, 0, len(nodes))
	for n := range nodes {
		nodeIDs = append(nodeIDs, n)
	}
	sort.Ints(nodeIDs)
	b.WriteString("\n")
	for _, n := range nodeIDs {
		nodeL := strconv.Itoa(n)
		sel := metrics.L("node", nodeL)
		eager := value(&cur, "nm_engine_events_total", metrics.L("node", nodeL, "kind", "eager_sent")...)
		rdv := value(&cur, "nm_engine_events_total", metrics.L("node", nodeL, "kind", "rdv_sent")...)
		fmt.Fprintf(b, "node %s: eager=%.0f rdv=%.0f bytes=%s failovers=%.0f",
			nodeL, eager, rdv,
			stats.SizeLabel(int(value(&cur, "nm_engine_bytes_sent_total", sel...))),
			value(&cur, "nm_engine_events_total", metrics.L("node", nodeL, "kind", "failed_over")...))
		if m := cur.Find("nm_eager_latency_seconds", sel...); m != nil && m.Count > 0 {
			fmt.Fprintf(b, "  eager p50/p99 %s/%s",
				fmtDur(m.Quantile(0.5)), fmtDur(m.Quantile(0.99)))
		}
		if m := cur.Find("nm_rdv_latency_seconds", sel...); m != nil && m.Count > 0 {
			fmt.Fprintf(b, "  rdv p50/p99 %s/%s",
				fmtDur(m.Quantile(0.5)), fmtDur(m.Quantile(0.99)))
		}
		b.WriteString("\n")
		inline := familySum(&cur, "nm_progress_inline_total", sel...)
		if steps := inline + familySum(&cur, "nm_progress_queued_total", sel...); steps > 0 {
			fmt.Fprintf(b, "  progress: %.0f%% of %.0f steps inline  rdv queued=%.0f\n",
				inline/steps*100, steps, value(&cur, "nm_rdv_queued", sel...))
		}
		hits := familySum(&cur, "nm_plan_cache_hits_total", sel...)
		misses := familySum(&cur, "nm_plan_cache_misses_total", sel...)
		if total := hits + misses; total > 0 {
			fmt.Fprintf(b, "  plan cache: %.0f%% hit (%.0f/%.0f) evictions=%.0f entries=%.0f  telemetry: obs=%.0f refits=%.0f epoch=%.0f\n",
				hits/total*100, hits, total,
				familySum(&cur, "nm_plan_cache_evictions_total", sel...),
				value(&cur, "nm_plan_cache_entries", sel...),
				value(&cur, "nm_telemetry_observations_total", sel...),
				value(&cur, "nm_telemetry_refits_total", sel...),
				value(&cur, "nm_telemetry_epoch", sel...))
		}
	}

	if f := cur.Family("nm_trace_events_total"); f != nil && len(f.Metrics) > 0 {
		b.WriteString("\ntrace: ")
		for i := range f.Metrics {
			m := &f.Metrics[i]
			if m.Value == 0 {
				continue
			}
			fmt.Fprintf(b, "%s=%.0f ", m.Label("kind"), m.Value)
		}
		b.WriteString("\n")
	}
}

// fmtDur renders seconds with a sensible unit.
func fmtDur(sec float64) string {
	return time.Duration(sec * 1e9).Round(time.Microsecond).String()
}

// renderSlowest appends the "slowest recent messages" panel: the flight
// recorder's ring stitched into spans and ranked by duration. The panel
// is best-effort — an exporter predating /trace/ring.json just doesn't
// get one.
func renderSlowest(b *strings.Builder, addr string) {
	url := "http://" + addr + "/trace/ring.json"
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var snap trace.RingSnapshot
	if json.NewDecoder(resp.Body).Decode(&snap) != nil {
		return
	}
	events := make([]trace.Event, 0, len(snap.Events))
	for _, j := range snap.Events {
		events = append(events, j.Event())
	}
	spans := trace.Stitch(events)
	sort.SliceStable(spans, func(i, j int) bool {
		return spans[i].End()-spans[i].Start() > spans[j].End()-spans[j].Start()
	})
	if len(spans) > 5 {
		spans = spans[:5]
	}
	if len(spans) == 0 {
		return
	}
	fmt.Fprintf(b, "\nslowest recent messages (flight recorder, last %d events):\n", len(events))
	fmt.Fprintf(b, "%-14s %10s %8s %6s  %s\n", "msg", "duration", "size", "events", "path")
	for i := range spans {
		s := &spans[i]
		size := 0
		if e, ok := s.First(trace.Delivered); ok {
			size = e.Size
		} else if e, ok := s.First(trace.Submit); ok {
			size = e.Size
		}
		path := ""
		for j, e := range s.Events {
			if j > 0 {
				path += "→"
			}
			path += e.Kind.String()
		}
		fmt.Fprintf(b, "%-14s %10v %8s %6d  %s\n",
			fmt.Sprintf("%d/%d", s.Key.Origin, s.Key.MsgID),
			(s.End() - s.Start()).Round(time.Microsecond),
			stats.SizeLabel(size), len(s.Events), path)
	}
	if len(snap.Anomalies) > 0 {
		fmt.Fprintf(b, "anomalies: %d noted", snap.AnomalyTotal)
		last := snap.Anomalies[len(snap.Anomalies)-1]
		fmt.Fprintf(b, " — last %q on n%d\n", last.Reason, last.Node)
	}
}
