package core

import (
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Stage-latency attribution: each stage is the duration between two
// adjacent trace events of one message's life on the sender —
// submit→decision (queueing before the strategy ran), decision→enqueue
// (encoding and handing frames to the transport), wire→acked (the ack
// round trip of one transfer unit), and the two end-to-end sums,
// submit→completed (local: buffer reusable) and submit→acked (remote:
// nothing can be lost anymore). The cross-node wire→delivered leg is
// not derivable on one node — cmd/nmtrace computes it from stitched
// spans.
const (
	stageSubmitDecision = iota
	stageDecisionEnqueue
	stageWireAcked
	stageSubmitCompleted
	stageSubmitAcked
	numStages
)

var stageNames = [numStages]string{
	"submit_decision", "decision_enqueue", "wire_acked",
	"submit_completed", "submit_acked",
}

// observeStage feeds one stage histogram (no-op without a registry, or
// for the non-positive durations a zero anchor would produce).
func (e *Engine) observeStage(stage int, d time.Duration) {
	if h := e.histStage[stage]; h != nil && d > 0 {
		h.Observe(d)
	}
}

// initMetrics registers the engine's families with the cluster registry.
// Everything already counted by an existing atomic is exported as a func
// instrument read at scrape time — the hot paths pay nothing for being
// observable. The only owned instruments are the two latency histograms,
// whose Observe calls are lock-free and allocation-free (the metrics
// package's own AllocsPerRun ratchet covers them; the engine's eager
// round-trip alloc ceiling holds with a registry installed — see
// alloc_test.go).
func (e *Engine) initMetrics(reg *metrics.Registry) {
	node := strconv.Itoa(e.node.ID())

	for _, c := range []struct {
		kind string
		v    *atomic.Uint64
	}{
		{"eager_sent", &e.stats.eagerSent},
		{"eager_aggregated", &e.stats.eagerAggregated},
		{"eager_parallel", &e.stats.eagerParallel},
		{"rdv_sent", &e.stats.rdvSent},
		{"chunks_sent", &e.stats.chunksSent},
		{"unexpected", &e.stats.unexpected},
		{"failed_over", &e.stats.failedOver},
	} {
		reg.CounterFunc("nm_engine_events_total",
			"Engine activity by kind (containers, rendezvous, chunks, failovers).",
			c.v.Load, metrics.L("node", node, "kind", c.kind)...)
	}
	for r := range e.stats.rejected {
		reg.CounterFunc("nm_frames_rejected_total",
			"Frames from peers dropped unprocessed, by reason (a length or range that cannot be honoured).",
			e.stats.rejected[r].Load, metrics.L("node", node, "reason", rejectReasons[r])...)
	}
	reg.CounterFunc("nm_engine_bytes_sent_total",
		"Payload bytes handed to the fabric.",
		e.stats.bytesSent.Load, metrics.L("node", node)...)

	for i := 0; i < e.pool.Size(); i++ {
		i := i
		lbl := metrics.L("node", node, "worker", strconv.Itoa(i))
		reg.CounterFunc("nm_progress_inline_total",
			"Engine steps run on their submitter's goroutine because the worker was idle (the fast path).",
			func() uint64 { return e.pool.Stats()[i].Inline }, lbl...)
		reg.CounterFunc("nm_progress_queued_total",
			"Engine steps handed to the worker's queue.",
			func() uint64 { st := e.pool.Stats()[i]; return st.Tasks - st.Inline }, lbl...)
	}
	reg.GaugeFunc("nm_rdv_queued",
		"Rendezvous announcements parked until a matching receive is posted.",
		func() float64 { return float64(e.rdvQueued()) }, metrics.L("node", node)...)

	e.histEager = reg.Histogram("nm_eager_latency_seconds",
		"Eager container ack round-trip time.",
		metrics.DefBuckets(), metrics.L("node", node)...)
	e.histRdv = reg.Histogram("nm_rdv_latency_seconds",
		"Whole-rendezvous time, RTS to last ack.",
		metrics.DefBuckets(), metrics.L("node", node)...)
	for s := 0; s < numStages; s++ {
		e.histStage[s] = reg.Histogram("nm_stage_latency_seconds",
			"Per-message stage durations (adjacent trace-event pairs).",
			metrics.DefBuckets(), metrics.L("node", node, "stage", stageNames[s])...)
	}

	if cache := e.cache; cache != nil {
		for i := 0; i < cache.NumShards(); i++ {
			i := i
			shard := strconv.Itoa(i)
			reg.CounterFunc("nm_plan_cache_hits_total",
				"Plan-cache lookups served from the cache, per stripe.",
				func() uint64 { return cache.ShardStats(i).Hits },
				metrics.L("node", node, "shard", shard)...)
			reg.CounterFunc("nm_plan_cache_misses_total",
				"Plan-cache lookups that re-planned, per stripe.",
				func() uint64 { return cache.ShardStats(i).Misses },
				metrics.L("node", node, "shard", shard)...)
			reg.CounterFunc("nm_plan_cache_evictions_total",
				"Plans dropped by the FIFO capacity policy, per stripe.",
				func() uint64 { return cache.ShardStats(i).Evictions },
				metrics.L("node", node, "shard", shard)...)
		}
		reg.GaugeFunc("nm_plan_cache_entries",
			"Cached plans currently held (stale epochs included).",
			func() float64 { return float64(cache.Stats().Entries) },
			metrics.L("node", node)...)
	}

	if tele := e.tele; tele != nil {
		reg.CounterFunc("nm_telemetry_observations_total",
			"Transfer observations folded into the estimators.",
			func() uint64 { return tele.Stats().Observations },
			metrics.L("node", node)...)
		reg.CounterFunc("nm_telemetry_refits_total",
			"Estimator refits triggered by drift or warm-up.",
			func() uint64 { return tele.Stats().Refits },
			metrics.L("node", node)...)
		reg.GaugeFunc("nm_telemetry_epoch",
			"Current estimate epoch (bumps invalidate cached plans).",
			func() float64 { return float64(tele.Epoch()) },
			metrics.L("node", node)...)
		for peer := 0; peer < tele.Peers(); peer++ {
			if peer == e.node.ID() {
				continue
			}
			for rail := 0; rail < tele.Rails(); rail++ {
				peer, rail := peer, rail
				lbl := metrics.L("node", node, "peer", strconv.Itoa(peer), "rail", strconv.Itoa(rail))
				reg.GaugeFunc("nm_rail_est_latency_seconds",
					"Fitted per-transfer latency (alpha of the alpha+beta*n model).",
					func() float64 {
						return tele.FittedCoeffs(peer, rail).Alpha.Seconds()
					}, lbl...)
				reg.GaugeFunc("nm_rail_est_bandwidth_bytes_per_second",
					"Fitted bandwidth (1/beta of the alpha+beta*n model); 0 before warm-up.",
					func() float64 {
						if beta := tele.FittedCoeffs(peer, rail).BetaNSPerByte; beta > 0 {
							return 1e9 / beta
						}
						return 0
					}, lbl...)
			}
		}
	}
}
