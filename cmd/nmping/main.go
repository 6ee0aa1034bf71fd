// Nmping is a ping-pong benchmark over the multirail engine: it prints
// one-way latency and bandwidth for a size sweep under a chosen strategy.
//
// Usage:
//
//	nmping [-strategy hetero|iso|single] [-min 4] [-max 8388608]
//	       [-iters 3] [-live] [-rails 2] [-shm-rails 1] [-sampling FILE]
//	       [-metrics-addr 127.0.0.1:9141] [-metrics-hold 30s]
//
// With -live the sweep runs over the live TCP fabric: every rail is a
// real TCP connection (loopback by default) and the engine moves real
// bytes — eager aggregation below the sampled threshold, rendezvous
// striping above it. Without it the deterministic virtual-time model of
// the paper's testbed is used.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/stats"
	"repro/internal/workload"
	"repro/multirail"
)

// strategies lists the named splitters -strategy accepts.
var strategies = []struct {
	name, desc string
	splitter   func() multirail.Splitter
}{
	{"hetero", "sampling-based equal-completion split (paper Fig 1c/2)", multirail.HeteroSplit},
	{"iso", "equal chunks on every rail (Fig 1b baseline)", multirail.IsoSplit},
	{"single", "whole message on the best predicted rail (Fig 2)", multirail.SingleRail},
}

func main() {
	strategyName := flag.String("strategy", "hetero", "splitter name, or 'list' to enumerate")
	minSize := flag.Int("min", 4, "smallest size")
	maxSize := flag.Int("max", 8<<20, "largest size")
	iters := flag.Int("iters", 3, "iterations per size")
	live := flag.Bool("live", false, "wall-clock execution over real TCP rails")
	rails := flag.Int("rails", 2, "TCP rail count (live mode)")
	shmRails := flag.Int("shm-rails", 0, "shared-memory rail count (live mode; rides alongside the TCP rails as a mixed heterogeneous fabric)")
	samplingFile := flag.String("sampling", "", "load sampling from file (see cmd/nmsample)")
	traceOne := flag.Bool("trace", false, "dump the engine timeline of one max-size transfer")
	showStats := flag.Bool("stats", false, "print per-shard and per-worker engine stats plus the current plan per size after the sweep")
	workers := flag.Int("workers", 0, "progression workers per node (0: one per core)")
	shards := flag.Int("shards", 0, "flow shards per node (0: 4x workers)")
	adaptive := flag.Bool("adaptive", false, "enable online telemetry: the strategy plans against live estimates, behind the hot plan cache")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /metrics.json on this address (e.g. 127.0.0.1:9141; use :0 for an ephemeral port)")
	metricsHold := flag.Duration("metrics-hold", 0, "keep the process (and the metrics endpoint) alive this long after the sweep, so a scraper or nmtop can read the final state")
	flag.Parse()

	if *strategyName == "list" {
		for _, s := range strategies {
			fmt.Printf("%-10s %s\n", s.name, s.desc)
		}
		return
	}
	cfg := multirail.Config{Live: *live, TCPRails: *rails, ShmRails: *shmRails,
		Workers: *workers, Shards: *shards, AdaptiveTelemetry: *adaptive,
		MetricsAddr: *metricsAddr}
	if *shmRails > 0 {
		cfg.Live = true
	}
	var collector *multirail.TraceCollector
	if *traceOne {
		collector = multirail.NewTraceCollector()
		cfg.Tracer = collector
	}
	known := false
	for _, s := range strategies {
		if s.name == *strategyName {
			known = true
			cfg.Splitter = s.splitter()
		}
	}
	if !known {
		fmt.Fprintf(os.Stderr, "unknown strategy %q (try -strategy list)\n", *strategyName)
		os.Exit(2)
	}
	if *samplingFile != "" {
		f, err := os.Open(*samplingFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		cfg.SamplingFrom = f
	}
	c, err := multirail.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer c.Close()

	fmt.Printf("# strategy=%s rails=%d fabric=%s live=%v\n", *strategyName, c.Rails(), c.FabricKind(), *live)
	if addr := c.MetricsAddr(); addr != "" {
		fmt.Printf("# metrics: http://%s/metrics (json: /metrics.json)\n", addr)
	}
	if *traceOne {
		workload.MedianOneWay(c, *maxSize, 1)
		fmt.Printf("# timeline of one %s transfer:\n", stats.SizeLabel(*maxSize))
		collector.Dump(os.Stdout)
		return
	}
	fmt.Printf("%-10s %14s %14s\n", "size", "one-way µs", "MB/s")
	for n := *minSize; n <= *maxSize; n *= 2 {
		oneway := workload.MedianOneWay(c, n, *iters)
		fmt.Printf("%-10s %14.2f %14.0f\n",
			stats.SizeLabel(n), oneway.Seconds()*1e6, workload.Bandwidth(n, oneway))
	}
	fmt.Printf("# rail traffic (node 0):\n")
	states := c.RailStates(0)
	for r, st := range c.RailStats(0) {
		fmt.Printf("#   rail %d (%s) [%s]: %d msgs, %s, busy %v\n",
			r, c.RailKind(r), states[r], st.Messages, stats.SizeLabel(int(st.Bytes)), st.BusyTime.Round(time.Microsecond))
	}
	if *showStats {
		fmt.Printf("# chosen plan per size (node 0 -> 1, current estimates):\n")
		for n := *minSize; n <= *maxSize; n *= 2 {
			fmt.Printf("#   %-10s %s\n", stats.SizeLabel(n), c.DescribePlan(0, 1, n))
		}
		for node := 0; node < c.Nodes(); node++ {
			printEngineStats(node, c.EngineStats(node))
		}
	}
	if *metricsHold > 0 {
		fmt.Printf("# holding %v for scrapers (metrics at http://%s/metrics)\n", *metricsHold, c.MetricsAddr())
		time.Sleep(*metricsHold)
	}
}

// printEngineStats dumps one node's engine counters with the per-worker
// and per-shard breakdown of the multicore progression subsystem, so
// contention (every flow piling on one shard or one worker) is
// observable in the field.
func printEngineStats(node int, st multirail.EngineStats) {
	fmt.Printf("# engine stats (node %d): eager=%d aggregated=%d parallel=%d rdv=%d chunks=%d bytes=%s unexpected=%d failedover=%d\n",
		node, st.EagerSent, st.EagerAggregated, st.EagerParallel, st.RdvSent,
		st.ChunksSent, stats.SizeLabel(int(st.BytesSent)), st.Unexpected, st.FailedOver)
	if st.TelemetryObs > 0 || st.PlanHits+st.PlanMisses > 0 {
		hitRate := 0.0
		if total := st.PlanHits + st.PlanMisses; total > 0 {
			hitRate = float64(st.PlanHits) / float64(total) * 100
		}
		fmt.Printf("#   telemetry: obs=%d refits=%d epoch=%d plan-cache hits=%d misses=%d (%.0f%% hit) entries=%d\n",
			st.TelemetryObs, st.TelemetryRefits, st.TelemetryEpoch,
			st.PlanHits, st.PlanMisses, hitRate, st.PlanEntries)
	}
	for w, ws := range st.Workers {
		fmt.Printf("#   worker %d: %d tasks, busy %v, %d queued\n",
			w, ws.Tasks, ws.BusyTime.Round(time.Microsecond), ws.Queued)
	}
	active := 0
	for s, sh := range st.Shards {
		if sh.Matched == 0 && sh.Unexpected == 0 && sh.Recvs == 0 && sh.Partials == 0 {
			continue
		}
		active++
		fmt.Printf("#   shard %d: matched=%d unexpected=%d posted-recvs=%d partials=%d\n",
			s, sh.Matched, sh.Unexpected, sh.Recvs, sh.Partials)
	}
	fmt.Printf("#   %d/%d shards active\n", active, len(st.Shards))
}
