package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/trace"
	"repro/multirail"
)

// pass is one short run of a workload inside the traced run.
type pass struct {
	w         *workload
	m         *measured
	log       *spanLog     // nil for an untraced pass
	stitched  []trace.Span // the engine's events, one span per message
	newPinned float64      // seconds the pinned multirail.New took
	spanFile  string
}

// rate is the pass's completed messages per second (median over windows).
func (p *pass) rate() float64 { return median(p.m.rate) }

// elapsed is the length of the measured phase, counter reading to
// counter reading.
func (p *pass) elapsed() time.Duration { return p.m.after.at - p.m.before.at }

// engDelta sums a counter's growth over the measured phase on the given
// nodes.
func (p *pass) engDelta(get func(multirail.EngineStats) uint64, nodes ...int) float64 {
	var d uint64
	for _, n := range nodes {
		d += get(p.m.after.eng[n]) - get(p.m.before.eng[n])
	}
	return float64(d)
}

// railDelta returns each rail's counter growth over the measured phase,
// summed over the given nodes.
func (p *pass) railDelta(get func(multirail.FabricStats) float64, nodes ...int) []float64 {
	out := make([]float64, len(p.m.after.rails[0]))
	for _, n := range nodes {
		for r := range out {
			out[r] += get(p.m.after.rails[n][r]) - get(p.m.before.rails[n][r])
		}
	}
	return out
}

func sum(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}

// imbalance is the largest value as a multiple of the mean (1 = even).
func imbalance(xs []float64) float64 {
	if s := sum(xs); s > 0 {
		m := 0.0
		for _, x := range xs {
			m = max(m, x)
		}
		return m * float64(len(xs)) / s
	}
	return 0
}

// runPass builds the workload's pinned cluster (with the span log as its
// Tracer when traced), warms up, measures for dur and closes it.
func runPass(w *workload, seed int64, dur time.Duration, traced bool, mod func(*multirail.Config)) (*pass, error) {
	p := &pass{w: w}
	if traced {
		p.log = newSpanLog()
	}
	t0 := time.Now()
	c, err := w.newPinned(func(cfg *multirail.Config) {
		if traced {
			cfg.Tracer = p.log
		}
		if mod != nil {
			mod(cfg)
		}
	})
	if err != nil {
		return nil, err
	}
	p.newPinned = time.Since(t0).Seconds()
	p.m, err = drive(w, c, seed, dur, p.log, false)
	closeCluster(c)
	if err != nil {
		return nil, err
	}
	if traced {
		p.stitched = p.log.stitch()
		if p.spanFile, err = p.log.write(w.name, p.stitched); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func clampDur(d, lo, hi time.Duration) time.Duration { return min(max(d, lo), hi) }

// runTraced is the separate traced run: every per-layer metric, measured
// from outside the program in three ways — (a) timed direct calls into a
// package's exported functions (layers.go), (b) spans around the
// harness's own API calls joined with the engine's exported event
// stream, (c) deltas of counters the engine and rails already export.
func runTraced(seed int64, dur time.Duration, out io.Writer) (*report, error) {
	procs := setProcs()
	rep := &report{Traced: true, Seed: seed, Procs: procs, Seconds: dur.Seconds(), Correct: true}
	l := &layers{vals: map[string]metric{}, out: out}
	rep.Metrics = l.vals
	passLen := clampDur(dur/4, 50*time.Millisecond, 5*time.Second)
	budget := clampDur(dur/200, 2*time.Millisecond, 200*time.Millisecond)
	fmt.Fprintf(out, "traced run  seed %d  GOMAXPROCS %d  passes of %v, probes %d x %v\n", seed, procs, passLen, probeReps, budget)

	fmt.Fprintln(out, "(a) direct calls")
	for _, probe := range []func() error{
		func() error { return hostProbes(l, budget) },
		func() error { return fabricProbes(l, budget) },
		func() error { return callProbes(l, budget) },
		func() error { return samplingProbes(l) },
		func() error { return simnetProbes(l) },
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}

	fmt.Fprintln(out, "(b) spans and (c) counters, one traced pass per workload")
	passes := map[string]*pass{}
	var news []float64
	var plain *pass // shm_pingpong_512 again, untraced, for the tracing overhead
	for i, w := range workloads {
		p, err := runPass(w, seed, passLen, true, nil)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			// Back to back with its traced twin: the host's speed drifts
			// over tens of seconds.
			if plain, err = runPass(w, seed, passLen, false, nil); err != nil {
				return nil, err
			}
		}
		passes[w.name] = p
		news = append(news, p.newPinned)
		rep.Attempted += p.m.attempted
		rep.Failed += p.m.failed
		rep.Correct = rep.Correct && p.m.failed == 0 && !p.m.aborted
		fmt.Fprintf(out, "  %s: %d messages, %d failed, %d spans and %d engine events kept (%d dropped), %s\n",
			w.name, p.m.msgs, p.m.failed, len(p.log.calls), len(p.log.events), p.log.dropped, p.spanFile)
		if len(p.m.rate) == 0 {
			return nil, fmt.Errorf("%s: traced pass completed no window", w.name)
		}
	}
	us := func(ns float64) float64 { return ns / 1e3 }
	stageSet := func(p *pass, stages []stage) {
		for _, st := range stages {
			v, n := stageP50(p.stitched, st)
			l.set(st.name+"_p50_us", us(v), "us", fmt.Sprintf("%d messages of %s", n, p.w.name))
		}
	}
	all := []int{0, 1}

	l.set("multirail.new_pinned_s", median(news), "s", "multirail.New with SamplingFrom, median of the six passes")

	sp := passes["shm_pingpong_512"]
	stageSet(sp, eagerStages)
	oneWay := median(sp.m.p50)
	toWire, _ := stageP50(sp.stitched, eagerStages[0])
	toDelivered, _ := stageP50(sp.stitched, eagerStages[1])
	fmt.Fprintf(out, "    traced one-way p50 %.2f us = submit_to_wire %.2f + wire_to_delivered %.2f + remainder %.2f us (%.0f %% outside the two stages: Isend before Submit, Wait's wake-up after Delivered)\n",
		us(oneWay), us(toWire), us(toDelivered), us(oneWay-toWire-toDelivered), 100*(oneWay-toWire-toDelivered)/oneWay)
	l.set("core.unexpected_share", sp.engDelta(func(s multirail.EngineStats) uint64 { return s.Unexpected }, all...)/float64(sp.m.msgs),
		"ratio", "messages that arrived before their receive was posted, shm_pingpong_512")

	stageSet(passes["tcp_pingpong_64k"], rdvStages)

	ts := passes["tcp_stream_512"]
	for _, call := range []struct {
		kind spanKind
		name string
	}{{spanIsend, "multirail.isend_call_p50_ns"}, {spanIrecv, "multirail.irecv_call_p50_ns"}} {
		v, n := ts.log.callP50(call.kind)
		l.set(call.name, v, "ns", fmt.Sprintf("span around %d calls, tcp_stream_512", n))
	}
	l.set("core.aggregated_share", ts.engDelta(func(s multirail.EngineStats) uint64 { return s.EagerAggregated }, 0)/
		max(ts.engDelta(func(s multirail.EngineStats) uint64 { return s.EagerSent }, 0), 1),
		"ratio", "eager packets that shared a container, tcp_stream_512")
	l.set("livenet.frames_per_msg", sum(ts.railDelta(func(s multirail.FabricStats) float64 { return float64(s.Messages) }, all...))/float64(ts.m.msgs),
		"ratio", "frames written on all rails, acks included, per message, tcp_stream_512")

	sb := passes["shm_bulk_1m"]
	tb := passes["tcp_bulk_1m"]
	l.set("core.chunks_per_rdv", sb.engDelta(func(s multirail.EngineStats) uint64 { return s.ChunksSent }, 0)/
		max(sb.engDelta(func(s multirail.EngineStats) uint64 { return s.RdvSent }, 0), 1), "ratio", "shm_bulk_1m")
	bytes := tb.railDelta(func(s multirail.FabricStats) float64 { return float64(s.Bytes) }, 0)
	l.set("strategy.rail_byte_share_max", imbalance(bytes)/float64(len(bytes)), "ratio", "sender's busiest rail / all rails, tcp_bulk_1m")
	busy := func(p *pass) float64 {
		b := p.railDelta(func(s multirail.FabricStats) float64 { return float64(s.BusyTime) }, 0)
		return sum(b) / (float64(len(b)) * float64(p.elapsed()))
	}
	sbBytes := sum(sb.railDelta(func(s multirail.FabricStats) float64 { return float64(s.Bytes) }, all...))
	l.set("shmnet.stalls_per_GB", sum(sb.railDelta(func(s multirail.FabricStats) float64 { return float64(s.Stalls) }, all...))/(sbBytes/1e9),
		"1/GB", "ring-full episodes per 10^9 bytes written, shm_bulk_1m")
	l.set("shmnet.busy_share", busy(sb), "ratio", "sender rails' BusyTime / (rails x elapsed), shm_bulk_1m")
	memcpy, loopback := l.vals["host.memcpy_1m_MBps"].Value, l.vals["host.loopback_tcp_1m_MBps"].Value
	goodput := func(p *pass) float64 { return p.rate() * float64(p.w.size) / 1e6 }
	l.set("shmnet.pct_of_memcpy_1m", 100*goodput(sb)/memcpy, "%", fmt.Sprintf("traced shm_bulk_1m %.0f MB/s of host.memcpy_1m_MBps %.0f", goodput(sb), memcpy))
	l.set("livenet.busy_share", busy(tb), "ratio", "sender rails' BusyTime / (rails x elapsed), tcp_bulk_1m")
	l.set("livenet.pct_of_loopback_1m", 100*goodput(tb)/loopback, "%", fmt.Sprintf("traced tcp_bulk_1m %.0f MB/s of host.loopback_tcp_1m_MBps %.0f", goodput(tb), loopback))
	var reconnects float64
	for _, name := range []string{"tcp_pingpong_64k", "tcp_stream_512", "tcp_bulk_1m"} {
		reconnects += sum(passes[name].railDelta(func(s multirail.FabricStats) float64 { return float64(s.Reconnects) }, all...))
	}
	l.set("livenet.reconnects", reconnects, "count", "over the three tcp_* passes")

	mx := passes["mixed_flows8_8k"]
	var matched, tasks []float64
	for i, s := range mx.m.after.eng[1].Shards {
		matched = append(matched, float64(s.Matched-mx.m.before.eng[1].Shards[i].Matched))
	}
	var busyWorkers, workers float64
	for _, n := range all {
		for i, wk := range mx.m.after.eng[n].Workers {
			b := mx.m.before.eng[n].Workers[i]
			if n == 1 {
				tasks = append(tasks, float64(wk.Tasks-b.Tasks))
			}
			busyWorkers += float64(wk.BusyTime - b.BusyTime)
			workers++
		}
	}
	l.set("core.shard_matched_imbalance", imbalance(matched), "ratio", fmt.Sprintf("busiest of the receiver's %d flow shards / mean, mixed_flows8_8k", len(matched)))
	l.set("progress.tasks_per_msg", mx.engDeltaTasks()/float64(mx.m.msgs), "ratio", "pool tasks on both nodes per message, mixed_flows8_8k")
	l.set("progress.worker_busy_share", busyWorkers/(workers*float64(mx.elapsed())), "ratio", fmt.Sprintf("BusyTime of %d workers / (workers x elapsed), mixed_flows8_8k", int(workers)))
	l.set("progress.worker_task_imbalance", imbalance(tasks), "ratio", "busiest receiver-node worker / mean, mixed_flows8_8k")

	fmt.Fprintln(out, "untraced passes")
	l.set("trace.overhead_share", 1-sp.rate()/plain.rate(), "ratio", fmt.Sprintf("shm_pingpong_512: %.0f msg/s traced, %.0f untraced", sp.rate(), plain.rate()))

	mixed := workloadByName("mixed_flows8_8k")
	if procs > 1 {
		many, err := runPass(mixed, seed, passLen, false, nil)
		if err != nil {
			return nil, err
		}
		runtime.GOMAXPROCS(1)
		one, err := runPass(mixed, seed, passLen, false, nil)
		runtime.GOMAXPROCS(procs)
		if err != nil {
			return nil, err
		}
		l.set("progress.speedup_p1_to_pN", many.rate()/one.rate(), "ratio", fmt.Sprintf("mixed_flows8_8k: %.0f msg/s at GOMAXPROCS %d / %.0f at 1", many.rate(), procs, one.rate()))
	} else {
		l.set("progress.speedup_p1_to_pN", 0, "ratio", "not measurable on one CPU; 0 stands for absent")
	}

	// The adaptive pass goes last: on the seed it wedges, and the
	// goroutines it strands stay parked until the process exits.
	ad, err := runPass(workloadByName("tcp_bulk_1m"), seed, 2*passLen, false, func(cfg *multirail.Config) { cfg.AdaptiveTelemetry = true })
	if err != nil {
		return nil, err
	}
	share := 1.0
	if ad.m.aborted {
		share = min(max(ad.m.progressed.Seconds()/(2*passLen).Seconds(), 0), 1)
	}
	l.set("telemetry.adaptive_stream_completed_share", share, "ratio",
		fmt.Sprintf("share of a %v tcp_bulk_1m pass with AdaptiveTelemetry that ran before the watchdog stopped it (%d of %d messages, hang dump %q)", 2*passLen, ad.m.attempted-ad.m.failed, ad.m.attempted, ad.m.hang))
	st := ad.m.after.eng[0]
	l.set("telemetry.adaptive_plan_hit_ratio", float64(st.PlanHits)/float64(max(st.PlanHits+st.PlanMisses, 1)), "ratio",
		fmt.Sprintf("%d hits, %d misses on the sender", st.PlanHits, st.PlanMisses))
	return rep, nil
}

// engDeltaTasks sums the pool tasks both nodes' workers ran over the
// measured phase.
func (p *pass) engDeltaTasks() float64 {
	var d float64
	for n := 0; n < 2; n++ {
		for i, wk := range p.m.after.eng[n].Workers {
			d += float64(wk.Tasks - p.m.before.eng[n].Workers[i].Tasks)
		}
	}
	return d
}
