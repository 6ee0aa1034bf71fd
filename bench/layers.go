package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"time"

	"repro/internal/fabric"
	"repro/internal/livenet"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/progress"
	"repro/internal/rt"
	"repro/internal/sampling"
	"repro/internal/shmnet"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
	simload "repro/internal/workload"
	"repro/multirail"
)

// This file is way (a) of the per-layer budget: the harness times direct
// calls into a package's exported functions. Nothing here goes through
// the engine; each probe is one layer alone.

// probeReps is how many timed repetitions a probe takes the median of.
const probeReps = 5

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// timeOp returns the median over probeReps of fn's time per call (ns),
// each repetition a tight loop of about budget.
func timeOp(budget time.Duration, fn func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if el := time.Since(t0); el >= budget/8 || n >= 1<<28 {
			n = max(1, int(float64(n)*float64(budget)/float64(max(el, 1))))
			break
		}
		n *= 2
	}
	var reps []float64
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		reps = append(reps, float64(time.Since(t0))/float64(n))
	}
	return median(reps)
}

// allocsPerOp returns fn's heap allocations per call.
func allocsPerOp(n int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

func p50(ns []int64) float64 {
	slices.Sort(ns)
	return float64(rankOf(ns, 0.5))
}

// layers is the metric sink of the traced run.
type layers struct {
	vals map[string]metric
	out  io.Writer
}

func (l *layers) set(name string, v float64, unit, note string) {
	if _, dup := l.vals[name]; dup {
		panic("bench: per-layer metric set twice: " + name)
	}
	l.vals[name] = metric{v, unit}
	fmt.Fprintf(l.out, "  %-42s %14.4f %-6s %s\n", name, v, unit, note)
}

// pinnedViews builds the strategies' view of a pinned table's rails.
func pinnedViews(name string) ([]strategy.RailView, error) {
	table, err := samplingFS.ReadFile("sampling/" + name + ".txt")
	if err != nil {
		return nil, err
	}
	profs, err := sampling.Load(bytes.NewReader(table))
	if err != nil {
		return nil, err
	}
	var views []strategy.RailView
	for i, p := range profs {
		views = append(views, strategy.RailView{Index: i, Est: p, EagerMax: p.EagerMax})
	}
	return views, nil
}

// hostProbes measures what the machine underneath can do in the same
// run: the denominators of the pct_of_* ratios and the floor under
// every latency.
func hostProbes(l *layers, budget time.Duration) error {
	src, dst := make([]byte, 1<<20), make([]byte, 1<<20)
	ns := timeOp(budget, func() { copy(dst, src) })
	l.set("host.memcpy_1m_MBps", float64(len(src))/ns*1e3, "MB/s", "copy of 1 MiB")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer a.Close()
	b, ok := <-accepted
	if !ok {
		return fmt.Errorf("host probe: accept failed")
	}
	defer b.Close()

	// Round trip of 512 B over one raw loopback connection.
	echoDone := make(chan struct{})
	const rtts = 4000
	go func() {
		defer close(echoDone)
		buf := make([]byte, 512)
		for i := 0; i < rtts; i++ {
			if _, err := io.ReadFull(b, buf); err != nil {
				return
			}
			if _, err := b.Write(buf); err != nil {
				return
			}
		}
	}()
	buf := make([]byte, 512)
	lat := make([]int64, 0, rtts)
	for i := 0; i < rtts; i++ {
		t0 := time.Now()
		if _, err := a.Write(buf); err != nil {
			return err
		}
		if _, err := io.ReadFull(a, buf); err != nil {
			return err
		}
		lat = append(lat, int64(time.Since(t0)))
	}
	<-echoDone
	l.set("host.loopback_tcp_rtt_512_us", p50(lat)/1e3, "us", "full round trip, raw net.Conn; halve it to set beside RTT/2")

	// Streaming 1 MiB writes into 1 MiB reads over the same connection.
	stop := time.Now().Add(probeReps * budget)
	wrote := make(chan error, 1)
	go func() {
		for time.Now().Before(stop) {
			if _, err := a.Write(src); err != nil {
				wrote <- err
				return
			}
		}
		wrote <- a.(*net.TCPConn).CloseWrite()
	}()
	t0 := time.Now()
	n, err := io.Copy(io.Discard, b)
	el := time.Since(t0)
	if werr := <-wrote; werr != nil {
		return werr
	}
	if err != nil {
		return err
	}
	l.set("host.loopback_tcp_1m_MBps", float64(n)/el.Seconds()/1e6, "MB/s", "1 MiB writes streamed over one raw loopback net.Conn")

	// Two goroutines handing a token back and forth over channels.
	ping, pong := make(chan struct{}), make(chan struct{})
	const hops = 20000
	go func() {
		for i := 0; i < hops; i++ {
			<-ping
			pong <- struct{}{}
		}
	}()
	lat = lat[:0]
	for i := 0; i < hops; i++ {
		t0 := time.Now()
		ping <- struct{}{}
		<-pong
		lat = append(lat, int64(time.Since(t0))/2)
	}
	l.set("host.chan_handoff_us", p50(lat)/1e3, "us", "one goroutine-to-goroutine handoff over an unbuffered channel")
	return nil
}

// oneway times n frames from node 0 to node 1 over rail 0 of a fabric,
// one at a time, from the Send call to the receiving node's sink
// callback. It returns the median (ns).
func oneway(f fabric.Fabric, frame []byte, data bool, n int) float64 {
	env := f.Env()
	arrived := make(chan time.Duration, 1)
	f.Node(1).(fabric.DirectNode).SetSink(func(*fabric.Delivery) { arrived <- env.Now() })
	lat := make([]int64, 0, n)
	done := make(chan struct{})
	env.Go("probe", func(ctx rt.Ctx) {
		defer close(done)
		rail := f.Node(0).Rail(0)
		for i := 0; i < n; i++ {
			t0 := env.Now()
			if data {
				rail.SendData(ctx, 1, frame, nil)
			} else {
				rail.SendEager(ctx, 1, frame)
			}
			lat = append(lat, int64(<-arrived-t0))
		}
	})
	<-done
	return p50(lat)
}

// fabricProbes times the three byte-moving substrates at rail level.
func fabricProbes(l *layers, budget time.Duration) error {
	small := wire.EncodeEagerID(0, 1, 0, []wire.Packet{{Tag: 1, MsgID: 1, Payload: make([]byte, 512)}})
	big := wire.EncodeData(0, 0, 1, 1, 0, make([]byte, 1<<20), 1<<20)
	nSmall := max(200, int(probeReps*budget/(20*time.Microsecond)))
	nBig := max(20, int(probeReps*budget/time.Millisecond))

	shm, err := shmnet.NewHosted(rt.NewLive(), shmnet.Config{Rails: 1})
	if err != nil {
		return err
	}
	ns := oneway(shm, small, false, nSmall)
	l.set("shmnet.oneway_512_p50_us", ns/1e3, "us", "Rail.SendEager to sink callback, one shm ring")
	ns = oneway(shm, big, true, nBig)
	l.set("shmnet.oneway_1m_MBps", float64(1<<20)/ns*1e3, "MB/s", "Rail.SendData of 1 MiB to sink callback, one at a time")
	shm.Close()

	tcp, err := livenet.NewLoopback(rt.NewLive(), livenet.Config{Rails: 1})
	if err != nil {
		return err
	}
	ns = oneway(tcp, small, false, nSmall)
	l.set("livenet.oneway_512_p50_us", ns/1e3, "us", "Rail.SendEager to sink callback, one loopback TCP connection")
	ns = oneway(tcp, big, true, nBig)
	l.set("livenet.oneway_1m_MBps", float64(1<<20)/ns*1e3, "MB/s", "Rail.SendData of 1 MiB to sink callback, one at a time")
	tcp.Close()

	// fabric.NewMix needs two sub-fabrics; both are one shm ring, and the
	// probe sends on the first, so the difference to
	// shmnet.oneway_512_p50_us is the Mix layer's own cost.
	env := rt.NewLive()
	subA, err := shmnet.NewHosted(env, shmnet.Config{Rails: 1})
	if err != nil {
		return err
	}
	subB, err := shmnet.NewHosted(env, shmnet.Config{Rails: 1})
	if err != nil {
		subA.Close()
		return err
	}
	mix, err := fabric.NewMix(-1, subA, subB)
	if err != nil {
		subA.Close()
		subB.Close()
		return err
	}
	ns = oneway(mix, small, false, nSmall)
	l.set("fabric.mix_oneway_512_p50_us", ns/1e3, "us", "the same probe through fabric.NewMix over two shm sub-fabrics")
	mix.Close()
	return nil
}

// callProbes times the pure functions of the decision and encoding
// layers.
func callProbes(l *layers, budget time.Duration) error {
	// wire
	pkt := []wire.Packet{{Tag: 7, MsgID: 9, Payload: make([]byte, 512)}}
	l.set("wire.encode_eager_512_ns", timeOp(budget, func() { sink = wire.EncodeEagerID(0, 9, 0, pkt) }), "ns", "EncodeEagerID, one 512 B packet")
	l.set("wire.encode_eager_512_allocs", allocsPerOp(10000, func() { sink = wire.EncodeEagerID(0, 9, 0, pkt) }), "count", "heap allocations per call")
	frame := wire.EncodeEagerID(0, 9, 0, pkt)
	l.set("wire.decode_eager_512_ns", timeOp(budget, func() { sink, _ = wire.DecodeEager(frame) }), "ns", "DecodeEager of that frame")
	chunk := make([]byte, 64<<10)
	ns := timeOp(budget, func() { sink = wire.EncodeData(0, 0, 7, 9, 0, chunk, 1<<20) })
	l.set("wire.encode_data_64k_MBps", float64(len(chunk))/ns*1e3, "MB/s", "EncodeData copies the chunk behind its header")
	msg := make([]byte, 1<<20)
	var re *wire.Reassembly
	off := len(msg)
	ns = timeOp(budget, func() {
		if off == len(msg) {
			re, _ = wire.NewReassembly(9, msg, len(msg))
			off = 0
		}
		re.Mark(off, len(chunk))
		off += len(chunk)
	})
	l.set("wire.reassembly_mark_ns", ns, "ns", "Reassembly.Mark of 64 KiB pieces of a 1 MiB message, in order")

	// strategy, on the rails the pinned tables describe
	views, err := pinnedViews("shm1tcp2")
	if err != nil {
		return err
	}
	split := strategy.HeteroSplit{}
	l.set("strategy.hetero_split_1m_ns", timeOp(budget, func() { sink = split.Split(1<<20, 0, views) }), "ns", "HeteroSplit.Split of 1 MiB over the shm1tcp2 table's 3 rails")
	l.set("strategy.plan_eager_512_ns", timeOp(budget, func() { sink = strategy.PlanEager(512, 0, views, 4, model.OffloadSyncCost) }), "ns", "PlanEager of 512 B, same rails")
	var lo, hi time.Duration
	for i, c := range split.Split(1<<20, 0, views) {
		t := views[c.Rail].Completion(0, c.Size)
		if i == 0 || t < lo {
			lo = t
		}
		hi = max(hi, t)
	}
	l.set("strategy.predicted_finish_skew_1m", float64(hi-lo)/float64(max(hi, 1)), "ratio", fmt.Sprintf("(latest - earliest predicted chunk finish) / latest %v", hi))

	// progress
	env := rt.NewLive()
	pool := progress.NewPool(env, "probe", 2)
	ran := make(chan time.Duration, 1)
	n := max(2000, int(probeReps*budget/(10*time.Microsecond)))
	lat := make([]int64, 0, n)
	task := progress.Task{Name: "probe", Run: func(rt.Ctx) { ran <- env.Now() }}
	for i := 0; i < n; i++ {
		t0 := env.Now()
		pool.Submit(uint32(i), task)
		lat = append(lat, int64(<-ran-t0))
	}
	pool.Stop()
	l.set("progress.pool_dispatch_p50_ns", p50(lat), "ns", "Pool.Submit until the task runs, 2 workers, one task at a time")
	dedup := progress.NewDedup(8, 4096)
	var id uint64
	l.set("progress.dedup_mark_ns", timeOp(budget, func() { id++; dedup.Mark(1, id) }), "ns", "Dedup.Mark of a fresh id, window full")

	// telemetry
	cache := telemetry.NewCache(1024)
	hit, miss := telemetry.PlanKey{Dest: 1, Bucket: 20, Epoch: 1}, telemetry.PlanKey{Dest: 1, Bucket: 21, Epoch: 1}
	cache.Put(hit, telemetry.NewPlan("hetero-split", split.Split(1<<20, 0, views), 1<<20))
	l.set("telemetry.cache_get_hit_ns", timeOp(budget, func() { sink, _ = cache.Get(hit) }), "ns", "plan Cache.Get, key present")
	l.set("telemetry.cache_get_miss_ns", timeOp(budget, func() { sink, _ = cache.Get(miss) }), "ns", "plan Cache.Get, key absent")
	priors := make([]strategy.Estimator, len(views))
	for i := range views {
		priors[i] = views[i].Est
	}
	tracker, err := telemetry.NewTracker(env, telemetry.Config{Peers: 2, Rails: len(views)}, priors)
	if err != nil {
		return err
	}
	l.set("telemetry.observe_ns", timeOp(budget, func() { tracker.Observe(1, 0, 64<<10, 40*time.Microsecond) }), "ns", "Tracker.Observe of one 64 KiB transfer")

	// trace and metrics: both are always on inside the engine
	flight := trace.NewFlightRecorder(0)
	ev := trace.Event{At: time.Millisecond, Node: 0, MsgID: 5, Kind: trace.EagerSent, Rail: 1, Size: 512}
	l.set("trace.flight_record_ns", timeOp(budget, func() { flight.Record(ev) }), "ns", "FlightRecorder.Record")
	counter := metrics.NewRegistry().Counter("bench_probe_total", "probe")
	l.set("metrics.counter_inc_ns", timeOp(budget, func() { counter.Inc() }), "ns", "Counter.Inc")
	return nil
}

// samplingProbes times the start-up sampling a default multirail.New
// runs, and shows how far its eager threshold wanders.
func samplingProbes(l *layers) error {
	// The ladder and iteration count multirail.New uses on live fabrics.
	cfg := sampling.Config{MaxSize: 4 << 20, Iters: 3}
	sample := func(build func() (fabric.Fabric, error)) (float64, error) {
		var secs []float64
		for i := 0; i < 3; i++ {
			f, err := build()
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			_, err = sampling.SampleLive(f, cfg)
			secs = append(secs, time.Since(t0).Seconds())
			f.Close()
			if err != nil {
				return 0, err
			}
		}
		return median(secs), nil
	}
	s, err := sample(func() (fabric.Fabric, error) { return livenet.NewLoopback(rt.NewLive(), livenet.Config{Rails: 2}) })
	if err != nil {
		return err
	}
	l.set("sampling.sample_live_tcp_s", s, "s", "SampleLive of 2 loopback TCP rails, median of 3")
	s, err = sample(func() (fabric.Fabric, error) { return shmnet.NewHosted(rt.NewLive(), shmnet.Config{Rails: 2}) })
	if err != nil {
		return err
	}
	l.set("sampling.sample_live_shm_s", s, "s", "SampleLive of 2 shm rails, median of 3")

	lo, hi := 0, 0
	for i := 0; i < 5; i++ {
		c, err := multirail.New(multirail.Config{Live: true, TCPRails: 2})
		if err != nil {
			return err
		}
		thr := c.EagerThreshold(0, 1)
		c.Close()
		if i == 0 || thr < lo {
			lo = thr
		}
		hi = max(hi, thr)
	}
	l.set("sampling.tcp_threshold_max_over_min", float64(hi)/float64(max(lo, 1)), "ratio", fmt.Sprintf("eager threshold over 5 default multirail.New: %d .. %d B", lo, hi))
	return nil
}

// simnetProbes repeats the paper's figures on the virtual clock. They
// are exact: any change means the reproduction changed.
func simnetProbes(l *layers) error {
	for _, p := range []struct {
		name string
		cfg  multirail.Config
		size int
	}{
		{"simnet.virtual_us_hetero_4m", multirail.Config{}, 4 << 20},
		{"simnet.virtual_us_iso_4m", multirail.Config{Splitter: multirail.IsoSplit()}, 4 << 20},
		{"simnet.virtual_us_eager_4k", multirail.Config{}, 4 << 10},
	} {
		c, err := multirail.New(p.cfg)
		if err != nil {
			return err
		}
		d := simload.OneWay(c, 0, 1, p.size, 1)[0]
		c.Close()
		l.set(p.name, float64(d)/1e3, "us", "zero-config simulated testbed, one transfer, virtual time")
	}
	return nil
}
