// Package repro_test is the benchmark harness: one bench per evaluation
// figure of the paper (Fig 2, 3, 8, 9) plus the ablations from DESIGN.md
// and micro-benches of the substrates.
//
// Two kinds of numbers appear in the output:
//
//   - ns/op etc. measure the harness itself (how fast the simulation
//     runs on the host) — they are NOT the paper's metrics.
//   - Custom metrics prefixed "virtual-" report the simulated testbed's
//     deterministic results: virtual-us/op is the modeled transfer time,
//     virtual-MB/s the modeled bandwidth (MiB/s, the paper's plot unit).
//     These are the numbers to compare against the paper, recorded in
//     EXPERIMENTS.md.
package repro_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/model"
	"repro/internal/sampling"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/mpilite"
	"repro/multirail"
)

func mustCluster(b *testing.B, cfg multirail.Config) *multirail.Cluster {
	b.Helper()
	c, err := multirail.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	return c
}

func median(ts []time.Duration) time.Duration {
	fs := make([]float64, len(ts))
	for i, t := range ts {
		fs[i] = float64(t)
	}
	return time.Duration(stats.Percentile(fs, 50))
}

// BenchmarkFig3GreedyVsAggregate regenerates Fig 3: two eager segments,
// aggregated over one rail versus dynamically balanced over both.
func BenchmarkFig3GreedyVsAggregate(b *testing.B) {
	variants := []struct {
		name string
		cfg  multirail.Config
	}{
		{"agg-myri", multirail.Config{Rails: []*multirail.Profile{multirail.Myri10G()}}},
		{"agg-quadrics", multirail.Config{Rails: []*multirail.Profile{multirail.QsNetII()}}},
		{"balanced", multirail.Config{GreedyEager: true}},
	}
	for _, v := range variants {
		for _, size := range []int{4, 1 << 10, 16 << 10} {
			b.Run(fmt.Sprintf("%s/%s", v.name, stats.SizeLabel(size)), func(b *testing.B) {
				c := mustCluster(b, v.cfg)
				virt := median(workload.TwoPacketBatch(c, size, 3))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					workload.TwoPacketBatch(c, size, 1)
				}
				b.ReportMetric(virt.Seconds()*1e6, "virtual-us/op")
			})
		}
	}
}

// BenchmarkFig8Bandwidth regenerates Fig 8: ping-pong bandwidth over each
// rail alone, the iso split and the sampling-based hetero split.
func BenchmarkFig8Bandwidth(b *testing.B) {
	variants := []struct {
		name string
		cfg  multirail.Config
	}{
		{"myri", multirail.Config{Rails: []*multirail.Profile{multirail.Myri10G()}}},
		{"quadrics", multirail.Config{Rails: []*multirail.Profile{multirail.QsNetII()}}},
		{"iso", multirail.Config{Splitter: multirail.IsoSplit()}},
		{"hetero", multirail.Config{Splitter: multirail.HeteroSplit()}},
	}
	for _, v := range variants {
		for _, size := range []int{256 << 10, 4 << 20, 8 << 20} {
			b.Run(fmt.Sprintf("%s/%s", v.name, stats.SizeLabel(size)), func(b *testing.B) {
				c := mustCluster(b, v.cfg)
				virt := median(workload.OneWay(c, 0, 1, size, 3))
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					workload.OneWay(c, 0, 1, size, 1)
				}
				b.ReportMetric(virt.Seconds()*1e6, "virtual-us/op")
				b.ReportMetric(workload.Bandwidth(size, virt), "virtual-MB/s")
			})
		}
	}
}

// BenchmarkFig9SmallMessages regenerates Fig 9: per-rail latency, the
// equation-(1) estimation and the engine's measured multicore path.
func BenchmarkFig9SmallMessages(b *testing.B) {
	profs, err := sampling.SampleProfiles(model.PaperTestbed(),
		sampling.Config{MinSize: 4, MaxSize: 8 << 20})
	if err != nil {
		b.Fatal(err)
	}
	rails := []strategy.RailView{
		{Index: 0, Est: profs[0], EagerMax: profs[0].EagerMax},
		{Index: 1, Est: profs[1], EagerMax: profs[1].EagerMax},
	}
	sizes := []int{4, 4 << 10, 16 << 10, 64 << 10}
	b.Run("estimation", func(b *testing.B) {
		for _, size := range sizes {
			b.Run(stats.SizeLabel(size), func(b *testing.B) {
				var virt time.Duration
				for i := 0; i < b.N; i++ {
					ratio := strategy.SplitRatioDichotomy(size, 0, rails[0], rails[1], 50)
					na := int(ratio * float64(size))
					ta := rails[0].Est.Estimate(na)
					if tb := rails[1].Est.Estimate(size - na); tb > ta {
						ta = tb
					}
					virt = model.OffloadSyncCost + ta
				}
				b.ReportMetric(virt.Seconds()*1e6, "virtual-us/op")
			})
		}
	})
	b.Run("engine", func(b *testing.B) {
		for _, size := range sizes {
			b.Run(stats.SizeLabel(size), func(b *testing.B) {
				c := mustCluster(b, multirail.Config{EagerParallel: true})
				virt := median(workload.OneWay(c, 0, 1, size, 3))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					workload.OneWay(c, 0, 1, size, 1)
				}
				b.ReportMetric(virt.Seconds()*1e6, "virtual-us/op")
			})
		}
	})
}

// BenchmarkFig2NICSelection measures the prediction-driven selection of
// Fig 2: the split decision for a 1MB message while one NIC's busy
// horizon varies. virtual-us/op is the predicted completion of the
// chosen schedule; ns/op is the strategy's own decision cost.
func BenchmarkFig2NICSelection(b *testing.B) {
	profs, err := sampling.SampleProfiles(model.PaperTestbed(),
		sampling.Config{MinSize: 4, MaxSize: 8 << 20})
	if err != nil {
		b.Fatal(err)
	}
	for _, busy := range []time.Duration{0, 500 * time.Microsecond, 5 * time.Millisecond} {
		b.Run(fmt.Sprintf("busy=%v", busy), func(b *testing.B) {
			rails := []strategy.RailView{
				{Index: 0, Est: profs[0], IdleAt: busy, EagerMax: profs[0].EagerMax},
				{Index: 1, Est: profs[1], EagerMax: profs[1].EagerMax},
			}
			h := strategy.HeteroSplit{}
			var pred time.Duration
			for i := 0; i < b.N; i++ {
				chunks := h.Split(1<<20, 0, rails)
				pred = strategy.PredictedCompletion(0, rails, chunks)
			}
			b.ReportMetric(pred.Seconds()*1e6, "virtual-us/op")
		})
	}
}

// BenchmarkAblationFixedRatio quantifies §II-A: the predicted completion
// under a fixed 8MB-derived ratio versus the sampling-based split.
func BenchmarkAblationFixedRatio(b *testing.B) {
	profs, err := sampling.SampleProfiles(model.PaperTestbed(),
		sampling.Config{MinSize: 4, MaxSize: 8 << 20})
	if err != nil {
		b.Fatal(err)
	}
	rails := []strategy.RailView{
		{Index: 0, Est: profs[0], EagerMax: profs[0].EagerMax},
		{Index: 1, Est: profs[1], EagerMax: profs[1].EagerMax},
	}
	fixed := strategy.NewRatioSplit(8<<20, rails)
	hetero := strategy.HeteroSplit{}
	for _, size := range []int{64 << 10, 256 << 10, 8 << 20} {
		b.Run(stats.SizeLabel(size), func(b *testing.B) {
			var penalty float64
			for i := 0; i < b.N; i++ {
				ft := strategy.PredictedCompletion(0, rails, fixed.Split(size, 0, rails))
				ht := strategy.PredictedCompletion(0, rails, hetero.Split(size, 0, rails))
				penalty = (float64(ft)/float64(ht) - 1) * 100
			}
			b.ReportMetric(penalty, "penalty-%")
		})
	}
}

// BenchmarkAblationOffloadCost sweeps T_O through equation (1) at 16KB,
// showing how the paper's 3µs/6µs costs eat into the parallel win.
func BenchmarkAblationOffloadCost(b *testing.B) {
	profs, err := sampling.SampleProfiles(model.PaperTestbed(),
		sampling.Config{MinSize: 4, MaxSize: 8 << 20})
	if err != nil {
		b.Fatal(err)
	}
	rails := []strategy.RailView{
		{Index: 0, Est: profs[0], EagerMax: profs[0].EagerMax},
		{Index: 1, Est: profs[1], EagerMax: profs[1].EagerMax},
	}
	size := 16 << 10
	single := rails[0].Est.Estimate(size)
	if q := rails[1].Est.Estimate(size); q < single {
		single = q
	}
	for _, cost := range []time.Duration{0, model.OffloadSyncCost, model.OffloadPreemptCost} {
		b.Run(fmt.Sprintf("TO=%v", cost), func(b *testing.B) {
			var gain float64
			for i := 0; i < b.N; i++ {
				ratio := strategy.SplitRatioDichotomy(size, 0, rails[0], rails[1], 50)
				na := int(ratio * float64(size))
				ta := rails[0].Est.Estimate(na)
				if tb := rails[1].Est.Estimate(size - na); tb > ta {
					ta = tb
				}
				gain = (1 - float64(cost+ta)/float64(single)) * 100
			}
			b.ReportMetric(gain, "gain-%")
		})
	}
}

// BenchmarkEagerMessageRate measures the engine's sustained small-message
// rate under the aggregation policy (the message-rate motivation of §II).
func BenchmarkEagerMessageRate(b *testing.B) {
	for _, policy := range []string{"aggregate", "greedy"} {
		b.Run(policy, func(b *testing.B) {
			cfg := multirail.Config{GreedyEager: policy == "greedy"}
			c := mustCluster(b, cfg)
			res := workload.MessageRate(c, 512, 200, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				workload.MessageRate(c, 512, 200, 8)
			}
			b.ReportMetric(res.PerSecond, "virtual-msg/s")
		})
	}
}

// BenchmarkManyFlows is the multicore-progression contention bench: N
// concurrent tagged flows (N goroutines × N tags) hammer one node pair
// on both fabrics. On the live TCP fabric ns/op is wall time, so MB/s
// is real throughput and must scale with GOMAXPROCS (run with
// `-cpu 1,4` to see the sharded engine spread over cores); on the
// simulated fabric ns/op only measures the single-threaded harness.
// Compare against the single-flow pingpong benches for the no-regression
// side of the trade.
func BenchmarkManyFlows(b *testing.B) {
	const flows = 8
	msgs := 48
	if testing.Short() {
		msgs = 8
	}
	fabrics := []struct {
		name string
		cfg  multirail.Config
	}{
		{"sim", multirail.Config{}},
		{"tcp", multirail.Config{Live: true, SamplingMax: 1 << 20}},
	}
	sizes := []struct {
		name string
		n    int
	}{
		{"eager-8KB", 8 << 10},
		{"rdv-256KB", 256 << 10},
	}
	for _, fab := range fabrics {
		for _, sz := range sizes {
			b.Run(fmt.Sprintf("%s/%s", fab.name, sz.name), func(b *testing.B) {
				c := mustCluster(b, fab.cfg)
				workload.ManyFlows(c, flows, 2, sz.n) // warm-up
				b.SetBytes(int64(flows * msgs * sz.n))
				b.ResetTimer()
				var virt time.Duration
				for i := 0; i < b.N; i++ {
					virt = workload.ManyFlows(c, flows, msgs, sz.n)
				}
				b.ReportMetric(virt.Seconds()*1e6, "virtual-us/op")
			})
		}
	}
}

// --- Substrate micro-benches (host performance, no virtual metrics) ---

// BenchmarkDESThroughput measures raw event dispatch.
func BenchmarkDESThroughput(b *testing.B) {
	s := des.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i), func() {})
		if s.Pending() > 1024 {
			s.Run()
		}
	}
	s.Run()
}

// BenchmarkHeteroSplitDecision measures the strategy's decision cost —
// this is on the engine's critical path at every rendezvous.
func BenchmarkHeteroSplitDecision(b *testing.B) {
	profs, err := sampling.SampleProfiles(model.PaperTestbed(),
		sampling.Config{MinSize: 4, MaxSize: 8 << 20})
	if err != nil {
		b.Fatal(err)
	}
	rails := []strategy.RailView{
		{Index: 0, Est: profs[0], EagerMax: profs[0].EagerMax},
		{Index: 1, Est: profs[1], EagerMax: profs[1].EagerMax},
	}
	h := strategy.HeteroSplit{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Split(4<<20, 0, rails)
	}
}

// BenchmarkWireAggregate measures container encode+decode of 8 packets.
func BenchmarkWireAggregate(b *testing.B) {
	pkts := make([]wire.Packet, 8)
	for i := range pkts {
		pkts[i] = wire.Packet{Tag: uint32(i), MsgID: uint64(i), Payload: make([]byte, 512)}
	}
	b.SetBytes(int64(wire.AggregateSize(pkts)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := wire.EncodeEager(0, pkts)
		if _, err := wire.DecodeEager(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSamplingEstimate measures the log-indexed interpolation.
func BenchmarkSamplingEstimate(b *testing.B) {
	profs, err := sampling.SampleProfiles(model.PaperTestbed(),
		sampling.Config{MinSize: 4, MaxSize: 8 << 20})
	if err != nil {
		b.Fatal(err)
	}
	p := profs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Estimate(i % (8 << 20))
	}
}

// BenchmarkSimulatedTransfer measures host time per simulated 4MB
// hetero-split transfer (harness speed).
func BenchmarkSimulatedTransfer(b *testing.B) {
	c := mustCluster(b, multirail.Config{})
	b.SetBytes(4 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.OneWay(c, 0, 1, 4<<20, 1)
	}
}

// BenchmarkAllreduce compares the naive reduce-and-broadcast all-reduce
// with the bandwidth-optimal ring algorithm over the multirail engine
// (both striped across rails by the hetero split).
func BenchmarkAllreduce(b *testing.B) {
	for _, algo := range []string{"naive", "ring"} {
		b.Run(algo, func(b *testing.B) {
			c := mustCluster(b, multirail.Config{Nodes: 4})
			w := mpilite.NewWorld(c)
			run := func() time.Duration {
				var worst time.Duration
				var mu sync.Mutex
				for i := 0; i < 4; i++ {
					r := w.Rank(i)
					c.Go("rank", func(ctx multirail.Ctx) {
						in := make([]float64, 1<<18) // 2 MB vector
						var err error
						if algo == "ring" {
							_, err = r.AllreduceRingSum(ctx, in)
						} else {
							_, err = r.AllreduceSum(ctx, in)
						}
						if err != nil {
							panic(err)
						}
						mu.Lock()
						if ctx.Now() > worst {
							worst = ctx.Now()
						}
						mu.Unlock()
					})
				}
				c.Run()
				return worst
			}
			virt := run()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(virt.Seconds()*1e6, "virtual-us/op")
		})
	}
}
