// Package figures regenerates every evaluation figure of the paper as a
// data table: Fig 3 (greedy balancing vs aggregation), Fig 8 (message
// splitting bandwidth), Fig 9 (small-message splitting latency,
// estimation per equation (1)), and the Fig 2 NIC-selection decision,
// plus the ablations called out in DESIGN.md. Each generator builds its
// own deterministic simulated testbed, so tables are reproducible
// bit-for-bit.
package figures

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/sampling"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/workload"
	"repro/multirail"
)

// Table is one regenerated figure: labelled series over a common x axis.
type Table struct {
	Name   string
	Title  string
	XLabel string
	YLabel string
	Series []stats.Series
}

// WriteTo renders an aligned text table (x in the first column).
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n", t.Name, t.Title)
	fmt.Fprintf(&b, "%-12s", t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&b, " %24s", s.Name)
	}
	fmt.Fprintf(&b, "    (%s)\n", t.YLabel)
	if len(t.Series) > 0 {
		for i, p := range t.Series[0].Points {
			fmt.Fprintf(&b, "%-12s", stats.SizeLabel(int(p.X)))
			for _, s := range t.Series {
				y := s.Points[i].Y
				fmt.Fprintf(&b, " %24.2f", y)
			}
			b.WriteByte('\n')
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// WriteDat renders gnuplot-style columns (x y1 y2 ...).
func (t *Table) WriteDat(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n# x=%s y=%s\n# columns: size", t.Name, t.Title, t.XLabel, t.YLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&b, " %q", s.Name)
	}
	b.WriteByte('\n')
	if len(t.Series) > 0 {
		for i, p := range t.Series[0].Points {
			fmt.Fprintf(&b, "%d", int(p.X))
			for _, s := range t.Series {
				fmt.Fprintf(&b, " %g", s.Points[i].Y)
			}
			b.WriteByte('\n')
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

const iters = 3 // deterministic simulator: a few repetitions suffice

// newCluster builds a deterministic testbed cluster or panics (figure
// generation is all-or-nothing).
func newCluster(cfg multirail.Config) *multirail.Cluster {
	c, err := multirail.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("figures: %v", err))
	}
	return c
}

// med returns the median of a duration series in microseconds.
func med(ts []time.Duration) float64 {
	fs := make([]float64, len(ts))
	for i, t := range ts {
		fs[i] = float64(t)
	}
	return stats.Percentile(fs, 50) / 1e3
}

// Fig3 regenerates "Performance of the greedy balancing strategy":
// transfer time of two eager segments, either aggregated over a single
// network or dynamically balanced over both, for total sizes 4 B–16 KB.
func Fig3() *Table {
	sizes := stats.PowersOfTwo(4, 16<<10)
	t := &Table{
		Name:   "fig3",
		Title:  "Performance of the greedy balancing strategy",
		XLabel: "total size",
		YLabel: "transfer time µs",
		Series: []stats.Series{
			{Name: "agg/Myri-10G"},
			{Name: "agg/Quadrics"},
			{Name: "balanced"},
		},
	}
	myri := newCluster(multirail.Config{Rails: []*multirail.Profile{multirail.Myri10G()}})
	defer myri.Close()
	quad := newCluster(multirail.Config{Rails: []*multirail.Profile{multirail.QsNetII()}})
	defer quad.Close()
	greedy := newCluster(multirail.Config{GreedyEager: true})
	defer greedy.Close()
	for _, n := range sizes {
		t.Series[0].Add(float64(n), med(workload.TwoPacketBatch(myri, n, iters)))
		t.Series[1].Add(float64(n), med(workload.TwoPacketBatch(quad, n, iters)))
		t.Series[2].Add(float64(n), med(workload.TwoPacketBatch(greedy, n, iters)))
	}
	return t
}

// Fig8 regenerates "Message splitting - Bandwidth": ping-pong bandwidth
// for 32 KB–8 MB messages over each rail alone, the iso split and the
// sampling-based hetero split.
func Fig8() *Table {
	sizes := stats.PowersOfTwo(32<<10, 8<<20)
	t := &Table{
		Name:   "fig8",
		Title:  "Message splitting - Bandwidth",
		XLabel: "message size",
		YLabel: "bandwidth MB/s",
		Series: []stats.Series{
			{Name: "Myri-10G"},
			{Name: "Quadrics"},
			{Name: "Iso-split"},
			{Name: "Hetero-split"},
		},
	}
	clusters := []*multirail.Cluster{
		newCluster(multirail.Config{Rails: []*multirail.Profile{multirail.Myri10G()}}),
		newCluster(multirail.Config{Rails: []*multirail.Profile{multirail.QsNetII()}}),
		newCluster(multirail.Config{Splitter: multirail.IsoSplit()}),
		newCluster(multirail.Config{Splitter: multirail.HeteroSplit()}),
	}
	for _, c := range clusters {
		defer c.Close()
	}
	for _, n := range sizes {
		for i, c := range clusters {
			oneway := time.Duration(med(workload.OneWay(c, 0, 1, n, iters)) * 1e3)
			t.Series[i].Add(float64(n), workload.Bandwidth(n, oneway))
		}
	}
	return t
}

// Fig9 regenerates "Splitting small messages - Latency": the measured
// per-rail latencies and the hetero-split estimation of equation (1),
// T(size) = T_O + max(T_D(size·ratio, N1), T_D(size·(1−ratio), N2)),
// with the ratio from the sampling-based dichotomy and T_O = 3 µs. A
// fourth series cross-validates the estimation by actually running the
// engine's multicore parallel path.
func Fig9() *Table {
	sizes := stats.PowersOfTwo(4, 64<<10)
	t := &Table{
		Name:   "fig9",
		Title:  "Splitting small messages - Latency",
		XLabel: "message size",
		YLabel: "latency µs",
		Series: []stats.Series{
			{Name: "Myri-10G"},
			{Name: "Quadrics"},
			{Name: "Hetero-split (estimation)"},
			{Name: "Hetero-split (engine)"},
		},
	}
	myri := newCluster(multirail.Config{Rails: []*multirail.Profile{multirail.Myri10G()}})
	defer myri.Close()
	quad := newCluster(multirail.Config{Rails: []*multirail.Profile{multirail.QsNetII()}})
	defer quad.Close()
	// The progress workers receive the striped chunks in parallel — the
	// multithreaded receive side the estimation assumes.
	engine := newCluster(multirail.Config{EagerParallel: true})
	defer engine.Close()

	profs, err := sampling.SampleProfiles(model.PaperTestbed(), sampling.Config{MinSize: 4, MaxSize: 8 << 20})
	if err != nil {
		panic(err)
	}
	rails := []strategy.RailView{
		{Index: 0, Est: profs[0], EagerMax: profs[0].EagerMax},
		{Index: 1, Est: profs[1], EagerMax: profs[1].EagerMax},
	}
	for _, n := range sizes {
		t.Series[0].Add(float64(n), med(workload.OneWay(myri, 0, 1, n, iters)))
		t.Series[1].Add(float64(n), med(workload.OneWay(quad, 0, 1, n, iters)))
		t.Series[2].Add(float64(n), equation1(n, rails)/1e3)
		t.Series[3].Add(float64(n), med(workload.OneWay(engine, 0, 1, n, iters)))
	}
	return t
}

// equation1 evaluates the paper's equation (1) in nanoseconds.
func equation1(n int, rails []strategy.RailView) float64 {
	ratio := strategy.SplitRatioDichotomy(n, 0, rails[0], rails[1], 50)
	na := int(ratio * float64(n))
	ta := rails[0].Est.Estimate(na)
	tb := rails[1].Est.Estimate(n - na)
	worst := ta
	if tb > worst {
		worst = tb
	}
	return float64(model.OffloadSyncCost + worst)
}

// Fig2Decision demonstrates the prediction-driven NIC selection of Fig 2:
// with one rail busy, the strategy compares "wait for the busy NIC" with
// "use the idle one" and reports its choices.
func Fig2Decision() string {
	profs, err := sampling.SampleProfiles(model.PaperTestbed(), sampling.Config{MinSize: 4, MaxSize: 8 << 20})
	if err != nil {
		panic(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# fig2 — Using predictions to select NICs\n")
	fmt.Fprintf(&b, "# message: 1 MB; Myri-10G busy for the stated horizon; QsNetII idle\n")
	fmt.Fprintf(&b, "%-14s %-22s %-14s %-14s %s\n",
		"busy-horizon", "decision", "myri-share", "quad-share", "predicted-µs")
	n := 1 << 20
	for _, busy := range []time.Duration{0, 200 * time.Microsecond, 500 * time.Microsecond,
		800 * time.Microsecond, 1200 * time.Microsecond, 5 * time.Millisecond} {
		rails := []strategy.RailView{
			{Index: 0, Est: profs[0], IdleAt: busy, EagerMax: profs[0].EagerMax},
			{Index: 1, Est: profs[1], IdleAt: 0, EagerMax: profs[1].EagerMax},
		}
		chunks := strategy.HeteroSplit{}.Split(n, 0, rails)
		var m, q int
		for _, c := range chunks {
			if c.Rail == 0 {
				m += c.Size
			} else {
				q += c.Size
			}
		}
		decision := "split both rails"
		switch {
		case m == 0:
			decision = "discard busy Myri"
		case q == 0:
			decision = "wait for busy Myri"
		}
		pred := strategy.PredictedCompletion(0, rails, chunks)
		fmt.Fprintf(&b, "%-14v %-22s %-14d %-14d %.1f\n",
			busy, decision, m, q, pred.Seconds()*1e6)
	}
	return b.String()
}

// AblationFixedRatio reproduces the §II-A criticism of OpenMPI-style
// fixed ratios: a ratio computed at 8 MB applied across sizes versus the
// sampling-based split (predicted completion, µs).
func AblationFixedRatio() *Table {
	profs, err := sampling.SampleProfiles(model.PaperTestbed(), sampling.Config{MinSize: 4, MaxSize: 8 << 20})
	if err != nil {
		panic(err)
	}
	rails := []strategy.RailView{
		{Index: 0, Est: profs[0], EagerMax: profs[0].EagerMax},
		{Index: 1, Est: profs[1], EagerMax: profs[1].EagerMax},
	}
	fixed := strategy.NewRatioSplit(8<<20, rails)
	hetero := strategy.HeteroSplit{}
	t := &Table{
		Name:   "ablation-fixed-ratio",
		Title:  "Fixed 8MB ratio vs sampling-based split (predicted completion)",
		XLabel: "message size",
		YLabel: "predicted µs",
		Series: []stats.Series{{Name: "fixed-ratio@8M"}, {Name: "hetero-split"}, {Name: "penalty %"}},
	}
	for _, n := range stats.PowersOfTwo(32<<10, 8<<20) {
		fc := fixed.Split(n, 0, rails)
		hc := hetero.Split(n, 0, rails)
		ft := strategy.PredictedCompletion(0, rails, fc).Seconds() * 1e6
		ht := strategy.PredictedCompletion(0, rails, hc).Seconds() * 1e6
		t.Series[0].Add(float64(n), ft)
		t.Series[1].Add(float64(n), ht)
		t.Series[2].Add(float64(n), (ft/ht-1)*100)
	}
	return t
}

// AblationOffloadCost sweeps the offload synchronisation cost T_O
// (0/3/6/12 µs) through equation (1) to show how the crossover point of
// Fig 9 moves — the paper's argument that the preliminary implementation
// (6 µs preemptions) must be optimised.
func AblationOffloadCost() *Table {
	profs, err := sampling.SampleProfiles(model.PaperTestbed(), sampling.Config{MinSize: 4, MaxSize: 8 << 20})
	if err != nil {
		panic(err)
	}
	rails := []strategy.RailView{
		{Index: 0, Est: profs[0], EagerMax: profs[0].EagerMax},
		{Index: 1, Est: profs[1], EagerMax: profs[1].EagerMax},
	}
	costs := []time.Duration{0, model.OffloadSyncCost, model.OffloadPreemptCost, 12 * time.Microsecond}
	t := &Table{
		Name:   "ablation-offload-cost",
		Title:  "Equation (1) latency under varying offload cost T_O",
		XLabel: "message size",
		YLabel: "latency µs",
	}
	t.Series = append(t.Series, stats.Series{Name: "best-single"})
	for _, c := range costs {
		t.Series = append(t.Series, stats.Series{Name: fmt.Sprintf("split T_O=%v", c)})
	}
	for _, n := range stats.PowersOfTwo(4, 64<<10) {
		single := rails[0].Est.Estimate(n)
		if q := rails[1].Est.Estimate(n); q < single {
			single = q
		}
		t.Series[0].Add(float64(n), float64(single)/1e3)
		ratio := strategy.SplitRatioDichotomy(n, 0, rails[0], rails[1], 50)
		na := int(ratio * float64(n))
		ta := rails[0].Est.Estimate(na)
		if tb := rails[1].Est.Estimate(n - na); tb > ta {
			ta = tb
		}
		for i, c := range costs {
			t.Series[i+1].Add(float64(n), float64(c+ta)/1e3)
		}
	}
	return t
}

// All returns every regenerable table keyed by name.
func All() map[string]*Table {
	return map[string]*Table{
		"fig3":                 Fig3(),
		"fig8":                 Fig8(),
		"fig9":                 Fig9(),
		"ablation-fixed-ratio": AblationFixedRatio(),
		"ablation-offload":     AblationOffloadCost(),
	}
}
