package figures

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
	"repro/multirail"
)

// Figures are deterministic but not free; generate them once.
var (
	once sync.Once
	all  map[string]*Table
)

func gen(t *testing.T) (*Table, *Table, *Table) {
	t.Helper()
	once.Do(func() { all = All() })
	return all["fig3"], all["fig8"], all["fig9"]
}

var update = flag.Bool("update", false, "rewrite testdata/figures.golden")

// TestFiguresGolden pins every regenerated figure, at full precision, and
// the three one-way transfers the benchmark reports as
// simnet.virtual_us_*: the simulator is deterministic, so any byte that
// moves here means the reproduction changed. After a deliberate change,
// regenerate with -update and explain the diff.
func TestFiguresGolden(t *testing.T) {
	gen(t)
	var b bytes.Buffer
	names := make([]string, 0, len(all))
	for name := range all {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := all[name].WriteDat(&b); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []struct {
		name string
		cfg  multirail.Config
		size int
	}{
		{"simnet.virtual_us_hetero_4m", multirail.Config{}, 4 << 20},
		{"simnet.virtual_us_iso_4m", multirail.Config{Splitter: multirail.IsoSplit()}, 4 << 20},
		{"simnet.virtual_us_eager_4k", multirail.Config{}, 4 << 10},
	} {
		c := newCluster(p.cfg)
		d := workload.OneWay(c, 0, 1, p.size, 1)[0]
		c.Close()
		fmt.Fprintf(&b, "%s %.3f\n", p.name, float64(d)/1e3)
	}
	const golden = "testdata/figures.golden"
	if *update {
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("figures differ from %s:\n%s", golden, lineDiff(string(want), b.String()))
	}
}

// lineDiff lists the lines that differ between two renderings.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  - %s\n  + %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}

func seriesByName(t *testing.T, tab *Table, name string) map[float64]float64 {
	t.Helper()
	for _, s := range tab.Series {
		if s.Name == name {
			out := make(map[float64]float64, len(s.Points))
			for _, p := range s.Points {
				out[p.X] = p.Y
			}
			return out
		}
	}
	t.Fatalf("series %q not in %s", name, tab.Name)
	return nil
}

func within(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want)/want > tol {
		t.Errorf("%s = %.1f, paper %.1f (tol ±%.0f%%)", what, got, want, tol*100)
	}
}

// Fig 8 shape: the four series peak where the paper says they peak.
func TestFig8PaperPeaks(t *testing.T) {
	_, f8, _ := gen(t)
	myri := seriesByName(t, f8, "Myri-10G")
	quad := seriesByName(t, f8, "Quadrics")
	iso := seriesByName(t, f8, "Iso-split")
	hetero := seriesByName(t, f8, "Hetero-split")
	x := float64(8 << 20)
	within(t, myri[x], 1170, 0.02, "Fig8 Myri-10G peak")
	within(t, quad[x], 837, 0.02, "Fig8 Quadrics peak")
	within(t, iso[x], 1670, 0.02, "Fig8 Iso-split peak")
	within(t, hetero[x], 1987, 0.025, "Fig8 Hetero-split peak")
}

// Fig 8 ordering: hetero > iso > myri > quadrics at every plotted size.
func TestFig8Ordering(t *testing.T) {
	_, f8, _ := gen(t)
	myri := seriesByName(t, f8, "Myri-10G")
	quad := seriesByName(t, f8, "Quadrics")
	iso := seriesByName(t, f8, "Iso-split")
	hetero := seriesByName(t, f8, "Hetero-split")
	for x := range myri {
		if !(hetero[x] > iso[x] && iso[x] > myri[x] && myri[x] > quad[x]) {
			t.Errorf("ordering broken at %v: hetero %.0f iso %.0f myri %.0f quad %.0f",
				x, hetero[x], iso[x], myri[x], quad[x])
		}
	}
}

// Fig 8: the hetero split approaches the theoretical aggregate (~2 GB/s)
// while iso saturates at twice the slower rail.
func TestFig8AggregateApproach(t *testing.T) {
	_, f8, _ := gen(t)
	hetero := seriesByName(t, f8, "Hetero-split")
	myri := seriesByName(t, f8, "Myri-10G")
	quad := seriesByName(t, f8, "Quadrics")
	x := float64(8 << 20)
	agg := 2007.0 // MiB/s, sum of calibrated wire rates
	if hetero[x] < 0.95*agg {
		t.Errorf("hetero peak %.0f below 95%% of aggregate %.0f", hetero[x], agg)
	}
	if sum := myri[x] + quad[x]; hetero[x] > sum {
		t.Errorf("hetero %.0f exceeds rail sum %.0f", hetero[x], sum)
	}
}

// Fig 3 shape: dynamic balancing of two eager segments never beats the
// better aggregated single-rail run, is ~2x worse at 4 B, and the two
// aggregated curves cross (Quadrics wins small, Myri wins large).
func TestFig3Shape(t *testing.T) {
	f3, _, _ := gen(t)
	aggM := seriesByName(t, f3, "agg/Myri-10G")
	aggQ := seriesByName(t, f3, "agg/Quadrics")
	bal := seriesByName(t, f3, "balanced")
	for x := range aggM {
		best := math.Min(aggM[x], aggQ[x])
		if bal[x] < best*0.999 {
			t.Errorf("balanced wins at %v: %.2f vs best agg %.2f", x, bal[x], best)
		}
	}
	if bal[4] < 1.5*aggQ[4] {
		t.Errorf("at 4B balanced %.2fµs should be >1.5x agg/Quadrics %.2fµs", bal[4], aggQ[4])
	}
	if !(aggQ[4] < aggM[4]) {
		t.Error("Quadrics should win the 4B aggregated case (lower latency)")
	}
	if !(aggM[16<<10] < aggQ[16<<10]) {
		t.Error("Myri-10G should win the 16KB aggregated case (higher rate)")
	}
}

// Fig 9 shape: the equation-(1) estimation is counterproductive for
// small messages and saves roughly 30% at 64 KB.
func TestFig9Shape(t *testing.T) {
	_, _, f9 := gen(t)
	myri := seriesByName(t, f9, "Myri-10G")
	quad := seriesByName(t, f9, "Quadrics")
	est := seriesByName(t, f9, "Hetero-split (estimation)")
	best := func(x float64) float64 { return math.Min(myri[x], quad[x]) }
	// Counterproductive below 4KB.
	for _, x := range []float64{4, 64, 1024} {
		if est[x] <= best(x) {
			t.Errorf("estimation wins at %v B (%.2f <= %.2f); paper: splitting small messages is costly", x, est[x], best(x))
		}
	}
	// Around 30% reduction at 64KB.
	x := float64(64 << 10)
	red := 1 - est[x]/best(x)
	if red < 0.20 || red > 0.40 {
		t.Errorf("64KB reduction %.0f%%, paper: up to 30%%", red*100)
	}
	// Crossover between 2KB and 16KB.
	crossed := false
	for _, x := range []float64{2048, 4096, 8192, 16384} {
		if est[x] < best(x) {
			crossed = true
			break
		}
	}
	if !crossed {
		t.Error("estimation never crosses below the single-rail curves in 2K-16K")
	}
}

// Fig 9 cross-validation: the engine's measured multicore path tracks the
// estimation at medium sizes and never loses to it badly.
func TestFig9EngineTracksEstimation(t *testing.T) {
	_, _, f9 := gen(t)
	est := seriesByName(t, f9, "Hetero-split (estimation)")
	eng := seriesByName(t, f9, "Hetero-split (engine)")
	for _, x := range []float64{8 << 10, 16 << 10} {
		if diff := math.Abs(eng[x]-est[x]) / est[x]; diff > 0.20 {
			t.Errorf("engine %.2fµs vs estimation %.2fµs at %v (%.0f%% apart)", eng[x], est[x], x, diff*100)
		}
	}
	// Where splitting is counterproductive the engine falls back to the
	// best single rail, so it must beat the estimation there.
	if eng[4] >= est[4] {
		t.Errorf("engine at 4B (%.2f) should beat the forced-split estimation (%.2f)", eng[4], est[4])
	}
}

func TestFig2DecisionNarrative(t *testing.T) {
	out := Fig2Decision()
	if !strings.Contains(out, "split both rails") {
		t.Error("no idle-rails split decision")
	}
	if !strings.Contains(out, "discard busy Myri") {
		t.Error("no discard decision for a long-busy NIC")
	}
	if !strings.Contains(out, "fig2") {
		t.Error("missing header")
	}
}

func TestAblationFixedRatioPenalty(t *testing.T) {
	tab := AblationFixedRatio()
	pen := seriesByName(t, tab, "penalty %")
	if pen[float64(8<<20)] > 0.5 {
		t.Errorf("penalty at the reference size should vanish, got %.2f%%", pen[float64(8<<20)])
	}
	worst := 0.0
	for _, p := range pen {
		if p > worst {
			worst = p
		}
		if p < -0.2 {
			t.Errorf("fixed ratio beat the sampling split by %.2f%%", -p)
		}
	}
	if worst <= pen[float64(8<<20)] {
		t.Error("no size shows a mis-fit penalty above the reference size's")
	}
}

func TestAblationOffloadCostMovesCrossover(t *testing.T) {
	tab := AblationOffloadCost()
	single := seriesByName(t, tab, "best-single")
	free := seriesByName(t, tab, "split T_O=0s")
	preempt := seriesByName(t, tab, "split T_O=6µs")
	crossAt := func(s map[float64]float64) float64 {
		for _, x := range []float64{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536} {
			if s[x] < single[x] {
				return x
			}
		}
		return math.Inf(1)
	}
	if !(crossAt(free) < crossAt(preempt)) {
		t.Errorf("crossover should move right with cost: free %v, preempt %v", crossAt(free), crossAt(preempt))
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Name: "demo", Title: "Demo", XLabel: "size", YLabel: "µs",
	}
	a := stats.Series{Name: "a"}
	a.Add(4, 1.5)
	b := stats.Series{Name: "b"}
	b.Add(4, 2.5)
	tab.Series = append(tab.Series, a, b)
	var txt, dat bytes.Buffer
	if _, err := tab.WriteTo(&txt); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.WriteDat(&dat); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "demo") || !strings.Contains(txt.String(), "1.50") {
		t.Fatalf("text table: %q", txt.String())
	}
	if !strings.Contains(dat.String(), "4 1.5 2.5") {
		t.Fatalf("dat table: %q", dat.String())
	}
}
