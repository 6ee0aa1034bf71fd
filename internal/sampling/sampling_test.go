package sampling

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/model"
	"repro/internal/wire"
)

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

func mustTable(t *testing.T, samples []Sample) *Table {
	t.Helper()
	tab, err := NewTable(samples)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(nil); err == nil {
		t.Error("empty sample set accepted")
	}
	if _, err := NewTable([]Sample{{4, us(1)}}); err == nil {
		t.Error("single sample accepted")
	}
	if _, err := NewTable([]Sample{{0, us(1)}, {4, us(2)}}); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := NewTable([]Sample{{4, -us(1)}, {8, us(2)}}); err == nil {
		t.Error("negative duration accepted")
	}
}

func TestEstimateExactAtKnots(t *testing.T) {
	tab := mustTable(t, []Sample{{4, us(3)}, {8, us(5)}, {16, us(8)}, {32, us(20)}})
	for _, s := range tab.Samples() {
		if got := tab.Estimate(s.Size); got != s.T {
			t.Errorf("Estimate(%d) = %v, want knot %v", s.Size, got, s.T)
		}
	}
}

func TestEstimateInterpolatesLinearly(t *testing.T) {
	tab := mustTable(t, []Sample{{4, us(4)}, {8, us(8)}})
	if got := tab.Estimate(6); got != us(6) {
		t.Fatalf("Estimate(6) = %v, want 6µs", got)
	}
}

func TestEstimateExtrapolates(t *testing.T) {
	tab := mustTable(t, []Sample{{8, us(8)}, {16, us(12)}})
	// Below range: continues the first segment (slope 0.5µs/byte).
	if got := tab.Estimate(4); got != us(6) {
		t.Fatalf("Estimate(4) = %v, want 6µs", got)
	}
	// Above range: continues the last segment.
	if got := tab.Estimate(32); got != us(20) {
		t.Fatalf("Estimate(32) = %v, want 20µs", got)
	}
	// Never negative even with a steep down-extrapolation.
	tab2 := mustTable(t, []Sample{{1024, us(1)}, {2048, us(100)}})
	if got := tab2.Estimate(4); got != 0 {
		t.Fatalf("clamped Estimate = %v, want 0", got)
	}
}

func TestPow2LookupMatchesSearch(t *testing.T) {
	// The log-indexed fast path and the binary-search path must agree.
	var pow2 []Sample
	for n := 4; n <= 1<<20; n *= 2 {
		pow2 = append(pow2, Sample{n, time.Duration(n) * 3})
	}
	tab := mustTable(t, pow2)
	if !tab.pow2 {
		t.Fatal("pow2 not detected")
	}
	irregular := mustTable(t, append([]Sample{{5, us(1)}}, pow2...))
	if irregular.pow2 {
		t.Fatal("non-pow2 detected as pow2")
	}
	for n := 4; n < 1<<20; n = n*3/2 + 1 {
		if tab.Estimate(n) != mustTable(t, pow2).Estimate(n) {
			t.Fatalf("pow2 path diverges at %d", n)
		}
	}
}

func TestSizeForInvertsEstimate(t *testing.T) {
	tab := mustTable(t, []Sample{{4, us(4)}, {1024, us(1024)}})
	for _, d := range []time.Duration{us(4), us(100), us(777), us(1024)} {
		n := tab.SizeFor(d, 1024)
		if got := tab.Estimate(n); got > d {
			t.Fatalf("SizeFor(%v) = %d but Estimate = %v > budget", d, n, got)
		}
		if n < 1024 {
			if next := tab.Estimate(n + 1); next <= d {
				t.Fatalf("SizeFor(%v) = %d not maximal (size %d still fits)", d, n, n+1)
			}
		}
	}
}

func TestSizeForEdges(t *testing.T) {
	tab := mustTable(t, []Sample{{4, us(10)}, {8, us(20)}})
	if n := tab.SizeFor(us(1), 0); n != 0 {
		t.Fatalf("impossible budget: SizeFor = %d, want 0", n)
	}
	if n := tab.SizeFor(us(1000000), 0); n != 8*tab.MaxSize() {
		t.Fatalf("huge budget: SizeFor = %d, want cap %d", n, 8*tab.MaxSize())
	}
}

func TestSampledCurvesMatchModelClosely(t *testing.T) {
	profs, err := SampleProfiles(model.PaperTestbed(), Config{MinSize: 4, MaxSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != 2 {
		t.Fatalf("%d profiles", len(profs))
	}
	m := model.Myri10G()
	// Sampled times include wire framing (the engine pays it too), so
	// allow the framing bytes' worth of slack.
	framing := wire.HeaderSize + 16
	for _, n := range []int{4, 1024, 65536, 1 << 20, 8 << 20} {
		got := profs[0].Estimate(n)
		want := m.OneWay(n)
		hi := m.OneWay(n + framing)
		lo := want - time.Microsecond
		if got < lo || got > hi+2*time.Microsecond {
			t.Errorf("size %d: sampled %v, model %v", n, got, want)
		}
	}
}

func TestSampledThresholdNearModel(t *testing.T) {
	profs, err := SampleProfiles(model.PaperTestbed(), Config{MinSize: 4, MaxSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i, mp := range model.PaperTestbed() {
		got := profs[i].Threshold()
		want := mp.Threshold()
		ratio := float64(got) / float64(want)
		if ratio < 0.8 || ratio > 1.25 {
			t.Errorf("%s: sampled threshold %d, model %d", mp.Name, got, want)
		}
	}
}

func TestThresholdWithoutCrossoverIsEagerMax(t *testing.T) {
	// A rail whose eager path never loses keeps eager up to the cap.
	eager := mustTable(t, []Sample{{4, us(1)}, {1024, us(2)}})
	rdv := mustTable(t, []Sample{{4, us(100)}, {1024, us(200)}})
	p := &RailProfile{Eager: eager, Rdv: rdv, EagerMax: 1024}
	if got := p.Threshold(); got != 1024 {
		t.Fatalf("threshold %d, want EagerMax", got)
	}
}

func TestRailProfileEstimateEnvelope(t *testing.T) {
	eager := mustTable(t, []Sample{{4, us(1)}, {4096, us(10)}})
	rdv := mustTable(t, []Sample{{4, us(6)}, {4096, us(7)}})
	p := &RailProfile{Eager: eager, Rdv: rdv, EagerMax: 2048}
	if got := p.Estimate(4); got != us(1) {
		t.Fatalf("small: %v, want eager 1µs", got)
	}
	// Above EagerMax the rdv curve must be used even if eager looks
	// cheaper on paper.
	if got := p.Estimate(4096); got != us(7) {
		t.Fatalf("large: %v, want rdv 7µs", got)
	}
	// Between: min envelope.
	if e, r := eager.Estimate(2000), rdv.Estimate(2000); p.Estimate(2000) != minDur(e, r) {
		t.Fatalf("envelope broken at 2000")
	}
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

func TestSaveLoadRoundTrip(t *testing.T) {
	profs, err := SampleProfiles(model.PaperTestbed(), Config{MinSize: 4, MaxSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, profs); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(profs) {
		t.Fatalf("%d rails back, want %d", len(back), len(profs))
	}
	for i := range profs {
		if back[i].Name != profs[i].Name || back[i].EagerMax != profs[i].EagerMax {
			t.Fatalf("rail %d header mismatch: %+v vs %+v", i, back[i], profs[i])
		}
		for _, n := range []int{4, 100, 5000, 64 << 10} {
			if back[i].Estimate(n) != profs[i].Estimate(n) {
				t.Fatalf("rail %d: estimate differs at %d after reload", i, n)
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"bogus 1 2\n",
		"rail 0\n",
		"eager 4 100\n",                     // sample before header
		"rail 0 x eagermax 10\neager 4 1\n", // too few samples
		"rail 0 x eagermax 10\nrdv 4 1\n",   // too few rdv
		"rail 0 x eagermax 10\nrdv a 1\nrdv 8 2\n",   // bad size
		"rail 0 x eagermax 10\nrdv 4 b\nrdv 8 2\n",   // bad duration
		"rail z x eagermax 10\nrdv 4 1\nrdv 8 2\n",   // bad index
		"rail 0 x eagermax z\nrdv 4 1\nrdv 8 2\n",    // bad eagermax
		"rail 0 x eagermax 10\nrdv 4 1 5\nrdv 8 2\n", // bad field count
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
}

func TestLoadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# comment\n\nrail 0 Myri-10G eagermax 100\n# another\neager 4 10\neager 8 20\nrdv 4 30\nrdv 8 40\n"
	profs, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != 1 || profs[0].Name != "Myri-10G" {
		t.Fatalf("%+v", profs)
	}
}

// Property: estimates are exact at every knot and monotone between knots
// for monotone sample sets.
func TestPropertyInterpolation(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8%10) + 2
		samples := make([]Sample, n)
		size := 4
		var d time.Duration
		for i := 0; i < n; i++ {
			d += time.Duration(rng.Intn(1000)+1) * time.Microsecond
			samples[i] = Sample{size, d}
			size *= 2
		}
		tab, err := NewTable(samples)
		if err != nil {
			return false
		}
		for _, s := range samples {
			if tab.Estimate(s.Size) != s.T {
				return false
			}
		}
		// Monotonicity between adjacent knots.
		for i := 1; i < n; i++ {
			a, b := samples[i-1], samples[i]
			mid := (a.Size + b.Size) / 2
			e := tab.Estimate(mid)
			if e < a.T || e > b.T {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: SizeFor(Estimate(n)) >= n for in-range sizes on increasing
// tables.
func TestPropertySizeForGaloisConnection(t *testing.T) {
	f := func(seed int64, raw uint32) bool {
		rng := rand.New(rand.NewSource(seed))
		var samples []Sample
		var d time.Duration
		size := 4
		for size <= 1<<20 {
			d += time.Duration(rng.Intn(5000)+1) * time.Nanosecond
			samples = append(samples, Sample{size, d})
			size *= 2
		}
		tab, err := NewTable(samples)
		if err != nil {
			return false
		}
		n := int(raw%(1<<20)) + 4
		got := tab.SizeFor(tab.Estimate(n), 1<<20)
		return got >= n || got == 1<<20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refSizeFor is the reference SizeFor: the bisection on Estimate every
// query used before the closed form, kept so the two can be compared.
func refSizeFor(t *Table, d time.Duration, max int) int {
	if max <= 0 {
		max = 8 * t.MaxSize()
	}
	if t.Estimate(max) <= d {
		return max
	}
	if t.Estimate(0) > d {
		return 0
	}
	return t.bisectSizeFor(d, max)
}

// pinnedTables loads the benchmark's three pinned sampling files: real
// live-sampled curves, dips and all.
func pinnedTables(tb testing.TB) map[string]*Table {
	tb.Helper()
	out := map[string]*Table{}
	for _, name := range []string{"shm2", "tcp2", "shm1tcp2"} {
		f, err := os.Open("../../bench/sampling/" + name + ".txt")
		if err != nil {
			tb.Fatal(err)
		}
		profs, err := Load(f)
		f.Close()
		if err != nil {
			tb.Fatal(err)
		}
		for _, p := range profs {
			out[fmt.Sprintf("%s/r%d/rdv", name, p.Rail)] = p.Rdv
			if p.Eager != nil {
				out[fmt.Sprintf("%s/r%d/eager", name, p.Rail)] = p.Eager
			}
		}
	}
	return out
}

// The closed-form SizeFor gives the bisection's answer: on monotone tables
// (the simulator's, whose figures must not move), on noisy ones where d
// meets a single crossing (closed form) and where it meets several
// (fallback), at every budget around every sample and at every cap.
// Mutations tried: dropping the +0.5 of the rounding together with the two
// correction loops fails on the monotone tables; taking the closed form
// without the later-sample scan fails on the noisy and the pinned ones.
func TestSizeForClosedFormMatchesBisection(t *testing.T) {
	check := func(name string, tab *Table, rng *rand.Rand) {
		t.Helper()
		s := tab.Samples()
		caps := []int{0, tab.MaxSize(), tab.MaxSize() / 3, 64 << 10, 1 + rng.Intn(8*tab.MaxSize())}
		var budgets []time.Duration
		for _, smp := range s {
			budgets = append(budgets, smp.T-1, smp.T, smp.T+1, smp.T+time.Duration(rng.Intn(2000)))
		}
		for i := 0; i < 200; i++ {
			budgets = append(budgets, time.Duration(rng.Int63n(int64(2*s[len(s)-1].T)+2)))
		}
		for _, max := range caps {
			for _, d := range budgets {
				if got, want := tab.SizeFor(d, max), refSizeFor(tab, d, max); got != want {
					t.Fatalf("%s: SizeFor(%v, %d) = %d, bisection says %d", name, d, max, got, want)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 60; i++ {
		var mono, noisy []Sample
		var d time.Duration
		for size := 4; size <= 4<<20; size *= 2 {
			d += time.Duration(rng.Intn(20000)) // zero steps too: flat segments
			mono = append(mono, Sample{size, d})
			noisy = append(noisy, Sample{size, d + time.Duration(rng.Intn(15000))})
		}
		check(fmt.Sprintf("monotone #%d", i), mustTable(t, mono), rng)
		check(fmt.Sprintf("noisy #%d", i), mustTable(t, noisy), rng)
		check(fmt.Sprintf("two-point #%d", i), mustTable(t, []Sample{{3, mono[2].T}, {1000, mono[9].T}}), rng)
	}
	for name, tab := range pinnedTables(t) {
		check(name, tab, rng)
	}
}

// BenchmarkDevelSizeFor puts the two inversions side by side on the
// queries HeteroSplit makes of the pinned shm1tcp2 table: budgets around a
// 1 MiB message's per-rail share.
func BenchmarkDevelSizeFor(b *testing.B) {
	tab := pinnedTables(b)["shm1tcp2/r0/rdv"]
	budgets := make([]time.Duration, 64)
	for i := range budgets {
		budgets[i] = tab.Estimate(64<<10) + time.Duration(i)*tab.Estimate(1<<20)/64
	}
	var sink int
	b.Run("bisect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += refSizeFor(tab, budgets[i%len(budgets)], 0)
		}
	})
	b.Run("closed-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += tab.SizeFor(budgets[i%len(budgets)], 0)
		}
	})
	_ = sink
}
