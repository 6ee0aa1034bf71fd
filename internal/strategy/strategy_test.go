package strategy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/model"
)

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

// testbed returns the paper's two rails as RailViews, both idle at t=0.
func testbed() []RailView {
	m, q := model.Myri10G(), model.QsNetII()
	return []RailView{
		{Index: 0, Est: ModelEstimator{m}, EagerMax: m.EagerMax},
		{Index: 1, Est: ModelEstimator{q}, EagerMax: q.EagerMax},
	}
}

func TestValidateAcceptsAndRejects(t *testing.T) {
	if err := Validate(10, []Chunk{{0, 0, 4}, {1, 4, 6}}); err != nil {
		t.Fatal(err)
	}
	bad := [][]Chunk{
		nil,                     // no chunks
		{{0, 0, 4}},             // short
		{{0, 0, 4}, {1, 5, 5}},  // gap
		{{0, 0, 4}, {1, 3, 7}},  // overlap
		{{0, 0, 0}, {1, 0, 10}}, // empty chunk
		{{0, 0, 4}, {1, 4, 7}},  // overshoot
	}
	for i, c := range bad {
		if err := Validate(10, c); err == nil {
			t.Errorf("case %d accepted: %v", i, c)
		}
	}
	if err := Validate(0, nil); err != nil {
		t.Errorf("empty message: %v", err)
	}
}

// CapChunks splits only the chunks over their rail's limit, in place on
// that rail and in order, and returns an unaffected plan as it is.
func TestCapChunks(t *testing.T) {
	max := func(rail int) int { return []int{0, 3}[rail] }
	plan := []Chunk{{0, 0, 5}, {1, 5, 7}}
	got := CapChunks(nil, plan, max)
	want := []Chunk{{0, 0, 5}, {1, 5, 3}, {1, 8, 3}, {1, 11, 1}}
	if len(got) != len(want) {
		t.Fatalf("capped plan %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("capped plan %v, want %v", got, want)
		}
	}
	if err := Validate(12, got); err != nil {
		t.Fatal(err)
	}
	fits := []Chunk{{0, 0, 9}, {1, 9, 3}}
	if got := CapChunks(make([]Chunk, 0, 8), fits, max); &got[0] != &fits[0] {
		t.Fatalf("a plan within its limits was rebuilt: %v", got)
	}
}

func TestSingleRailPicksFastest(t *testing.T) {
	rails := testbed()
	// Large message: Myri-10G (rail 0) has the higher bandwidth.
	chunks := SingleRail{}.Split(4<<20, 0, rails)
	if len(chunks) != 1 || chunks[0].Rail != 0 {
		t.Fatalf("4MB: %+v, want all on rail 0", chunks)
	}
	// Tiny message: QsNetII (rail 1) has the lower latency.
	chunks = SingleRail{}.Split(4, 0, rails)
	if len(chunks) != 1 || chunks[0].Rail != 1 {
		t.Fatalf("4B: %+v, want all on rail 1", chunks)
	}
}

// Fig 2: an idle NIC is discarded when a busy one will finish first.
func TestSingleRailPrefersBusyButFasterNIC(t *testing.T) {
	m, q := model.Myri10G(), model.QsNetII()
	n := 4 << 20
	// Myri busy for 500µs; still finishes the 4MB before idle QsNetII:
	// 500µs + ~3.4ms < ~4.8ms.
	rails := []RailView{
		{Index: 0, Est: ModelEstimator{m}, IdleAt: us(500)},
		{Index: 1, Est: ModelEstimator{q}, IdleAt: 0},
	}
	chunks := SingleRail{}.Split(n, 0, rails)
	if chunks[0].Rail != 0 {
		t.Fatalf("busy-but-faster NIC not selected: %+v", chunks)
	}
	// With a very long busy horizon the idle NIC wins.
	rails[0].IdleAt = us(5000)
	chunks = SingleRail{}.Split(n, 0, rails)
	if chunks[0].Rail != 1 {
		t.Fatalf("idle NIC not selected under long horizon: %+v", chunks)
	}
}

func TestIsoSplitEqualChunks(t *testing.T) {
	rails := testbed()
	chunks := IsoSplit{}.Split(4<<20, 0, rails)
	if err := Validate(4<<20, chunks); err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 2 || chunks[0].Size != chunks[1].Size {
		t.Fatalf("iso chunks %+v", chunks)
	}
	// Remainder distribution.
	chunks = IsoSplit{}.Split(5, 0, rails)
	if err := Validate(5, chunks); err != nil {
		t.Fatal(err)
	}
	if chunks[0].Size != 3 || chunks[1].Size != 2 {
		t.Fatalf("iso remainder %+v", chunks)
	}
	// Message smaller than rail count.
	chunks = IsoSplit{}.Split(1, 0, rails)
	if err := Validate(1, chunks); err != nil {
		t.Fatal(err)
	}
}

// Paper checkpoint (Fig 8): the equal-completion split of a 4 MB message
// is ~2437 KB on Myri-10G and ~1757 KB on Quadrics, each finishing in
// ~2000 µs.
func TestHeteroSplitPaperCheckpoint4MB(t *testing.T) {
	rails := testbed()
	n := 4 << 20
	chunks := HeteroSplit{}.Split(n, 0, rails)
	if err := Validate(n, chunks); err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 2 {
		t.Fatalf("chunks: %+v", chunks)
	}
	var myri, quad Chunk
	for _, c := range chunks {
		if c.Rail == 0 {
			myri = c
		} else {
			quad = c
		}
	}
	if math.Abs(float64(myri.Size)/1e3-2437) > 2437*0.015 {
		t.Errorf("Myri chunk %.0f KB, paper 2437 KB", float64(myri.Size)/1e3)
	}
	if math.Abs(float64(quad.Size)/1e3-1757) > 1757*0.015 {
		t.Errorf("Quadrics chunk %.0f KB, paper 1757 KB", float64(quad.Size)/1e3)
	}
	tm := rails[0].Est.Estimate(myri.Size)
	tq := rails[1].Est.Estimate(quad.Size)
	if math.Abs(tm.Seconds()*1e6-1999) > 1999*0.01 {
		t.Errorf("Myri chunk time %.0fµs, paper 1999µs", tm.Seconds()*1e6)
	}
	if math.Abs(tq.Seconds()*1e6-2001) > 2001*0.01 {
		t.Errorf("Quadrics chunk time %.0fµs, paper 2001µs", tq.Seconds()*1e6)
	}
	// Equal completion: the two chunk times differ by far less than the
	// iso split's 670µs idle gap.
	if skew := (tm - tq).Abs(); skew > us(5) {
		t.Errorf("completion skew %v, want <5µs", skew)
	}
}

// Fig 2 with splitting: a rail that stays busy past the common completion
// receives no chunk.
func TestHeteroSplitDiscardsLongBusyRail(t *testing.T) {
	rails := testbed()
	n := 256 << 10
	// Rail 0 busy for 10ms — far beyond the ~300µs the idle rail needs.
	rails[0].IdleAt = 10 * time.Millisecond
	chunks := HeteroSplit{}.Split(n, 0, rails)
	if err := Validate(n, chunks); err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if c.Rail == 0 {
			t.Fatalf("busy rail received a chunk: %+v", chunks)
		}
	}
}

// A briefly-busy fast rail still participates, with a smaller share.
func TestHeteroSplitShrinksBusyRailShare(t *testing.T) {
	n := 4 << 20
	idle := HeteroSplit{}.Split(n, 0, testbed())
	busy := testbed()
	busy[0].IdleAt = us(300)
	delayed := HeteroSplit{}.Split(n, 0, busy)
	if err := Validate(n, delayed); err != nil {
		t.Fatal(err)
	}
	share := func(chunks []Chunk, rail int) int {
		for _, c := range chunks {
			if c.Rail == rail {
				return c.Size
			}
		}
		return 0
	}
	if share(delayed, 0) >= share(idle, 0) {
		t.Fatalf("busy rail share %d not below idle share %d", share(delayed, 0), share(idle, 0))
	}
	// And the busy split's predicted completion accounts for the wait.
	pc := PredictedCompletion(0, busy, delayed)
	pcIdle := PredictedCompletion(0, testbed(), idle)
	if pc <= pcIdle {
		t.Fatalf("busy completion %v not above idle completion %v", pc, pcIdle)
	}
}

// The k-rail bisection agrees with the paper's two-rail ratio dichotomy.
func TestHeteroSplitMatchesRatioDichotomy(t *testing.T) {
	for _, n := range []int{64 << 10, 1 << 20, 4 << 20, 8 << 20} {
		rails := testbed()
		chunks := HeteroSplit{}.Split(n, 0, rails)
		ratio := SplitRatioDichotomy(n, 0, rails[0], rails[1], 50)
		var m int
		for _, c := range chunks {
			if c.Rail == 0 {
				m = c.Size
			}
		}
		if got := float64(m) / float64(n); math.Abs(got-ratio) > 0.01 {
			t.Errorf("n=%d: bisection share %.4f vs dichotomy ratio %.4f", n, got, ratio)
		}
	}
}

func TestHeteroSplitMinChunkFoldsSlivers(t *testing.T) {
	rails := testbed()
	// A 4KB message would naturally put ~45% on the slow rail; a MinChunk
	// above that share forces a single chunk.
	chunks := HeteroSplit{MinChunk: 4096}.Split(4096+32, 0, rails)
	if err := Validate(4096+32, chunks); err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 1 {
		t.Fatalf("slivers not folded: %+v", chunks)
	}
}

func TestHeteroSplitThreeRails(t *testing.T) {
	m, q, ib := model.Myri10G(), model.QsNetII(), model.IBVerbs()
	rails := []RailView{
		{Index: 0, Est: ModelEstimator{m}},
		{Index: 1, Est: ModelEstimator{q}},
		{Index: 2, Est: ModelEstimator{ib}},
	}
	n := 8 << 20
	chunks := HeteroSplit{}.Split(n, 0, rails)
	if err := Validate(n, chunks); err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 3 {
		t.Fatalf("want 3 chunks, got %+v", chunks)
	}
	// Completion must beat the best 2-rail split (more aggregate
	// bandwidth) and the chunk completions must be near-equal.
	var worst, best time.Duration
	for i, c := range chunks {
		ct := rails[c.Rail].Est.Estimate(c.Size)
		if i == 0 || ct > worst {
			worst = ct
		}
		if i == 0 || ct < best {
			best = ct
		}
	}
	if worst-best > us(10) {
		t.Fatalf("3-rail completion skew %v", worst-best)
	}
	two := HeteroSplit{}.Split(n, 0, rails[:2])
	if PredictedCompletion(0, rails, chunks) >= PredictedCompletion(0, rails[:2], two) {
		t.Fatal("3 rails not faster than 2")
	}
}

// §II-A: the fixed ratio computed at 8MB mis-fits smaller messages — the
// sampling-based split always predicts an equal-or-better completion.
func TestRatioSplitMisfitsAcrossSizes(t *testing.T) {
	rails := testbed()
	fixed := NewRatioSplit(8<<20, rails)
	var sum float64
	for _, w := range fixed.Weights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum %v", sum)
	}
	worse := 0
	for _, n := range []int{64 << 10, 256 << 10, 1 << 20, 8 << 20} {
		fc := fixed.Split(n, 0, rails)
		hc := HeteroSplit{}.Split(n, 0, rails)
		if err := Validate(n, fc); err != nil {
			t.Fatal(err)
		}
		ft := PredictedCompletion(0, rails, fc)
		ht := PredictedCompletion(0, rails, hc)
		if ht > ft {
			t.Errorf("n=%d: hetero %v worse than fixed %v", n, ht, ft)
		}
		if ft > ht {
			worse++
		}
	}
	if worse == 0 {
		t.Error("fixed ratio never mis-fit; the §II-A criticism should show at small sizes")
	}
	// The fixed ratio also ignores NIC state.
	busy := testbed()
	busy[0].IdleAt = 10 * time.Millisecond
	fc := fixed.Split(1<<20, 0, busy)
	onBusy := false
	for _, c := range fc {
		if c.Rail == 0 {
			onBusy = true
		}
	}
	if !onBusy {
		t.Error("fixed ratio unexpectedly adapted to NIC state")
	}
}

func TestAssignGreedyBalancesOnIdle(t *testing.T) {
	rails := testbed()
	// Two equal packets, both rails idle: they must go to different rails.
	got := AssignGreedy([]int{8192, 8192}, 0, rails)
	if got[0] == got[1] {
		t.Fatalf("greedy put both packets on rail %d", got[0])
	}
	// With rail 0 busy, the first packet goes to rail 1.
	rails[0].IdleAt = us(100)
	got = AssignGreedy([]int{64, 64, 64}, 0, rails)
	if got[0] != 1 {
		t.Fatalf("first packet on rail %d, want idle rail 1", got[0])
	}
	// Horizon advances: not all three land on rail 1 unless rail 0 stays
	// further out.
	all1 := got[0] == 1 && got[1] == 1 && got[2] == 1
	if all1 {
		t.Log("all packets on rail 1 (rail 0 busy horizon dominates); acceptable")
	}
}

func TestPlanEagerTinyStaysSingle(t *testing.T) {
	plan := PlanEager(4, 0, testbed(), 4, model.OffloadSyncCost)
	if plan.Parallel {
		t.Fatalf("4B message planned parallel: %+v", plan)
	}
	if plan.Chunks[0].Rail != 1 {
		t.Fatalf("4B not aggregated on the low-latency rail: %+v", plan)
	}
}

func TestPlanEagerMediumGoesParallel(t *testing.T) {
	n := 16 << 10
	single := PlanEager(n, 0, testbed(), 1, model.OffloadSyncCost)
	if single.Parallel {
		t.Fatal("parallel plan with a single idle core")
	}
	plan := PlanEager(n, 0, testbed(), 4, model.OffloadSyncCost)
	if !plan.Parallel {
		t.Fatalf("16KB with idle cores should go parallel: %+v", plan)
	}
	if err := Validate(n, plan.Chunks); err != nil {
		t.Fatal(err)
	}
	gain := 1 - float64(plan.Predicted)/float64(single.Predicted)
	if gain < 0.15 || gain > 0.45 {
		t.Fatalf("parallel gain %.0f%% at 16KB, want roughly 20-40%% (paper: up to 30%%)", gain*100)
	}
}

func TestPlanEagerHonorsMinIdleNICsIdleCores(t *testing.T) {
	m, q, ib := model.Myri10G(), model.QsNetII(), model.IBVerbs()
	rails := []RailView{
		{Index: 0, Est: ModelEstimator{m}, EagerMax: m.EagerMax},
		{Index: 1, Est: ModelEstimator{q}, EagerMax: q.EagerMax},
		{Index: 2, Est: ModelEstimator{ib}, EagerMax: ib.EagerMax},
	}
	plan := PlanEager(24<<10, 0, rails, 2, model.OffloadSyncCost)
	if len(plan.Chunks) > 2 {
		t.Fatalf("%d chunks with only 2 idle cores (min rule violated)", len(plan.Chunks))
	}
	// A busy NIC reduces the idle-NIC count.
	rails[0].IdleAt = us(1000)
	rails[1].IdleAt = us(1000)
	plan = PlanEager(24<<10, 0, rails, 4, model.OffloadSyncCost)
	if plan.Parallel {
		t.Fatalf("parallel with one idle NIC: %+v", plan)
	}
}

func TestPlanEagerRespectsEagerMax(t *testing.T) {
	// Rails whose eager limit is tiny cannot take parallel chunks.
	m, q := model.Myri10G(), model.QsNetII()
	rails := []RailView{
		{Index: 0, Est: ModelEstimator{m}, EagerMax: 512},
		{Index: 1, Est: ModelEstimator{q}, EagerMax: 512},
	}
	plan := PlanEager(16<<10, 0, rails, 4, model.OffloadSyncCost)
	if plan.Parallel {
		t.Fatalf("parallel chunks exceed EagerMax: %+v", plan)
	}
}

func TestPlanEagerPreemptCostShiftsDecision(t *testing.T) {
	// Near the crossover, the 6µs preemption cost can flip the decision
	// that the 3µs sync cost allows.
	n := 6 << 10
	sync := PlanEager(n, 0, testbed(), 4, model.OffloadSyncCost)
	preempt := PlanEager(n, 0, testbed(), 4, model.OffloadPreemptCost)
	if !sync.Parallel {
		t.Skip("6KB not parallel under sync cost; calibration moved")
	}
	if preempt.Parallel && preempt.Predicted >= sync.Predicted+3*time.Microsecond {
		t.Fatal("preempt plan did not absorb the extra cost")
	}
}

func TestModelEstimatorSizeFor(t *testing.T) {
	est := ModelEstimator{model.Myri10G()}
	for _, d := range []time.Duration{us(3), us(10), us(100), us(5000)} {
		n := est.SizeFor(d, 32<<20)
		if est.Estimate(n) > d {
			t.Fatalf("SizeFor(%v)=%d estimates %v", d, n, est.Estimate(n))
		}
		if n < 32<<20 && est.Estimate(n+1) <= d {
			t.Fatalf("SizeFor(%v)=%d not maximal", d, n)
		}
	}
	if est.SizeFor(0, 100) != 0 {
		t.Fatal("zero budget")
	}
}

// Property: every splitter yields a valid cover for arbitrary sizes and
// busy horizons.
func TestPropertySplittersAlwaysValid(t *testing.T) {
	splitters := []Splitter{
		SingleRail{},
		IsoSplit{},
		HeteroSplit{},
		HeteroSplit{MinChunk: 4096},
	}
	f := func(seed int64, nRaw uint32) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw % (16 << 20))
		rails := testbed()
		for i := range rails {
			if rng.Intn(2) == 1 {
				rails[i].IdleAt = time.Duration(rng.Intn(3000)) * time.Microsecond
			}
		}
		now := time.Duration(rng.Intn(1000)) * time.Microsecond
		for i := range rails {
			rails[i].IdleAt += now / 2 // some before now, some after
		}
		for _, s := range splitters {
			if err := Validate(n, s.Split(n, now, rails)); err != nil {
				t.Logf("%s: %v", s.Name(), err)
				return false
			}
		}
		fixed := NewRatioSplit(8<<20, rails)
		return Validate(n, fixed.Split(n, now, rails)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: hetero-split never predicts worse than single-rail (it can
// always degenerate to one chunk).
func TestPropertyHeteroNeverWorseThanSingle(t *testing.T) {
	f := func(nRaw uint32, busyRaw uint16) bool {
		n := int(nRaw%(8<<20)) + 1
		rails := testbed()
		rails[0].IdleAt = time.Duration(busyRaw) * time.Microsecond
		h := HeteroSplit{}.Split(n, 0, rails)
		s := SingleRail{}.Split(n, 0, rails)
		// Allow 1µs slack for discretisation at bisection boundaries.
		return PredictedCompletion(0, rails, h) <= PredictedCompletion(0, rails, s)+us(1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: hetero-split chunk completions are equal within tolerance
// whenever more than one rail participates.
func TestPropertyHeteroEqualCompletion(t *testing.T) {
	f := func(nRaw uint32) bool {
		n := int(nRaw%(8<<20)) + 64<<10
		rails := testbed()
		chunks := HeteroSplit{}.Split(n, 0, rails)
		if len(chunks) < 2 {
			return true
		}
		var lo, hi time.Duration
		for i, c := range chunks {
			ct := rails[c.Rail].Completion(0, c.Size)
			if i == 0 || ct < lo {
				lo = ct
			}
			if i == 0 || ct > hi {
				hi = ct
			}
		}
		// Tolerance: a handful of bytes' worth of time on the slowest rail.
		return hi-lo <= us(5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Every splitter excludes rails marked Down (the rail-health view of a
// dying NIC): no chunk may land on one while a usable rail remains.
func TestSplittersExcludeDownRails(t *testing.T) {
	rails := testbed()
	rails[0].Down = true // kill the high-bandwidth rail
	splitters := []Splitter{SingleRail{}, IsoSplit{}, HeteroSplit{}, NewRatioSplit(1<<20, testbed())}
	for _, s := range splitters {
		for _, n := range []int{4, 64 << 10, 4 << 20} {
			chunks := s.Split(n, 0, rails)
			if err := Validate(n, chunks); err != nil {
				t.Fatalf("%s/%d: %v", s.Name(), n, err)
			}
			for _, c := range chunks {
				if c.Rail == 0 {
					t.Fatalf("%s placed %d bytes on the Down rail: %+v", s.Name(), n, chunks)
				}
			}
		}
	}
}

// AssignGreedy and PlanEager honour the Down mark too.
func TestEagerPathsExcludeDownRails(t *testing.T) {
	rails := testbed()
	rails[1].Down = true
	assign := AssignGreedy([]int{64, 64, 64}, 0, rails)
	for i, r := range assign {
		if r == 1 {
			t.Fatalf("greedy packet %d on the Down rail", i)
		}
	}
	plan := PlanEager(16<<10, 0, rails, 4, model.OffloadSyncCost)
	for _, c := range plan.Chunks {
		if c.Rail == 1 {
			t.Fatalf("eager plan used the Down rail: %+v", plan.Chunks)
		}
	}
}

// With every rail Down the strategies fall back to the full set: the
// engine decides separately whether to send, and a decision must exist.
func TestAllDownFallsBackToAll(t *testing.T) {
	rails := testbed()
	rails[0].Down, rails[1].Down = true, true
	chunks := HeteroSplit{}.Split(1<<20, 0, rails)
	if err := Validate(1<<20, chunks); err != nil {
		t.Fatal(err)
	}
}

// movingEstimator is a live estimator refitted under the splitter's feet:
// from its slowAfter-th SizeFor call on, the rail looks four times slower.
type movingEstimator struct {
	Estimator
	calls, slowAfter int
}

func (m *movingEstimator) SizeFor(d time.Duration, max int) int {
	if m.calls++; m.calls > m.slowAfter {
		d /= 4
	}
	return m.Estimator.SizeFor(d, max)
}

// A plan covers every byte whatever its estimators do while it is made. In
// adaptive mode they are refitted concurrently (every ack feeds them), so
// the capacity the bisection found at its last probe need not be there
// when the chunks are sized; a plan that came out short left the tail of
// the message unsent and its receiver waiting forever (the "adaptive
// hang": sender and receiver parked, every worker idle). Whenever the
// slow-down strikes — before, during or right after the bisection — the
// chunks must tile [0, n).
func TestHeteroSplitCoversMessageWhenEstimatorsMove(t *testing.T) {
	const n = 1 << 20
	for slowAfter := 0; slowAfter < 140; slowAfter++ {
		rails := []RailView{
			{Index: 0, Est: &movingEstimator{Estimator: ModelEstimator{model.Myri10G()}, slowAfter: slowAfter}},
			{Index: 1, Est: &movingEstimator{Estimator: ModelEstimator{model.QsNetII()}, slowAfter: slowAfter}},
		}
		chunks := HeteroSplit{}.Split(n, 0, rails)
		if err := Validate(n, chunks); err != nil {
			t.Fatalf("estimators slowing down at their SizeFor call %d: %v (plan %+v)", slowAfter, err, chunks)
		}
	}
}
