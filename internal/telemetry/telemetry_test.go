package telemetry

import (
	"testing"
	"time"

	"repro/internal/rt"
	"repro/internal/strategy"
)

// fakeEnv is a minimal rt.Env with a settable clock: the tracker only
// consumes Now().
type fakeEnv struct {
	now time.Duration
}

func (e *fakeEnv) Now() time.Duration             { return e.now }
func (e *fakeEnv) Go(string, func(rt.Ctx))        { panic("unused") }
func (e *fakeEnv) After(time.Duration, func())    { panic("unused") }
func (e *fakeEnv) NewEvent() rt.Event             { panic("unused") }
func (e *fakeEnv) EventAt(*rt.LiveEvent) rt.Event { panic("unused") }
func (e *fakeEnv) NewQueue() rt.Queue             { panic("unused") }

// linEst is a linear prior: alpha + beta*n.
type linEst struct {
	alpha time.Duration
	beta  float64 // ns per byte
}

func (l linEst) Estimate(n int) time.Duration {
	return l.alpha + time.Duration(l.beta*float64(n))
}

func (l linEst) SizeFor(d time.Duration, max int) int {
	if max <= 0 {
		max = 64 << 20
	}
	if d <= l.alpha {
		return 0
	}
	n := int(float64(d-l.alpha) / l.beta)
	if n > max {
		return max
	}
	return n
}

func newTestTracker(t *testing.T, env rt.Env, prior strategy.Estimator) *Tracker {
	t.Helper()
	tr, err := NewTracker(env, Config{Peers: 2, Rails: 2, WarmupObs: 4}, []strategy.Estimator{prior, prior})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestEstimatorColdStartUsesPrior(t *testing.T) {
	prior := linEst{alpha: 10 * time.Microsecond, beta: 1}
	tr := newTestTracker(t, &fakeEnv{}, prior)
	est := tr.Estimator(1, 0, prior)
	for _, n := range []int{4, 1 << 10, 1 << 20} {
		if got, want := est.Estimate(n), prior.Estimate(n); got != want {
			t.Fatalf("cold Estimate(%d) = %v, want prior %v", n, got, want)
		}
	}
	if got, want := est.SizeFor(time.Millisecond, 0), prior.SizeFor(time.Millisecond, 0); got != want {
		t.Fatalf("cold SizeFor = %d, want prior %d", got, want)
	}
}

func TestEstimatorWarmsToObservations(t *testing.T) {
	prior := linEst{alpha: 10 * time.Microsecond, beta: 1}
	env := &fakeEnv{}
	tr := newTestTracker(t, env, prior)
	est := tr.Estimator(1, 0, prior)
	// Observe a rail that is 10x slower than the prior says, across two
	// size classes so the fit has a real slope.
	for i := 0; i < 20; i++ {
		env.now += time.Millisecond
		tr.Observe(1, 0, 1<<10, prior.Estimate(1<<10)*10)
		tr.Observe(1, 0, 1<<16, prior.Estimate(1<<16)*10)
	}
	got := est.Estimate(1 << 16)
	want := prior.Estimate(1<<16) * 10
	if got < want*7/10 || got > want*13/10 {
		t.Fatalf("warm Estimate = %v, want about %v (prior was %v)", got, want, prior.Estimate(1<<16))
	}
	// SizeFor must invert Estimate (monotone).
	d := est.Estimate(32 << 10)
	n := est.SizeFor(d, 1<<20)
	if n < 28<<10 || n > 36<<10 {
		t.Fatalf("SizeFor(Estimate(32KB)) = %d, want about 32768", n)
	}
	if tr.Stats().Observations != 40 {
		t.Fatalf("Observations = %d, want 40", tr.Stats().Observations)
	}
}

func TestDriftRefitBumpsEpoch(t *testing.T) {
	prior := linEst{alpha: 10 * time.Microsecond, beta: 1}
	env := &fakeEnv{}
	tr := newTestTracker(t, env, prior)
	// Establish a stable fit.
	for i := 0; i < 12; i++ {
		env.now += time.Millisecond
		tr.Observe(1, 0, 1<<20, prior.Estimate(1<<20))
	}
	epoch0 := tr.Epoch()
	// The rail slows 10x: the drift detector must refit and publish a
	// new epoch, and with sustained slow observations the estimate must
	// converge on the new level (successive refits fold more slow cells
	// in while the old fast ones decay).
	for i := 0; i < 30; i++ {
		env.now += time.Millisecond
		tr.Observe(1, 0, 1<<20, prior.Estimate(1<<20)*10)
	}
	if tr.Epoch() == epoch0 {
		t.Fatal("epoch never bumped after sustained 10x slowdown")
	}
	if tr.Stats().Refits == 0 {
		t.Fatal("no refit counted")
	}
	// And the estimate must now reflect the slowdown (single size class:
	// level-shift fit with the prior's slope).
	est := tr.Estimator(1, 0, prior)
	got, want := est.Estimate(1<<20), prior.Estimate(1<<20)*10
	if got < want/2 || got > want*2 {
		t.Fatalf("post-drift Estimate = %v, want about %v", got, want)
	}
}

func TestBumpEpochManual(t *testing.T) {
	prior := linEst{alpha: time.Microsecond, beta: 1}
	tr := newTestTracker(t, &fakeEnv{}, prior)
	e0 := tr.Epoch()
	tr.BumpEpoch()
	if tr.Epoch() != e0+1 {
		t.Fatalf("BumpEpoch: %d -> %d", e0, tr.Epoch())
	}
}

func TestObserveIgnoresOutOfRange(t *testing.T) {
	prior := linEst{alpha: time.Microsecond, beta: 1}
	tr := newTestTracker(t, &fakeEnv{}, prior)
	tr.Observe(-1, 0, 10, time.Second)
	tr.Observe(0, 5, 10, time.Second)
	tr.Observe(0, 0, 10, -time.Second)
	if tr.Stats().Observations != 0 {
		t.Fatalf("out-of-range observations counted: %d", tr.Stats().Observations)
	}
}

func TestPlanChunksForCoverAnySize(t *testing.T) {
	chunks := []strategy.Chunk{
		{Rail: 0, Offset: 0, Size: 600},
		{Rail: 2, Offset: 600, Size: 300},
		{Rail: 1, Offset: 900, Size: 100},
	}
	p := NewPlan("hetero-split", chunks, 1000)
	for _, n := range []int{1, 7, 999, 1000, 1001, 1 << 20} {
		got := p.ChunksFor(n)
		if err := strategy.Validate(n, got); err != nil {
			t.Fatalf("ChunksFor(%d): %v", n, err)
		}
	}
	// Shares map back proportionally at scale.
	big := p.ChunksFor(1 << 20)
	if big[0].Rail != 0 || big[0].Size < (1<<20)*55/100 {
		t.Fatalf("scaled first chunk wrong: %+v", big[0])
	}
}

func TestCacheHitMissEvict(t *testing.T) {
	c := NewCache(cacheShards) // one entry per stripe
	k := PlanKey{Dest: 1, Bucket: 20, Epoch: 3}
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	plan := NewPlan("single-rail", []strategy.Chunk{{Rail: 0, Size: 100}}, 100)
	c.Put(k, plan)
	if got, ok := c.Get(k); !ok || got != plan {
		t.Fatal("miss after Put")
	}
	// Filling the same stripe evicts FIFO.
	var sameStripe []PlanKey
	for e := uint64(0); len(sameStripe) < 3; e++ {
		k2 := PlanKey{Dest: 1, Bucket: 20, Epoch: 100 + e}
		if c.shard(k2) == c.shard(k) {
			sameStripe = append(sameStripe, k2)
			c.Put(k2, plan)
		}
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("oldest entry not evicted")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses", st)
	}
	if st.Entries == 0 {
		t.Fatal("entries not tracked")
	}
}

// Two rails in one path group, transfers overlapping fully: the
// observer must attribute the overlap to contention and record roughly
// the equal-share duration, while an ungrouped tracker records the raw
// inflated one.
func TestContentionAttributionDiscountsOverlap(t *testing.T) {
	prior := linEst{alpha: 10 * time.Microsecond, beta: 1}
	env := &fakeEnv{}
	shared, err := NewTracker(env, Config{Peers: 2, Rails: 2, WarmupObs: 4, PathGroup: []int{0, 0}},
		[]strategy.Estimator{prior, prior})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := NewTracker(env, Config{Peers: 2, Rails: 2, WarmupObs: 4},
		[]strategy.Estimator{prior, prior})
	if err != nil {
		t.Fatal(err)
	}

	// Striping regime: both rails carry a 64 KiB chunk at the same time,
	// each observed at 2ms — twice the uncontended 1ms, because the
	// common path split its bandwidth.
	const bytes = 64 << 10
	const inflated = 2 * time.Millisecond
	for i := 0; i < 8; i++ {
		env.now += 10 * time.Millisecond
		// Rail 0 completes first, rail 1 completes just after; their
		// spans overlap almost entirely.
		shared.ObserveTransfer(1, 0, bytes, inflated)
		raw.ObserveTransfer(1, 0, bytes, inflated)
		env.now += 10 * time.Microsecond
		shared.ObserveTransfer(1, 1, bytes, inflated)
		raw.ObserveTransfer(1, 1, bytes, inflated)
	}
	if shared.ContentionAdjusted() == 0 {
		t.Fatal("no observation was contention-adjusted despite full overlap")
	}

	adjEst := shared.Estimator(1, 1, prior).Estimate(bytes)
	rawEst := raw.Estimator(1, 1, prior).Estimate(bytes)
	if adjEst >= rawEst {
		t.Fatalf("contention attribution did not lower the estimate: adjusted %v, raw %v", adjEst, rawEst)
	}
	// Full overlap with one group-mate halves the attributed duration;
	// allow slack for the blend with the prior and the first round
	// (rail 1's first span has no prior rail-0 span fully inside it).
	if adjEst > rawEst*3/4 {
		t.Fatalf("adjusted estimate %v too close to raw %v, want about half", adjEst, rawEst)
	}

	// Ungrouped rails must never be adjusted.
	if raw.ContentionAdjusted() != 0 {
		t.Fatalf("ungrouped tracker adjusted %d observations", raw.ContentionAdjusted())
	}
}

// The per-path planes are independent of the combined estimate and of
// each other, and reproduce their own priors when cold.
func TestPathPlanesAreIndependent(t *testing.T) {
	eagerPrior := linEst{alpha: 5 * time.Microsecond, beta: 1}
	rdvPrior := linEst{alpha: 50 * time.Microsecond, beta: 0.5}
	combinedPrior := linEst{alpha: 10 * time.Microsecond, beta: 1}
	env := &fakeEnv{}
	tr := newTestTracker(t, env, combinedPrior)

	// Cold: both planes are their priors.
	if got := tr.PathEstimator(PathEager, 1, 0, eagerPrior).Estimate(1 << 10); got != eagerPrior.Estimate(1<<10) {
		t.Fatalf("cold eager plane %v, want prior %v", got, eagerPrior.Estimate(1<<10))
	}
	if got := tr.PathEstimator(PathRdv, 1, 0, rdvPrior).Estimate(1 << 10); got != rdvPrior.Estimate(1<<10) {
		t.Fatalf("cold rdv plane %v, want prior %v", got, rdvPrior.Estimate(1<<10))
	}

	// Warm only the eager plane, 10x the prior's cost.
	for i := 0; i < 8; i++ {
		env.now += time.Millisecond
		tr.ObservePath(PathEager, 1, 0, 1<<10, 10*eagerPrior.Estimate(1<<10))
	}
	warmEager := tr.PathEstimator(PathEager, 1, 0, eagerPrior).Estimate(1 << 10)
	if warmEager < 5*eagerPrior.Estimate(1<<10) {
		t.Fatalf("eager plane did not warm to the observations: %v", warmEager)
	}
	if got := tr.PathEstimator(PathRdv, 1, 0, rdvPrior).Estimate(1 << 10); got != rdvPrior.Estimate(1<<10) {
		t.Fatalf("rdv plane moved (%v) when only the eager plane was fed", got)
	}
	if got := tr.Estimator(1, 0, combinedPrior).Estimate(1 << 10); got != combinedPrior.Estimate(1<<10) {
		t.Fatalf("combined estimate moved (%v) when only a plane was fed", got)
	}
}
