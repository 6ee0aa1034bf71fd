package strategy

import (
	"time"

	"repro/internal/model"
)

// EagerPlan is the decision for an eager emission (§II-C, Fig 7): either
// aggregate everything on one rail, or split across several rails with
// each chunk submitted from a different core, paying the offload
// synchronisation cost.
type EagerPlan struct {
	// Parallel reports whether the chunks are submitted on distinct
	// cores.
	Parallel bool
	// Chunks is the distribution (a single chunk when !Parallel).
	Chunks []Chunk
	// OffloadCost is the T_O charged when Parallel (0 otherwise).
	OffloadCost time.Duration
	// Predicted is the plan's predicted completion relative to now —
	// equation (1) of the paper for parallel plans.
	Predicted time.Duration
}

// PlanEager chooses between aggregation on the fastest rail and the
// multicore parallel send. idleCores is the number of cores available for
// offloaded submission (including none); offloadCost is the core-to-core
// synchronisation cost (the paper's 3 µs, or 6 µs under preemption).
//
// The chunk count is bounded by min{idle NICs, idle cores} as §III-B
// prescribes. Parallel submission is chosen only when its predicted
// completion — T_O + max over rails of the chunk transfer time, equation
// (1) — beats the best single-rail aggregation, which makes tiny
// messages stay on one rail (Fig 9's < 4 KB regime). It is ruled out
// when a chunk would overflow its rail's eager limit (the engine would
// have to switch protocol mid-message).
func PlanEager(n int, now time.Duration, rails []RailView, idleCores int, offloadCost time.Duration) EagerPlan {
	rails = Usable(rails)
	single := SingleRail{}.Split(n, now, rails)
	plan := EagerPlan{
		Parallel:  false,
		Chunks:    single,
		Predicted: PredictedCompletion(now, rails, single),
	}
	if n == 0 || len(rails) < 2 || idleCores < 2 {
		return plan
	}
	idleNICs := 0
	for i := range rails {
		if rails[i].IdleAt <= now {
			idleNICs++
		}
	}
	k := min(idleNICs, idleCores)
	if k < 2 {
		return plan
	}
	// Consider the k rails with the best single-rail completions.
	cand := bestRails(n, now, rails, k)
	chunks := HeteroSplit{}.Split(n, now, cand)
	if len(chunks) < 2 {
		return plan
	}
	byIndex := make(map[int]*RailView, len(cand))
	for i := range cand {
		byIndex[cand[i].Index] = &cand[i]
	}
	for _, c := range chunks {
		if r := byIndex[c.Rail]; r.EagerMax > 0 && c.Size > r.EagerMax {
			return plan
		}
	}
	par := offloadCost + PredictedCompletion(now, cand, chunks)
	if par >= plan.Predicted {
		return plan
	}
	return EagerPlan{Parallel: true, Chunks: chunks, OffloadCost: offloadCost, Predicted: par}
}

// bestRails returns the k rails with the earliest single-message
// completion, preserving the original order among the selected. It
// never adds rails, so an Up-filtered input stays Up-filtered.
//
//railvet:upfilter
func bestRails(n int, now time.Duration, rails []RailView, k int) []RailView {
	if k >= len(rails) {
		return rails
	}
	type scored struct {
		pos int
		t   time.Duration
	}
	s := make([]scored, len(rails))
	for i := range rails {
		s[i] = scored{i, rails[i].Completion(now, n)}
	}
	// Selection by repeated minimum keeps this dependency-free and
	// deterministic (k is tiny: the number of rails).
	picked := make([]bool, len(rails))
	for c := 0; c < k; c++ {
		best := -1
		for i := range s {
			if picked[i] {
				continue
			}
			if best == -1 || s[i].t < s[best].t {
				best = i
			}
		}
		picked[best] = true
	}
	out := make([]RailView, 0, k)
	for i := range rails {
		if picked[i] {
			out = append(out, rails[i])
		}
	}
	return out
}

// ModelEstimator adapts an analytic NIC profile to the Estimator
// interface. It backs the equation-(1) estimation harness (Fig 9) and
// tests that need exact model arithmetic instead of sampled curves.
type ModelEstimator struct {
	P *model.Profile
}

// Estimate implements Estimator with the model's protocol-selected
// one-way time.
func (m ModelEstimator) Estimate(n int) time.Duration { return m.P.OneWay(n) }

// SizeFor implements Estimator by binary search (OneWay is monotone).
func (m ModelEstimator) SizeFor(d time.Duration, max int) int {
	if max <= 0 {
		max = 64 << 20
	}
	if m.P.OneWay(max) <= d {
		return max
	}
	if m.P.OneWay(0) > d {
		return 0
	}
	lo, hi := 0, max
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if m.P.OneWay(mid) <= d {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
