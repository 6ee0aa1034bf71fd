// Package sampling implements the paper's network-sampling subsystem
// (§III-C): at initialisation each NIC is benchmarked at power-of-two
// sizes; the samples feed per-rail transfer-time estimators used by the
// split strategies.
//
// "First, the strategy accesses the results of the sampling measurements
// through structures initialized at the launch of NewMadeleine. Second,
// the sampled sizes that are the closest to the message size are
// retrieved, for instance using a logarithm in the case of power of 2
// samples. Finally, the estimated transfer time is computed by the mean
// of a linear interpolation."
//
// A Table holds one regime's samples (eager or rendezvous); a Profile
// bundles both regimes for one rail, provides the min-envelope estimate,
// and derives the rendezvous threshold — "sampling measurements can also
// be used to determine other parameters such as rendezvous threshold".
package sampling

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"
)

// Sample is one measured point: the one-way transfer duration of a
// Size-byte message.
type Sample struct {
	Size int
	T    time.Duration
}

// Table estimates transfer durations by log-indexed lookup plus linear
// interpolation over sampled sizes.
type Table struct {
	samples []Sample // sorted by Size, unique
	pow2    bool     // all sizes are powers of two (enables O(1) lookup)

	at0 time.Duration // Estimate(0), which SizeFor asks on every call
}

// NewTable builds a table from samples (any order; duplicates collapse to
// the last value). At least two samples are required.
func NewTable(samples []Sample) (*Table, error) {
	if len(samples) < 2 {
		return nil, fmt.Errorf("sampling: need at least 2 samples, got %d", len(samples))
	}
	bydim := make(map[int]time.Duration, len(samples))
	for _, s := range samples {
		if s.Size <= 0 {
			return nil, fmt.Errorf("sampling: non-positive sampled size %d", s.Size)
		}
		if s.T < 0 {
			return nil, fmt.Errorf("sampling: negative duration at size %d", s.Size)
		}
		bykey := s.Size
		bydim[bykey] = s.T
	}
	t := &Table{pow2: true}
	for size, d := range bydim {
		t.samples = append(t.samples, Sample{size, d})
	}
	sort.Slice(t.samples, func(i, j int) bool { return t.samples[i].Size < t.samples[j].Size })
	for _, s := range t.samples {
		if s.Size&(s.Size-1) != 0 {
			t.pow2 = false
			break
		}
	}
	t.at0 = t.Estimate(0)
	return t, nil
}

// Samples returns the sorted sample points.
func (t *Table) Samples() []Sample { return t.samples }

// MinSize and MaxSize bound the sampled range.
func (t *Table) MinSize() int { return t.samples[0].Size }
func (t *Table) MaxSize() int { return t.samples[len(t.samples)-1].Size }

// bracket returns the sample indices (i, i+1) surrounding n. For
// power-of-two tables the index is computed with a logarithm, as the
// paper describes; otherwise binary search is used.
func (t *Table) bracket(n int) (int, int) {
	s := t.samples
	if n <= s[0].Size {
		return 0, 1
	}
	if n >= s[len(s)-1].Size {
		return len(s) - 2, len(s) - 1
	}
	if t.pow2 {
		lg := bits.Len(uint(n)) - 1 // floor(log2 n)
		lg0 := bits.Len(uint(s[0].Size)) - 1
		i := lg - lg0
		// Contiguous power-of-two tables land exactly; guard holes.
		if i >= 0 && i+1 < len(s) && s[i].Size <= n && n <= s[i+1].Size {
			return i, i + 1
		}
	}
	i := sort.Search(len(s), func(k int) bool { return s[k].Size >= n }) // first >= n
	return i - 1, i
}

// Estimate predicts the transfer duration of an n-byte message by linear
// interpolation between the two nearest samples. Sizes outside the
// sampled range extrapolate linearly from the nearest segment (clamped to
// be nonnegative).
func (t *Table) Estimate(n int) time.Duration {
	if n < 0 {
		n = 0
	}
	i, j := t.bracket(n)
	a, b := t.samples[i], t.samples[j]
	if a.Size == b.Size {
		return a.T
	}
	frac := float64(n-a.Size) / float64(b.Size-a.Size)
	est := float64(a.T) + frac*float64(b.T-a.T)
	if est < 0 {
		est = 0
	}
	return time.Duration(math.Round(est))
}

// SizeFor inverts Estimate: the largest size whose estimated duration
// does not exceed d. Returns 0 if even the smallest transfers exceed d,
// and caps at max (pass 0 for "no cap" = 8x the sampled maximum).
//
// Where the table is monotone around d — every sample up to some size
// takes at most d, every larger one longer — Estimate crosses d exactly
// once, inside one known segment, and the answer is one division (plus a
// step or two against Estimate itself, which owns the rounding). Where
// durations dip across d (live-sampled noise) there are several
// crossings and no single answer; those queries keep the bisection and
// the answer it has always given.
func (t *Table) SizeFor(d time.Duration, max int) int {
	if max <= 0 {
		max = 8 * t.MaxSize()
	}
	if t.Estimate(max) <= d {
		return max
	}
	if t.at0 > d {
		return 0
	}
	s := t.samples
	j := 0 // the samples before j take at most d
	for j < len(s) && s[j].T <= d {
		j++
	}
	for _, later := range s[min(j+1, len(s)):] {
		if later.T <= d {
			return t.bisectSizeFor(d, max)
		}
	}
	// The crossing is in the segment that ends at sample j: the first
	// segment extended downwards when every sample is slower than d, the
	// last extended upwards when none is.
	j = min(j, len(s)-1)
	if j == 0 {
		j = 1 // below the first sample: the first segment, extended downwards
	}
	a, b := s[j-1], s[j]
	// Estimate(n) <= d  <=>  a.T + (n-a.Size)*slope < d + 0.5: it rounds half
	// up, and the slope is positive or an early return was taken. Estimate
	// itself has the last word on either side of the guess.
	n := a.Size + int(math.Floor((float64(d)+0.5-float64(a.T))*float64(b.Size-a.Size)/float64(b.T-a.T)))
	n = min(n, max-1)
	if n < 0 {
		n = 0
	}
	for n > 0 && t.Estimate(n) > d {
		n--
	}
	for n+1 < max && t.Estimate(n+1) <= d {
		n++
	}
	return n
}

// bisectSizeFor is SizeFor by bisection on Estimate, for a caller that
// has checked Estimate(0) <= d < Estimate(max): the reference the closed
// form is tested against, and the answer where Estimate crosses d more
// than once.
func (t *Table) bisectSizeFor(d time.Duration, max int) int {
	lo, hi := 0, max // invariant: Estimate(lo) <= d < Estimate(hi)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if t.Estimate(mid) <= d {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
