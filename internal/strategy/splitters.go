package strategy

import (
	"math"
	"sort"
	"time"
)

// SingleRail sends the whole message on the rail with the earliest
// predicted completion. Because the prediction includes each NIC's idle
// horizon, a busy-but-fast NIC can beat an idle-but-slow one — the
// decision of Fig 2.
type SingleRail struct{}

// Name implements Splitter.
func (SingleRail) Name() string { return "single-rail" }

// Split implements Splitter.
func (SingleRail) Split(n int, now time.Duration, rails []RailView) []Chunk {
	if n == 0 {
		return nil
	}
	return []Chunk{{Rail: BestRail(n, now, rails), Offset: 0, Size: n}}
}

// BestRail is SingleRail's decision without the one-chunk plan around
// it: the Index of the usable rail (see Usable) with the earliest
// predicted completion of an n-byte transfer, the first such rail on a
// tie. It allocates nothing — the per-container and per-handshake rail
// picks call it. rails must not be empty.
//
//railvet:upfilter
func BestRail(n int, now time.Duration, rails []RailView) int {
	anyUp := false
	for i := range rails {
		anyUp = anyUp || !rails[i].Down
	}
	best, bestT := -1, time.Duration(0)
	for i := range rails {
		if anyUp && rails[i].Down {
			continue
		}
		if t := rails[i].Completion(now, n); best < 0 || t < bestT {
			best, bestT = i, t
		}
	}
	return rails[best].Index
}

// IsoSplit cuts the message into equal chunks, one per rail (Fig 1b).
// The remainder goes to the first rails.
type IsoSplit struct{}

// Name implements Splitter.
func (IsoSplit) Name() string { return "iso-split" }

// Split implements Splitter.
func (IsoSplit) Split(n int, now time.Duration, rails []RailView) []Chunk {
	if n == 0 {
		return nil
	}
	rails = Usable(rails)
	k := len(rails)
	if k > n {
		k = n // at most one byte per chunk
	}
	base := n / k
	rem := n % k
	chunks := make([]Chunk, 0, k)
	off := 0
	for i := 0; i < k; i++ {
		size := base
		if i < rem {
			size++
		}
		chunks = append(chunks, Chunk{Rail: rails[i].Index, Offset: off, Size: size})
		off += size
	}
	return chunks
}

// HeteroSplit sizes the chunks so that every participating rail is
// predicted to finish at the same instant (Fig 1c), taking each NIC's
// remaining busy time into account (Fig 2). The equal-completion point is
// found by bisection on the completion time, which generalises the
// paper's two-rail ratio dichotomy to any number of rails; rails that
// cannot contribute before the common completion receive no chunk and
// are thereby discarded, exactly as §II-B prescribes.
type HeteroSplit struct {
	// MinChunk suppresses chunks smaller than this (0 = 1 byte). Tiny
	// slivers cost more in per-chunk overhead than they save.
	MinChunk int
	// MaxIter bounds the bisection (0 = 64, enough for nanosecond
	// precision over any practical horizon).
	MaxIter int
}

// Name implements Splitter.
func (h HeteroSplit) Name() string { return "hetero-split" }

// Split implements Splitter.
func (h HeteroSplit) Split(n int, now time.Duration, rails []RailView) []Chunk {
	return h.AppendSplit(nil, n, now, rails)
}

// AppendSplit implements Appender: Split into dst's storage. The per-rail
// sizes live on the stack for up to eight rails, so a caller that reuses
// dst plans without allocating.
func (h HeteroSplit) AppendSplit(dst []Chunk, n int, now time.Duration, rails []RailView) []Chunk {
	if n == 0 {
		return dst
	}
	rails = Usable(rails)
	minChunk := h.MinChunk
	if minChunk < 1 {
		minChunk = 1
	}
	// capacity(T) = total bytes the rails can complete by now+T.
	capacity := func(T time.Duration) int {
		total := 0
		for i := range rails {
			total += h.railCap(&rails[i], now, T, n)
		}
		return total
	}
	// Upper bound: the best single-rail completion always suffices.
	hi := rails[0].Completion(now, n)
	for i := 1; i < len(rails); i++ {
		if t := rails[i].Completion(now, n); t < hi {
			hi = t
		}
	}
	if capacity(hi) < n {
		// Estimators can be slightly non-inverting at the boundary; fall
		// back to the single best rail.
		return append(dst, Chunk{Rail: BestRail(n, now, rails), Size: n})
	}
	lo := time.Duration(0)
	iters := h.MaxIter
	if iters <= 0 {
		iters = 64
	}
	for it := 0; it < iters && hi-lo > 1; it++ {
		mid := lo + (hi-lo)/2
		if capacity(mid) >= n {
			hi = mid
		} else {
			lo = mid
		}
	}
	// Allocate chunk sizes at the equalising completion time hi.
	var stack [8]int
	sizes := stack[:0]
	if len(rails) > len(stack) {
		sizes = make([]int, 0, len(rails))
	}
	sizes = sizes[:len(rails)]
	total := 0
	for i := range rails {
		sizes[i] = h.railCap(&rails[i], now, hi, n)
		total += sizes[i]
	}
	// Trim the surplus introduced by discretisation, preferring to shrink
	// the slowest rails (largest completion reduction per byte removed).
	surplus := total - n
	for i := len(rails) - 1; i >= 0 && surplus > 0; i-- {
		cut := surplus
		if cut > sizes[i] {
			cut = sizes[i]
		}
		sizes[i] -= cut
		surplus -= cut
	}
	// Suppress slivers below MinChunk, folding them into the largest
	// chunk.
	largest := 0
	for i := range sizes {
		if sizes[i] > sizes[largest] {
			largest = i
		}
	}
	if surplus < 0 {
		// The rails came out short of n: a live estimator moved between the
		// bisection's last probe and this allocation (telemetry refits it
		// from other goroutines). A plan must cover every byte whatever the
		// estimates do — a receiver waits forever for the ones it leaves out.
		sizes[largest] -= surplus
	}
	for i := range sizes {
		if i != largest && sizes[i] > 0 && sizes[i] < minChunk {
			sizes[largest] += sizes[i]
			sizes[i] = 0
		}
	}
	// Emit chunks in rail order for deterministic offsets.
	from, off := len(dst), 0
	for i := range rails {
		if sizes[i] == 0 {
			continue
		}
		dst = append(dst, Chunk{Rail: rails[i].Index, Offset: off, Size: sizes[i]})
		off += sizes[i]
	}
	if len(dst) == from {
		return append(dst, Chunk{Rail: BestRail(n, now, rails), Size: n})
	}
	return dst
}

// railCap returns how many bytes rail r can finish within T of now,
// capped at n.
func (h HeteroSplit) railCap(r *RailView, now, T time.Duration, n int) int {
	budget := T - r.wait(now)
	if budget <= 0 {
		return 0
	}
	c := r.Est.SizeFor(budget, n)
	if c > n {
		c = n
	}
	return c
}

// SplitRatioDichotomy is the paper's literal two-rail procedure: "The
// algorithm begins by splitting the packets in two chunks of equal size.
// It then compares the predicted transfer time required by each network.
// For each interface, the time remaining before it becomes idle is added
// to its predicted transfer time. This dichotomy process is repeated
// until a split ratio where both transfer durations are equivalent is
// found." It returns the ratio of the message assigned to rail a.
func SplitRatioDichotomy(n int, now time.Duration, a, b RailView, iters int) float64 {
	if iters <= 0 {
		iters = 40
	}
	lo, hi := 0.0, 1.0
	ratio := 0.5
	for it := 0; it < iters; it++ {
		ratio = (lo + hi) / 2
		na := int(math.Round(ratio * float64(n)))
		ta := a.Completion(now, na)
		tb := b.Completion(now, n-na)
		if ta == tb {
			break
		}
		if ta > tb {
			hi = ratio // rail a is the bottleneck: shrink its share
		} else {
			lo = ratio
		}
	}
	return ratio
}

// RatioSplit is the OpenMPI-style baseline of §II-A: fixed per-rail
// weights computed once (from each rail's throughput at a reference
// size), applied to every message and blind to NIC state. The paper's
// criticism — "a split ratio for a 8 MB message may not fit a 256 KB
// message" — is demonstrated by the ablation bench.
type RatioSplit struct {
	// RefSize is the size at which the weights were computed.
	RefSize int
	// Weights maps rail index to its share. Build with NewRatioSplit.
	Weights map[int]float64
}

// NewRatioSplit computes the fixed weights from the rails' estimated
// throughput at refSize (typically the largest benchmarked message). A
// Down rail contributes no weight: ratios computed over a dead rail
// would permanently route a share of every message to it.
func NewRatioSplit(refSize int, rails []RailView) *RatioSplit {
	rails = Usable(rails)
	w := make(map[int]float64, len(rails))
	var sum float64
	for _, r := range rails {
		d := r.Est.Estimate(refSize)
		if d <= 0 {
			continue
		}
		bw := float64(refSize) / d.Seconds()
		w[r.Index] = bw
		sum += bw
	}
	for i := range w {
		w[i] /= sum
	}
	return &RatioSplit{RefSize: refSize, Weights: w}
}

// Name implements Splitter.
func (r *RatioSplit) Name() string { return "fixed-ratio" }

// Split implements Splitter.
func (r *RatioSplit) Split(n int, now time.Duration, rails []RailView) []Chunk {
	if n == 0 {
		return nil
	}
	rails = Usable(rails)
	// Deterministic order: rails as given.
	chunks := make([]Chunk, 0, len(rails))
	off := 0
	for i, rv := range rails {
		var size int
		if i == len(rails)-1 {
			size = n - off
		} else {
			size = int(math.Round(r.Weights[rv.Index] * float64(n)))
			if size > n-off {
				size = n - off
			}
		}
		if size <= 0 {
			continue
		}
		chunks = append(chunks, Chunk{Rail: rv.Index, Offset: off, Size: size})
		off += size
	}
	if off != n && len(chunks) > 0 {
		chunks[len(chunks)-1].Size += n - off
	}
	return chunks
}

// AssignGreedy reproduces the basic balancing of §II-A and Fig 3: each
// packet goes, whole, to the rail predicted to be idle first; the rail's
// horizon is then advanced by that packet's transfer time. It returns the
// chosen rail index for each packet.
func AssignGreedy(sizes []int, now time.Duration, rails []RailView) []int {
	rails = Usable(rails)
	horizon := make(map[int]time.Duration, len(rails))
	order := make([]int, len(rails))
	for i, r := range rails {
		horizon[r.Index] = r.IdleAt
		order[i] = r.Index
	}
	sort.Ints(order)
	byIndex := make(map[int]*RailView, len(rails))
	for i := range rails {
		byIndex[rails[i].Index] = &rails[i]
	}
	out := make([]int, len(sizes))
	for j, sz := range sizes {
		best := order[0]
		for _, idx := range order[1:] {
			if horizon[idx] < horizon[best] {
				best = idx
			}
		}
		out[j] = best
		start := horizon[best]
		if start < now {
			start = now
		}
		horizon[best] = start + byIndex[best].Est.Estimate(sz)
	}
	return out
}
