// Package telemetry is the online measurement subsystem of the engine:
// it turns every completed transfer unit into an observation and keeps
// the per-rail cost estimates the strategies plan with *live* instead of
// frozen at start-up.
//
// The paper's splitter decisions (Fig 2, eq. 1) consume per-rail
// latency/bandwidth estimators sampled once at launch. That table goes
// stale the moment a TCP rail congests, a peer moves, or a NIC recovers
// from failover. This package closes the loop:
//
//   - Tracker keeps, per (peer, rail) pair, an exponentially decayed
//     set of size-class cells (weight, mean size, mean duration) — the
//     per-size-class bandwidth/latency EWMAs. Observations arrive from
//     two sources: the fabric's transfer layer (write/occupancy times,
//     via the fabric.Telemetry hook) and the engine's ack path (unit
//     round trips, recorded on the progress workers).
//   - A drift detector compares every observation against the current
//     linear fit (the paper's α+βn cost model) and re-fits by weighted
//     least squares over the cells when observations persistently
//     diverge. Each refit bumps the Tracker epoch.
//   - RailEstimator adapts a (peer, rail) pair to strategy.Estimator,
//     blending the static sampled prior (the cold-start table) with the
//     live fit as observations accumulate — so with no traffic the
//     paper's behaviour is reproduced exactly, and with traffic the
//     estimates track the wire.
//
// Reads on the decision path (Estimate/SizeFor/Epoch) touch only
// atomics; observation writes take one short per-pair mutex and run on
// progress workers or transport goroutines, never on the caller of
// Isend. The plan cache in front of the strategies lives in cache.go.
package telemetry

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rt"
	"repro/internal/strategy"
)

// numClasses bounds the size-class ladder: class(n) = bits.Len(n), so
// class 40 covers messages up to 1 TiB — beyond any wire format here.
const numClasses = 40

// class returns the size class (log2 bucket) of an n-byte transfer.
func class(n int) int {
	c := 0
	for v := uint64(n); v != 0; v >>= 1 {
		c++
	}
	if c >= numClasses {
		c = numClasses - 1
	}
	return c
}

// SizeBucket exposes the size-class mapping for plan-cache keys: sends
// of similar size share a bucket, so a repeated workload re-plans once
// per epoch, not once per message.
func SizeBucket(n int) int { return class(n) }

// Path discriminates the protocol regime an observation measured. The
// combined (path-less) estimate drives the split strategies; the
// per-path planes let the engine re-derive the eager/rendezvous
// threshold from live measurements — the regimes have different cost
// shapes (PIO copy vs. handshake plus DMA), so their crossover moves
// when only one of them degrades.
type Path int

const (
	// PathEager is an eager-container measurement (one-way PIO-regime
	// transfer time, from the container's ack round trip).
	PathEager Path = iota
	// PathRdv is a whole-rendezvous measurement on a single rail:
	// handshake plus transfer plus completion, comparable to what the
	// start-up sampling's rendezvous curve measured.
	PathRdv

	numPaths
)

// Config tunes a Tracker.
type Config struct {
	// Peers and Rails dimension the (peer, rail) pair table.
	Peers, Rails int
	// EagerPrior and RdvPrior, when non-nil, hold each protocol
	// regime's own sampled curve per rail. They are the slope donors
	// when a plane refit has a single populated size class: borrowing
	// the combined (min-envelope) prior's slope there would fit, say,
	// the rendezvous plane with the eager curve's shape and derive a
	// wrong crossover for exactly the repeated-size workloads the live
	// threshold targets. Missing entries fall back to the combined
	// prior. Entries may be nil (a rail without an eager regime).
	EagerPrior, RdvPrior []strategy.Estimator
	// PathGroup assigns each rail to a shared host path (same id = the
	// rails contend on one underlying resource, e.g. every loopback TCP
	// rail rides the kernel's one loopback queue; a shared-memory rail
	// has its own ring). Negative means unshared. When transfers on
	// group-mates overlap in time, the observer attributes the overlap
	// to contention and discounts the observed duration — without this,
	// striping over loopback rails teaches the tracker that every rail
	// is slow exactly when the plans stripe hardest. Nil disables the
	// attribution entirely.
	PathGroup []int
	// HalfLife is the decay half-life of the observation cells: an
	// observation half as old as this counts double. Default 250ms (of
	// the environment clock — virtual on the simulator).
	HalfLife time.Duration
	// WarmupObs is the observation count at which a pair's live fit is
	// fully trusted over the static prior (default 8).
	WarmupObs int
}

// A pair's linear fit is declared stale and re-fit when the EWMA of its
// relative prediction error exceeds driftThreshold, at most once every
// minRefitObs observations (bounding refit churn).
const (
	driftThreshold = 0.25
	minRefitObs    = 6
)

func (c *Config) defaults() {
	if c.HalfLife <= 0 {
		c.HalfLife = 250 * time.Millisecond
	}
	if c.WarmupObs <= 0 {
		c.WarmupObs = 8
	}
}

// cell is one size class of one (peer, rail) pair: exponentially
// decayed sums, so mean size = sizeSum/w and mean duration = durSum/w.
type cell struct {
	w       float64
	sizeSum float64
	durSum  float64 // nanoseconds
	at      time.Duration
}

// pair is the live state of one (peer, rail) pair. The mutex guards the
// cells and fit bookkeeping; the fitted coefficients and warmth are
// atomics so the decision path never locks.
type pair struct {
	mu          sync.Mutex
	cells       [numClasses]cell
	obsSinceFit int
	drift       float64 // EWMA of |observed-fit|/fit
	fitted      bool

	alphaNS atomic.Int64  // fitted latency, nanoseconds
	betaFP  atomic.Uint64 // fitted ns/byte as float64 bits
	warmth  atomic.Uint32 // observations folded in (saturating)
}

// Tracker is one node's telemetry state: a (peer, rail) pair table (plus
// one plane per protocol path), the global epoch, and counters.
type Tracker struct {
	env    rt.Env
	cfg    Config
	priors []strategy.Estimator // per rail: the cold-start sampled table

	pairs  []pair           // peer*Rails + rail: the combined estimate
	planes [numPaths][]pair // per-path regimes (eager threshold derivation)

	groups map[int]*hostPath // shared-path contention bookkeeping

	epoch     atomic.Uint64
	refits    atomic.Uint64
	obs       atomic.Uint64
	contended atomic.Uint64
}

// hostPath tracks the recent transfer spans of one shared host path so
// concurrent-transfer overlap can be attributed to contention.
type hostPath struct {
	mu     sync.Mutex
	recent []transferSpan
	next   int
}

// transferSpan is one observed transfer's time interval on a rail.
type transferSpan struct {
	start, end time.Duration
	rail       int
}

// pathSpans bounds the per-group span memory: overlap only matters
// against transfers recent enough to still be in flight together.
const pathSpans = 64

// Stats is a snapshot of a Tracker's counters.
type Stats struct {
	// Observations is the number of transfer measurements folded in.
	Observations uint64
	// Refits counts linear-model refits triggered by the drift detector.
	Refits uint64
	// Epoch is the current estimate epoch: it bumps on every refit and
	// on every rail-set (health) change, invalidating cached plans.
	Epoch uint64
}

// NewTracker builds a tracker for a node that talks to cfg.Peers peers
// over cfg.Rails rails. priors holds one static estimator per rail (the
// start-up sampling table) used until live observations warm the pair
// up — and as the slope prior when only one size class has been seen.
func NewTracker(env rt.Env, cfg Config, priors []strategy.Estimator) (*Tracker, error) {
	cfg.defaults()
	if cfg.Peers < 1 || cfg.Rails < 1 {
		return nil, fmt.Errorf("telemetry: need peers and rails >= 1, got %d/%d", cfg.Peers, cfg.Rails)
	}
	if len(priors) != cfg.Rails {
		return nil, fmt.Errorf("telemetry: %d priors for %d rails", len(priors), cfg.Rails)
	}
	if cfg.PathGroup != nil && len(cfg.PathGroup) != cfg.Rails {
		return nil, fmt.Errorf("telemetry: %d path groups for %d rails", len(cfg.PathGroup), cfg.Rails)
	}
	t := &Tracker{
		env:    env,
		cfg:    cfg,
		priors: priors,
		pairs:  make([]pair, cfg.Peers*cfg.Rails),
		groups: make(map[int]*hostPath),
	}
	for p := range t.planes {
		t.planes[p] = make([]pair, cfg.Peers*cfg.Rails)
	}
	for _, g := range cfg.PathGroup {
		if g >= 0 && t.groups[g] == nil {
			t.groups[g] = &hostPath{recent: make([]transferSpan, 0, pathSpans)}
		}
	}
	return t, nil
}

// Peers returns the tracked peer count.
func (t *Tracker) Peers() int { return t.cfg.Peers }

// Rails returns the tracked rail count.
func (t *Tracker) Rails() int { return t.cfg.Rails }

// Epoch returns the current estimate epoch.
func (t *Tracker) Epoch() uint64 { return t.epoch.Load() }

// BumpEpoch advances the epoch without a refit — the engine calls it
// when the usable rail set changes (a rail died or recovered), so every
// cached plan from the old rail set goes stale at once.
func (t *Tracker) BumpEpoch() { t.epoch.Add(1) }

// Stats returns a snapshot of the tracker counters.
func (t *Tracker) Stats() Stats {
	return Stats{
		Observations: t.obs.Load(),
		Refits:       t.refits.Load(),
		Epoch:        t.epoch.Load(),
	}
}

// Coeffs is a snapshot of one (peer, rail) pair's fitted cost model
// α + β·n: latency, per-byte cost and how warmed-up the fit is.
type Coeffs struct {
	// Alpha is the fitted fixed latency.
	Alpha time.Duration
	// BetaNSPerByte is the fitted marginal cost in nanoseconds per byte
	// (bandwidth ≈ 1e9/Beta bytes per second when Beta > 0).
	BetaNSPerByte float64
	// Warmth is how many observations the fit has folded in (saturating
	// at the configured warm-up count).
	Warmth int
}

// FittedCoeffs returns the current fitted coefficients for a pair —
// three atomic loads, cheap enough for scrape-time gauge funcs. Zero
// values mean the pair has never been observed.
func (t *Tracker) FittedCoeffs(peer, rail int) Coeffs {
	if peer < 0 || peer >= t.cfg.Peers || rail < 0 || rail >= t.cfg.Rails {
		return Coeffs{}
	}
	p := t.pair(peer, rail)
	return Coeffs{
		Alpha:         time.Duration(p.alphaNS.Load()),
		BetaNSPerByte: math.Float64frombits(p.betaFP.Load()),
		Warmth:        int(p.warmth.Load()),
	}
}

func (t *Tracker) pair(peer, rail int) *pair {
	return &t.pairs[peer*t.cfg.Rails+rail]
}

func (t *Tracker) planePair(path Path, peer, rail int) *pair {
	return &t.planes[path][peer*t.cfg.Rails+rail]
}

// ContentionAdjusted counts fabric observations whose duration was
// discounted for shared-path overlap (diagnostics and tests).
func (t *Tracker) ContentionAdjusted() uint64 { return t.contended.Load() }

// ObserveTransfer implements the fabric.Telemetry hook: the transfer
// layer reports one completed wire transfer (write duration on livenet,
// ring copy time on shmnet, modeled occupancy plus wire latency on
// simnet). When the rail shares a host path with others (PathGroup),
// the duration is first discounted by the time this transfer overlapped
// concurrent transfers on its group-mates: on one-host TCP every rail
// rides the same kernel loopback queue, so under striping each rail's
// raw measurement includes the others' traffic — attributing that
// inflation to the rail itself would teach the tracker that striping
// makes every rail slow, exactly the regime where estimates matter.
func (t *Tracker) ObserveTransfer(peer, rail, bytes int, d time.Duration) {
	if rail >= 0 && rail < len(t.cfg.PathGroup) {
		if g := t.cfg.PathGroup[rail]; g >= 0 {
			d = t.attributeContention(t.groups[g], rail, d)
		}
	}
	t.Observe(peer, rail, bytes, d)
}

// attributeContention discounts a transfer's duration by its overlap
// with concurrent transfers on other rails of the same host path. With
// overlapSum = total concurrent-transfer time from group-mates inside
// [start, end], the adjusted duration is d² / (d + overlapSum): no
// overlap leaves d unchanged, full overlap with k concurrent
// group-mates yields d/(k+1) — the equal-share bandwidth model of a
// saturated common path.
func (t *Tracker) attributeContention(g *hostPath, rail int, d time.Duration) time.Duration {
	if g == nil || d <= 0 {
		return d
	}
	end := t.env.Now()
	start := end - d
	var overlap time.Duration
	g.mu.Lock()
	for _, s := range g.recent {
		if s.rail == rail {
			continue
		}
		lo, hi := max(start, s.start), min(end, s.end)
		if hi > lo {
			overlap += hi - lo
		}
	}
	span := transferSpan{start: start, end: end, rail: rail}
	if len(g.recent) < pathSpans {
		g.recent = append(g.recent, span)
	} else {
		g.recent[g.next] = span
		g.next = (g.next + 1) % pathSpans
	}
	g.mu.Unlock()
	if overlap <= 0 {
		return d
	}
	t.contended.Add(1)
	adj := time.Duration(float64(d) * float64(d) / float64(d+overlap))
	if adj < time.Nanosecond {
		adj = time.Nanosecond
	}
	return adj
}

// pathPrior returns the slope-donor prior of one regime plane: the
// regime's own sampled curve when configured, the combined prior
// otherwise.
func (t *Tracker) pathPrior(path Path, rail int) strategy.Estimator {
	var per []strategy.Estimator
	switch path {
	case PathEager:
		per = t.cfg.EagerPrior
	case PathRdv:
		per = t.cfg.RdvPrior
	}
	if rail < len(per) && per[rail] != nil {
		return per[rail]
	}
	return t.priors[rail]
}

// ObservePath folds one measured transfer into a per-path regime plane
// (and nothing else): the engine feeds eager-container times into
// PathEager and whole single-rail rendezvous times into PathRdv, from
// which the live eager threshold is derived. Same accounting rules as
// Observe.
func (t *Tracker) ObservePath(path Path, peer, rail, bytes int, d time.Duration) {
	if path < 0 || path >= numPaths {
		return
	}
	if peer < 0 || peer >= t.cfg.Peers || rail < 0 || rail >= t.cfg.Rails || bytes < 0 || d <= 0 {
		return
	}
	t.observeInto(t.planePair(path, peer, rail), t.pathPrior(path, rail), bytes, d)
}

// Observe folds one measured transfer into the (peer, rail) pair:
// bytes moved and the one-way duration observed. It runs on progress
// workers and transport goroutines; it never blocks beyond the pair's
// short mutex and never runs on the Isend caller.
func (t *Tracker) Observe(peer, rail, bytes int, d time.Duration) {
	if peer < 0 || peer >= t.cfg.Peers || rail < 0 || rail >= t.cfg.Rails || bytes < 0 || d <= 0 {
		return
	}
	t.observeInto(t.pair(peer, rail), t.priors[rail], bytes, d)
}

// observeInto is the shared accounting: decayed-cell update, drift
// detection, refit, warmth and epoch bookkeeping for one pair (combined
// or plane). prior donates the slope when the pair's data spans a
// single size class.
func (t *Tracker) observeInto(p *pair, prior strategy.Estimator, bytes int, d time.Duration) {
	now := t.env.Now()
	ns := float64(d.Nanoseconds())

	p.mu.Lock()
	c := &p.cells[class(bytes)]
	if c.w > 0 && now > c.at {
		// Exponential time decay: old observations fade with HalfLife.
		decay := math.Exp2(-float64(now-c.at) / float64(t.cfg.HalfLife))
		c.w *= decay
		c.sizeSum *= decay
		c.durSum *= decay
	}
	c.w++
	c.sizeSum += float64(bytes)
	c.durSum += ns
	c.at = now

	refit := false
	if p.fitted {
		pred := float64(p.alphaNS.Load()) + math.Float64frombits(p.betaFP.Load())*float64(bytes)
		if pred < 1 {
			pred = 1
		}
		rel := math.Abs(ns-pred) / pred
		p.drift = 0.75*p.drift + 0.25*rel
		p.obsSinceFit++
		refit = p.drift > driftThreshold && p.obsSinceFit >= minRefitObs
	} else {
		refit = true // first observations establish the initial fit
	}
	if refit {
		p.refit(t, prior)
	}
	p.mu.Unlock()

	// Warmth gates the prior-vs-live blend; when it crosses WarmupObs
	// the live fit has fully displaced the cold-start prior, so plans
	// cached against the prior-based estimates must go stale — even if
	// the fit itself never drifted (a *wrong prior* produces no drift:
	// the first fit already matches reality).
	if p.warmth.Add(1) == uint32(t.cfg.WarmupObs) {
		t.epoch.Add(1)
	}
	t.obs.Add(1)
}

// refit recomputes the linear α+βn fit from the decayed cells by
// weighted least squares; with a single populated size class the slope
// is borrowed from the prior so same-size workloads still adapt their
// level. The caller holds p.mu. Every fit — the initial one included —
// bumps the tracker epoch: estimates changed, so cached plans are
// stale (an epoch bump costs one cache miss per hot key; serving plans
// computed against superseded estimates costs real bandwidth).
func (p *pair) refit(t *Tracker, prior strategy.Estimator) {
	var sw, sx, sy, sxx, sxy float64
	populated := 0
	var lone *cell
	for i := range p.cells {
		c := &p.cells[i]
		if c.w <= 1e-9 {
			continue
		}
		populated++
		lone = c
		x := c.sizeSum / c.w
		y := c.durSum / c.w
		sw += c.w
		sx += c.w * x
		sy += c.w * y
		sxx += c.w * x * x
		sxy += c.w * x * y
	}
	if populated == 0 {
		return
	}
	var alpha, beta float64
	if populated == 1 {
		x := lone.sizeSum / lone.w
		y := lone.durSum / lone.w
		beta = priorSlope(prior, x)
		alpha = y - beta*x
	} else {
		den := sw*sxx - sx*sx
		if den <= 1e-9 {
			return
		}
		beta = (sw*sxy - sx*sy) / den
		alpha = (sy - beta*sx) / sw
		if beta < 0 {
			// A negative slope is measurement noise (bigger cannot be
			// faster); fall back to the level-shift fit at the weighted
			// mean point.
			beta = priorSlope(prior, sx/sw)
			alpha = sy/sw - beta*(sx/sw)
		}
	}
	// Guard against degenerate flat fits: noisy observations (e.g. rail
	// attribution under loopback contention) can push all cost into α
	// with β ≈ 0, and a flat estimate loses every SizeFor comparison —
	// HeteroSplit would discard the rail entirely and starve it of the
	// very observations that would rehabilitate it. Require at least
	// half the mean observed cost to be size-proportional, keeping the
	// fit through the weighted mean point.
	if xm, ym := sx/sw, sy/sw; xm > 0 && ym > 0 {
		if minBeta := 0.5 * ym / xm; beta < minBeta {
			beta = minBeta
			alpha = ym - beta*xm
		}
	}
	if alpha < 0 {
		alpha = 0
	}
	if beta < 0 {
		beta = 0
	}
	p.alphaNS.Store(int64(alpha))
	p.betaFP.Store(math.Float64bits(beta))
	p.fitted = true
	p.obsSinceFit = 0
	p.drift = 0
	t.refits.Add(1)
	t.epoch.Add(1)
}

// priorSlope extracts the prior's marginal cost per byte around size x
// (ns/byte), the slope borrowed when live data spans one size class.
func priorSlope(prior strategy.Estimator, x float64) float64 {
	n := int(x)
	if n < 1 {
		n = 1
	}
	d := prior.Estimate(2*n) - prior.Estimate(n)
	if d <= 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// RailEstimator adapts one (peer, rail) pair to strategy.Estimator:
// the static sampled prior warmed away by the live fit.
type RailEstimator struct {
	t     *Tracker
	p     *pair
	prior strategy.Estimator
}

// Estimator returns the live estimator of a (peer, rail) pair, backed
// by the given cold-start prior (the rail's sampled RailProfile).
func (t *Tracker) Estimator(peer, rail int, prior strategy.Estimator) *RailEstimator {
	return &RailEstimator{t: t, p: t.pair(peer, rail), prior: prior}
}

// PathEstimator returns the live estimator of one protocol regime of a
// (peer, rail) pair, backed by the regime's own prior (the sampled
// eager or rendezvous curve). With no plane observations it reproduces
// the prior exactly, so the derived eager threshold starts at the
// start-up table's and moves only as the regime is actually measured.
func (t *Tracker) PathEstimator(path Path, peer, rail int, prior strategy.Estimator) *RailEstimator {
	return &RailEstimator{t: t, p: t.planePair(path, peer, rail), prior: prior}
}

// weight returns how much the live fit is trusted: 0 with no
// observations, 1 from WarmupObs on.
func (e *RailEstimator) weight() float64 {
	w := float64(e.p.warmth.Load()) / float64(e.t.cfg.WarmupObs)
	if w > 1 {
		return 1
	}
	return w
}

// Estimate implements strategy.Estimator: the warmth-blended one-way
// prediction. Lock-free — two atomic loads plus the prior's table
// lookup.
func (e *RailEstimator) Estimate(n int) time.Duration {
	p := e.p
	w := e.weight()
	if w == 0 {
		return e.prior.Estimate(n)
	}
	live := time.Duration(p.alphaNS.Load()) +
		time.Duration(math.Float64frombits(p.betaFP.Load())*float64(n))
	if live < time.Nanosecond {
		live = time.Nanosecond
	}
	if w == 1 {
		return live
	}
	return time.Duration(w*float64(live) + (1-w)*float64(e.prior.Estimate(n)))
}

// SizeFor implements strategy.Estimator by binary search on Estimate,
// which is monotone (both the prior and the clamped linear fit are).
func (e *RailEstimator) SizeFor(d time.Duration, max int) int {
	if e.weight() == 0 {
		return e.prior.SizeFor(d, max)
	}
	cap := max
	if cap <= 0 {
		cap = 64 << 20
	}
	if e.Estimate(cap) <= d {
		return cap
	}
	if e.Estimate(0) > d {
		return 0
	}
	lo, hi := 0, cap
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if e.Estimate(mid) <= d {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
