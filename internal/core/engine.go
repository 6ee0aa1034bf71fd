// Package core implements the paper's primary contribution: the
// NewMadeleine-style multirail communication engine.
//
// Architecture (paper Fig 5/6): the application layer enqueues packets
// into a submit list and returns immediately; the optimizer–scheduler —
// this package — is activated at the paper's three critical moments
// (a NIC becomes idle / a rendezvous arrives / an eager packet is about
// to be emitted) and decides, from the sampled performance profiles and
// the NICs' and cores' activity, the best combination of transfers; the
// transfer layer is the fabric (internal/fabric: simnet, or the live
// transports of internal/railcore). The fabric detects events and hands
// each delivery to dispatch, which queues its steps on the progress
// workers — the roles PIOMan and Marcel's tasklets play for the paper's
// library.
//
// Multicore progression (internal/progress): the engine's state is
// sharded by flow so concurrent flows never contend on one lock —
// matching tables (posted receives, unexpected messages, queued RTS,
// reassemblies) shard by (peer, tag) hash, unacked transfer units and
// pending rendezvous shard by (peer, unit id) hash (a container ack
// carries no single tag). A per-core worker pool executes all engine
// work: sends are aggregated off the caller's goroutine through
// per-destination submit queues flushed by workers, and deliveries are
// fed to the workers directly (eager packets and RTS on
// their flow's worker, preserving matching order; chunks of one striped
// message spread across workers, copying into the receive buffer in
// parallel).
//
// Protocols:
//
//   - Eager: payloads up to the sampled rendezvous threshold are sent
//     immediately. Pending packets to the same destination are
//     aggregated into one container on the fastest available rail
//     (the paper's finding that aggregation beats greedy multirail
//     dispatch for eager packets, Fig 3); a single medium-sized packet
//     may instead be split and submitted in parallel from several idle
//     cores, paying the 3 µs offload cost (Fig 7 / equation (1)).
//   - Rendezvous: larger messages handshake (RTS/CTS), then the split
//     strategy distributes chunks over the rails so all DMAs finish
//     together (Fig 1c/2/8). A chunk is posted as header + an alias of
//     the caller's buffer (sendChunk) and, on fabrics with a placer,
//     lands in the posted receive buffer straight from the transport
//     reader (placeChunk): no intermediate copy, which is what the
//     handshake is for.
//
// Adaptive mode (Config.Telemetry) keeps both protocols and their
// decision rules and changes only what they are fed: the rail views
// carry the tracker's live per-(peer, rail) estimators instead of the
// start-up sampling tables. The splitter alone decides single rail vs
// striped — HeteroSplit's equal-finish bisection starts at the best
// single rail, so its plan is never predicted slower — and the
// parallel-eager decision is the same prediction as with telemetry
// off. Rendezvous plans are cached by (dest, size bucket, epoch), and
// periodic iso probes keep starved rails measured.
//
// Tracing: each boundary of a message's life (submit, decision, send,
// delivery, completion, ack) is one record. It is stamped once from the
// engine's clock and written into Config.Flight, the always-on flight
// recorder, and into Config.Tracer when one is installed; the stage
// histogram and the transfer unit's send stamp reuse that instant, so a
// boundary costs one clock read however many planes observe it.
//
// Matching is by (source, tag) in completion order; concurrent messages
// on one (source, tag) pair may overtake each other — use distinct tags
// for concurrent flows, as the examples do. Distinct (source, tag)
// pairs are independent: they live in separate shards and progress on
// separate workers.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/progress"
	"repro/internal/rt"
	"repro/internal/sampling"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// EagerPolicy selects how eager packets are scheduled.
type EagerPolicy int

const (
	// PolicyAggregate is the paper's strategy: aggregate pending packets
	// on the fastest available rail; optionally split single medium
	// packets across rails from parallel cores (see EagerParallel).
	PolicyAggregate EagerPolicy = iota
	// PolicyGreedy is the Fig 3 baseline: every packet goes, whole, to
	// the rail predicted idle first; no aggregation, no offloading.
	PolicyGreedy
)

func (p EagerPolicy) String() string {
	switch p {
	case PolicyAggregate:
		return "aggregate"
	case PolicyGreedy:
		return "greedy"
	default:
		return fmt.Sprintf("EagerPolicy(%d)", int(p))
	}
}

// Config parameterises one engine (one node).
type Config struct {
	// Splitter distributes rendezvous messages (default: HeteroSplit).
	Splitter strategy.Splitter
	// Eager selects the eager scheduling policy (default: aggregate).
	Eager EagerPolicy
	// EagerParallel enables the multicore parallel submission of single
	// eager packets (§III-D). Off by default, matching the paper's
	// preliminary implementation being "still too costly"; the Fig 9
	// bench turns it on to cross-validate the estimation.
	EagerParallel bool
	// Workers is the progression/submit worker count (default: the
	// node's cores). Every worker is one actor of the engine's progress
	// pool; flushes and deliveries for distinct flows run on distinct
	// workers.
	Workers int
	// Shards is the flow-shard count for the matching/pending/unacked
	// tables (default: smallest power of two >= 4*Workers, min 8).
	// Rounded up to a power of two.
	Shards int
	// Telemetry, when non-nil, turns the adaptive feedback loop on: the
	// engine records every completed transfer unit into the tracker (on
	// the progress workers — never on the Isend caller), builds its
	// strategy RailViews from the tracker's live per-(peer, rail)
	// estimators instead of the static sampling tables, caches
	// rendezvous plans by (dest, size bucket, epoch), and bumps the
	// tracker epoch on rail health transitions. The splitter then
	// decides single rail vs striped from the live estimates. Nil
	// reproduces the paper's static behaviour exactly.
	Telemetry *telemetry.Tracker
	// ProbeEvery makes every n-th rendezvous plan bypass the cache and
	// stripe over every usable rail (iso), so rails the current plan
	// starves keep producing observations and can be re-adopted when
	// they recover (default 16; adaptive mode only).
	ProbeEvery int
	// Flight, when non-nil, is the always-on event sink: the engine
	// records every event of the per-message timeline into it (the role
	// FxT tracing plays for the original library), and calls NoteAnomaly
	// from its clock when a rail is lost or a unit is replayed, so the
	// recorder snapshots the events leading up to the trouble.
	Flight *trace.FlightRecorder
	// Tracer, when non-nil, is an optional second subscriber: it receives
	// the same events as Flight, each with the same stamp.
	Tracer trace.Tracer
	// Metrics, when non-nil, is the registry this engine exports into:
	// counter families over the existing atomics (read at scrape time,
	// free on the hot path) plus eager/rendezvous latency histograms
	// (lock-free, allocation-free Observe on the ack paths).
	Metrics *metrics.Registry
}

// Engine is one node's communication engine.
type Engine struct {
	env      rt.Env
	node     fabric.Node
	profiles []*sampling.RailProfile
	cfg      Config

	healthQ rt.Queue // rail state transitions (nil = stop nudge)

	pool *progress.Pool                    // per-core workers: all engine work
	sub  *progress.Submitter[*SendRequest] // per-destination submit queues
	seen *progress.Dedup                   // receiver-side duplicate window

	// Adaptive telemetry (nil/empty when Config.Telemetry is nil).
	tele       *telemetry.Tracker
	cache      *telemetry.Cache
	est        [][]strategy.Estimator // [peer][rail] live estimators
	planCount  atomic.Uint64          // rendezvous decisions (rail-probe cadence)
	eagerCount atomic.Uint64          // eager container decisions (eager rail-probe cadence)

	// Eager/rendezvous threshold state. thrStatic caches each rail's
	// sampled threshold (profiles are immutable); the live per-peer
	// derivation (threshold.go) caches into thrLive and tracks the last
	// derived size bucket per (peer, rail) in thrBucket so a crossing
	// can invalidate cached plans.
	thrStatic []int
	thrLive   []atomic.Pointer[thrEntry]
	thrBucket []atomic.Int32

	// Latency histograms (nil when Config.Metrics is nil).
	histEager *metrics.Histogram
	histRdv   *metrics.Histogram
	histStage [numStages]*metrics.Histogram

	nextMsgID atomic.Uint64

	// eagerCap is the largest eager payload any rail of the node takes
	// (its own limit or the sampled one, whichever is larger): no
	// unannounced message is longer. 0 means the rails set no limit.
	eagerCap uint64

	flowMask uint32
	flows    []flowShard // matching state, sharded by (peer, tag) hash
	unitMask uint32
	units    []unitShard // sender state, sharded by (peer, unit id) hash

	// What the live message path reuses instead of allocating (work.go).
	workMu     sync.Mutex
	workFree   *work // recycled work items, linked through next
	workFreeN  int
	scratchMu  sync.RWMutex
	scratch    map[int]*destScratch // per-destination flush scratch
	sendFrames fabric.FramePool     // eager container frames, recycled on ack
	// recycle is set when the node's transport copies every frame off the
	// sender's buffer before the peer sees it — a rail that can post a frame
	// without waiting (fabric.TrySender) writes it into a ring or a socket:
	// only then is a container's frame free again once its ack arrived. The
	// simulator hands the receiver the sender's own slice.
	recycle bool

	stats engineCounters
}

// flowShard holds one shard of the receiver-side matching state. Every
// key (from, tag) hashing to this shard stores all of its queues here,
// so one lock covers one flow's match decision.
type flowShard struct {
	mu        sync.Mutex
	recvs     queues[*RecvRequest]
	unexpect  queues[*message]
	rdvQueued queues[*queuedRTS] // RTS before matching Irecv
	partials  map[pkey]*partial  // in-flight striped messages

	// Per-shard counters (ShardStats).
	matched    uint64
	unexpected uint64
}

// unitShard holds one shard of the sender-side in-flight state.
type unitShard struct {
	mu          sync.Mutex
	rdvOut      map[uint64]*pendingRdv // awaiting CTS
	outstanding map[ackKey]*unit       // sent units awaiting receiver acks
}

// pendingRdv is a rendezvous awaiting its CTS, remembering the rail the
// RTS travelled on so it can be replayed if that rail dies. It is the
// rendezvous' one sender-side object: once the CTS arrives, the units of a
// plan of up to len(units) chunks live in it until acknowledged.
type pendingRdv struct {
	req   *SendRequest
	rail  int
	units [2]unit
}

// key identifies a matching queue.
type key struct {
	from int
	tag  uint32
}

// pkey identifies a reassembly: message ids are sender-local, so the
// sender is part of the identity.
type pkey struct {
	from int
	id   uint64
}

// message is a complete unexpected message awaiting a matching Irecv.
// origin is the submitting node from the wire header (trace id).
type message struct {
	msgID  uint64
	origin int
	data   []byte
}

// queuedRTS is a rendezvous announcement waiting for its Irecv.
type queuedRTS struct {
	msgID uint64
	total int
	rail  int
	from  int
}

// engineCounters aggregates engine activity with per-counter atomics so
// concurrent workers never serialise on a stats lock.
type engineCounters struct {
	eagerSent       atomic.Uint64
	eagerAggregated atomic.Uint64
	eagerParallel   atomic.Uint64
	rdvSent         atomic.Uint64
	chunksSent      atomic.Uint64
	bytesSent       atomic.Uint64
	unexpected      atomic.Uint64
	failedOver      atomic.Uint64
	rejected        [numRejects]atomic.Uint64
}

// Why a frame from a peer was dropped before the engine acted on it
// (Stats.Rejected*, nm_frames_rejected_total{reason}). A peer's bytes are
// untrusted: a length that would size an allocation or index a buffer is
// checked before it is used.
const (
	// rejectOversized: an unannounced chunk of a message longer than the
	// largest eager payload any rail of the node accepts. Only eager
	// messages are striped without an RTS, so nothing legitimate is lost.
	rejectOversized = iota
	// rejectRange: a chunk whose Offset + length overflows an int.
	rejectRange
	// rejectRTSLength: an RTS announcing a length that does not fit an
	// int.
	rejectRTSLength
	numRejects
)

var rejectReasons = [numRejects]string{"oversized_unexpected", "chunk_range", "rts_length"}

// Stats counts engine activity (inputs to EXPERIMENTS.md).
type Stats struct {
	EagerSent       uint64
	EagerAggregated uint64 // packets that shared a container
	EagerParallel   uint64 // packets split across cores
	RdvSent         uint64
	ChunksSent      uint64
	BytesSent       uint64
	Unexpected      uint64 // messages that arrived before their receive, parked RTS included
	FailedOver      uint64 // transfer units re-planned off dead rails

	// Frames from peers dropped unprocessed: an unannounced chunk of a
	// message longer than any eager payload, a chunk whose range
	// overflows, an RTS whose length does not fit an int.
	RejectedOversized uint64
	RejectedRange     uint64
	RejectedRTS       uint64

	// Adaptive telemetry (zero when Config.Telemetry is nil): hot plan
	// cache hits/misses, telemetry observations and drift refits, and
	// the current estimate epoch.
	PlanHits        uint64
	PlanMisses      uint64
	PlanEvictions   uint64
	PlanEntries     int
	TelemetryObs    uint64
	TelemetryRefits uint64
	TelemetryEpoch  uint64

	// Shards reports per flow-shard matching activity — the field view
	// of where contention (or its absence) lives.
	Shards []ShardStats
	// Workers reports per progress-worker activity.
	Workers []progress.WorkerStats
}

// ShardStats counts one flow shard's matching activity.
type ShardStats struct {
	Matched    uint64 // deliveries matched to a posted receive
	Unexpected uint64 // deliveries queued as unexpected, parked RTS included
	Recvs      int    // receives currently posted
	Partials   int    // striped messages currently reassembling
	RdvQueued  int    // rendezvous announcements currently parked for their receive
}

// NewEngine builds and starts the engine for one node. profiles must
// hold one sampled RailProfile per rail of the node's cluster.
func NewEngine(env rt.Env, node fabric.Node, profiles []*sampling.RailProfile, cfg Config) (*Engine, error) {
	if len(profiles) != node.NumRails() {
		return nil, fmt.Errorf("core: %d profiles for %d rails", len(profiles), node.NumRails())
	}
	if cfg.Splitter == nil {
		cfg.Splitter = strategy.HeteroSplit{}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = node.Cores()
	}
	shards := progress.Shards(cfg.Shards, max(8, 4*workers))
	e := &Engine{
		env:      env,
		node:     node,
		profiles: profiles,
		cfg:      cfg,
		flowMask: uint32(shards - 1),
		flows:    make([]flowShard, shards),
		unitMask: uint32(shards - 1),
		units:    make([]unitShard, shards),
		seen:     progress.NewDedup(shards, seenCap),
		scratch:  make(map[int]*destScratch),
	}
	for i := range e.flows {
		s := &e.flows[i]
		s.recvs = newQueues[*RecvRequest]()
		s.unexpect = newQueues[*message]()
		s.rdvQueued = newQueues[*queuedRTS]()
		s.partials = make(map[pkey]*partial)
	}
	for i := range e.units {
		s := &e.units[i]
		s.rdvOut = make(map[uint64]*pendingRdv)
		s.outstanding = make(map[ackKey]*unit)
	}
	e.thrStatic = make([]int, len(profiles))
	for r, p := range profiles {
		e.thrStatic[r] = p.Threshold()
		e.eagerCap = max(e.eagerCap, uint64(p.EagerMax), uint64(node.Rail(r).Caps().EagerMax))
	}
	if cfg.Telemetry != nil {
		if cfg.Telemetry.Rails() != node.NumRails() {
			return nil, fmt.Errorf("core: telemetry tracks %d rails, node has %d",
				cfg.Telemetry.Rails(), node.NumRails())
		}
		e.tele = cfg.Telemetry
		e.cache = telemetry.NewCache(0)
		e.est = make([][]strategy.Estimator, e.tele.Peers())
		for peer := range e.est {
			e.est[peer] = make([]strategy.Estimator, node.NumRails())
			for r := range e.est[peer] {
				e.est[peer][r] = e.tele.Estimator(peer, r, profiles[r])
			}
		}
		e.thrLive = make([]atomic.Pointer[thrEntry], e.tele.Peers())
		e.thrBucket = make([]atomic.Int32, e.tele.Peers()*node.NumRails())
		for i := range e.thrBucket {
			e.thrBucket[i].Store(-1)
		}
		// Have the transfer layer report wire-level measurements too.
		node.SetTelemetry(e.tele)
	}
	e.pool = progress.NewPool(env, fmt.Sprintf("nmad-progress-%d", node.ID()), workers)
	if cfg.Metrics != nil {
		e.initMetrics(cfg.Metrics) // after the pool it reports on, before the first delivery
	}
	e.sub = progress.NewSubmitter[*SendRequest](e.pool, e.flushDest)
	_, e.recycle = node.Rail(0).(fabric.TrySender)
	// Rendezvous chunks land in the posted buffer straight from the
	// transport reader where the fabric can place them; everything else
	// arrives through dispatch.
	node.SetPlacer(e.placeChunk)
	node.SetSink(e.dispatch)
	e.healthQ = node.Health().Subscribe()
	env.Go(fmt.Sprintf("nmad-health-%d", node.ID()), e.healthLoop)
	return e, nil
}

// NodeID returns the node this engine serves.
func (e *Engine) NodeID() int { return e.node.ID() }

// Workers returns the progress-pool worker count.
func (e *Engine) Workers() int { return e.pool.Size() }

// NumShards returns the flow-shard count.
func (e *Engine) NumShards() int { return len(e.flows) }

// flow returns the shard owning a (peer, tag) flow.
func (e *Engine) flow(from int, tag uint32) *flowShard {
	return &e.flows[progress.FlowKey(from, tag)&e.flowMask]
}

// unit returns the shard owning a (peer, unit id) pair.
func (e *Engine) unit(peer int, id uint64) *unitShard {
	return &e.units[progress.UnitKey(peer, id)&e.unitMask]
}

// Stats returns a snapshot of the engine counters, including per-shard
// and per-worker breakdowns.
func (e *Engine) Stats() Stats {
	st := Stats{
		EagerSent:       e.stats.eagerSent.Load(),
		EagerAggregated: e.stats.eagerAggregated.Load(),
		EagerParallel:   e.stats.eagerParallel.Load(),
		RdvSent:         e.stats.rdvSent.Load(),
		ChunksSent:      e.stats.chunksSent.Load(),
		BytesSent:       e.stats.bytesSent.Load(),
		Unexpected:      e.stats.unexpected.Load(),
		FailedOver:      e.stats.failedOver.Load(),

		RejectedOversized: e.stats.rejected[rejectOversized].Load(),
		RejectedRange:     e.stats.rejected[rejectRange].Load(),
		RejectedRTS:       e.stats.rejected[rejectRTSLength].Load(),
	}
	if e.tele != nil {
		ts := e.tele.Stats()
		st.TelemetryObs = ts.Observations
		st.TelemetryRefits = ts.Refits
		st.TelemetryEpoch = ts.Epoch
		cs := e.cache.Stats()
		st.PlanHits = cs.Hits
		st.PlanMisses = cs.Misses
		st.PlanEvictions = cs.Evictions
		st.PlanEntries = cs.Entries
	}
	st.Shards = make([]ShardStats, len(e.flows))
	for i := range e.flows {
		s := &e.flows[i]
		s.mu.Lock()
		st.Shards[i] = ShardStats{
			Matched:    s.matched,
			Unexpected: s.unexpected,
			Recvs:      s.recvs.count(),
			Partials:   len(s.partials),
			RdvQueued:  s.rdvQueued.count(),
		}
		s.mu.Unlock()
	}
	st.Workers = e.pool.Stats()
	return st
}

// rdvQueued counts the rendezvous announcements parked right now, over
// all shards (the nm_rdv_queued gauge).
func (e *Engine) rdvQueued() int {
	n := 0
	for i := range e.flows {
		s := &e.flows[i]
		s.mu.Lock()
		n += s.rdvQueued.count()
		s.mu.Unlock()
	}
	return n
}

// Stop halts progression and the workers: later deliveries park in the
// node's RecvQ. In a simulation the parked actors are reclaimed when the
// simulator closes.
func (e *Engine) Stop() {
	if e.tele != nil {
		e.node.SetTelemetry(nil)
	}
	e.node.SetPlacer(nil)
	e.node.SetSink(nil)
	e.pool.Stop()
	e.healthQ.Push(nil)
}

// newID allocates a fresh message/container id. Container ids share
// the message-id namespace, so an (id, offset) ack key can never name
// both a container and a chunk.
func (e *Engine) newID() uint64 {
	return e.nextMsgID.Add(1)
}

// railViewsFor snapshots the rail views for a decision about one
// destination, taken at now: with telemetry on, each rail's estimator is
// the live (peer, rail) blend instead of the start-up table — the
// strategies plan against what the wire currently delivers, not what it
// delivered at launch. dest -1 (or telemetry off) keeps the static
// estimators. now is the decision's stamp, which every rail's horizon is
// measured against: an idle rail is idle at now.
func (e *Engine) railViewsFor(dest int, now time.Duration) []strategy.RailView {
	return e.appendRailViews(make([]strategy.RailView, 0, e.node.NumRails()), dest, now)
}

// appendRailViews is railViewsFor into the caller's slice: the flush
// path snapshots into its destination's scratch.
func (e *Engine) appendRailViews(views []strategy.RailView, dest int, now time.Duration) []strategy.RailView {
	for i := 0; i < e.node.NumRails(); i++ {
		est := strategy.Estimator(e.profiles[i])
		if e.est != nil && dest >= 0 && dest < len(e.est) {
			est = e.est[dest][i]
		}
		rail := e.node.Rail(i)
		views = append(views, strategy.RailView{
			Index:    i,
			Est:      est,
			IdleAt:   rail.IdleAt(now),
			EagerMax: e.profiles[i].EagerMax,
			Down:     rail.State() != fabric.RailUp,
		})
	}
	return views
}

// probeEvery returns the probe cadence (0 disables probing). Values
// below 4 clamp to 4: anything tighter would turn most traffic into
// probes, deliberately degraded iso stripes.
func (e *Engine) probeEvery() int {
	if e.tele == nil {
		return 0
	}
	pe := e.cfg.ProbeEvery
	if pe <= 0 {
		return 16
	}
	if pe < 4 {
		return 4
	}
	return pe
}

// observeUnit folds one acknowledged transfer unit into the telemetry:
// the one-way estimate is half the measured ack round trip. Eager
// containers additionally feed the eager observation plane with the
// ack-leg-compensated round trip (see ackLeg) — the quantity comparable
// to the sampled eager curve the plane blends with. It runs on the
// progress worker handling the ack, whose stamp is now.
func (e *Engine) observeUnit(peer, rail, bytes int, sentAt, now time.Duration, eager bool) {
	if sentAt <= 0 {
		return
	}
	rtt := now - sentAt
	if rtt <= 0 {
		return
	}
	if eager && e.histEager != nil {
		e.histEager.Observe(rtt) // metrics work without telemetry
	}
	if e.tele == nil {
		return
	}
	e.tele.Observe(peer, rail, bytes, rtt/2)
	if eager {
		e.tele.ObservePath(telemetry.PathEager, peer, rail, bytes, e.lessAckLeg(rail, rtt))
	}
}

// lessAckLeg subtracts the estimated ack return leg from a protocol
// round trip, flooring at half. The threshold planes blend their
// observations with the one-way sampled curves (measureEager,
// measureRdv), which stop the clock at delivery; our measurements stop
// at the ack. Without the compensation a half-warm plane mixes
// RTT-scale samples with one-way priors and the derived crossover dips
// below the sampled one with no real change on the wire. The ack is a
// header-sized control message, so its leg is approximated by the
// rail's sampled estimate at that size.
func (e *Engine) lessAckLeg(rail int, d time.Duration) time.Duration {
	leg := e.profiles[rail].Estimate(wire.HeaderSize)
	if adj := d - leg; adj > d/2 {
		return adj
	}
	return d / 2
}

// observeRdvPath arranges for a single-rail rendezvous to feed the
// telemetry's rendezvous plane: the whole-message time from RTS to the
// last ack (minus the estimated ack leg, see lessAckLeg), on the one
// rail that carried it — comparable to what the start-up sampling's
// rendezvous curve measured, so the live eager threshold can blend the
// two. Striped messages are not attributable to one rail and are
// skipped.
func (e *Engine) observeRdvPath(r *SendRequest, chunks []strategy.Chunk) {
	if e.tele == nil || len(chunks) == 0 || r.rdvStart <= 0 {
		return
	}
	rail := chunks[0].Rail
	for _, c := range chunks[1:] {
		if c.Rail != rail {
			return
		}
	}
	peer, n, start := r.To, len(r.Data), r.rdvStart
	r.acked.OnFire(func() {
		if r.failedOver.Load() {
			// A replayed unit's time includes the failover stall and may
			// have travelled another rail entirely; charging it to the
			// planned rail would poison its regime fit (same exclusion
			// observeUnit applies to replayed units).
			return
		}
		if d := e.env.Now() - start; d > 0 {
			e.tele.ObservePath(telemetry.PathRdv, peer, rail, n, e.lessAckLeg(rail, d))
		}
	})
}

// EstimateFor returns the engine's current one-way estimate for an
// n-byte transfer to `peer` on `rail`: the live warmth-blended estimate
// in adaptive mode, the static sampled one otherwise. Diagnostics and
// tests watch it to see the feedback loop converge.
func (e *Engine) EstimateFor(peer, rail, n int) time.Duration {
	if e.est != nil && peer >= 0 && peer < len(e.est) {
		return e.est[peer][rail].Estimate(n)
	}
	return e.profiles[rail].Estimate(n)
}

// PlanFor previews the split the engine would currently choose for an
// n-byte rendezvous to `to`: live rail views plus the configured
// splitter, bypassing the plan cache and the probe cadence. Tests and
// nmping's -stats mode use it to see where the next bytes would go.
func (e *Engine) PlanFor(to, n int) []strategy.Chunk {
	now := e.env.Now()
	return e.cfg.Splitter.Split(n, now, e.railViewsFor(to, now))
}

// planRdv decides the chunk distribution of one rendezvous: the
// configured splitter over to's rail views. Its single-rail vs striped
// choice is its own — HeteroSplit never plans slower than the best
// single rail — and under telemetry it is made from the live
// estimates. In adaptive mode the hot plan cache is consulted first —
// repeated sends of similar sizes to the same peer skip the strategy
// entirely until the estimate epoch moves — and every probeEvery-th
// decision instead stripes iso over all usable rails, bypassing the
// cache (a probe is never cached): rails the plans starve keep
// producing observations and can be re-adopted when they recover.
//
// ps is the caller's scratch: the plan is built in it (see split) and
// valid until ps is used again. now is the caller's decision stamp.
func (e *Engine) planRdv(to, n int, now time.Duration, ps *planScratch) []strategy.Chunk {
	if e.tele == nil {
		return e.split(to, n, now, ps)
	}
	if pe := e.probeEvery(); e.planCount.Add(1)%uint64(pe) == 0 {
		if probe := (strategy.IsoSplit{}).Split(n, now, e.railViewsFor(to, now)); len(probe) > 0 {
			e.trace(now, trace.Decision, 0, -1, n, "probe: iso over usable rails")
			return probe
		}
	}
	key := telemetry.PlanKey{Dest: to, Bucket: telemetry.SizeBucket(n), Epoch: e.tele.Epoch()}
	if p, ok := e.cache.Get(key); ok {
		if chunks := p.ChunksFor(n); len(chunks) > 0 {
			return chunks
		}
	}
	chunks := e.split(to, n, now, ps)
	if len(chunks) > 0 {
		e.cache.Put(key, telemetry.NewPlan(e.cfg.Splitter.Name(), chunks, n))
	}
	return chunks
}

// planScratch is what planning one rendezvous borrows: the rail views and
// the chunks, before and after capChunks, owned by the work item that runs
// the CTS step.
type planScratch struct {
	views        []strategy.RailView
	plan, capped []strategy.Chunk
}

// capChunks bounds each chunk of a plan to `to` by its rail's current
// limit (fabric.ChunkCapper: a shm rail whose bodies stream through its
// ring), splitting larger ones on the same rail — in ps's storage when
// there is one. A plan within its limits is returned as it is.
func (e *Engine) capChunks(to int, chunks []strategy.Chunk, ps *planScratch) []strategy.Chunk {
	var dst []strategy.Chunk
	if ps != nil {
		dst = ps.capped[:0]
	}
	out := strategy.CapChunks(dst, chunks, func(rail int) int {
		if c, ok := e.node.Rail(rail).(fabric.ChunkCapper); ok {
			return c.MaxChunk(to)
		}
		return 0
	})
	if ps != nil && len(out) != len(chunks) {
		ps.capped = out
	}
	return out
}

// split runs the configured splitter over to's current rail views — in
// ps's storage, the plan too when the splitter can append
// (strategy.Appender).
func (e *Engine) split(to, n int, now time.Duration, ps *planScratch) []strategy.Chunk {
	ps.views = e.appendRailViews(ps.views[:0], to, now)
	if a, ok := e.cfg.Splitter.(strategy.Appender); ok {
		ps.plan = a.AppendSplit(ps.plan[:0], n, now, ps.views)
		return ps.plan
	}
	return e.cfg.Splitter.Split(n, now, ps.views)
}

// trace records a timeline event about one of this node's own messages.
// at is the caller's stamp of the boundary (see the package doc: the
// note* helpers take it too). rail is -1 for events that are not
// rail-specific.
func (e *Engine) trace(at time.Duration, kind trace.Kind, msgID uint64, rail, size int, note string) {
	e.traceFrom(at, e.node.ID(), kind, msgID, rail, size, note)
}

// traceFrom records a timeline event attributed to a message another
// node submitted: receiver-side events (Delivered, CTSSent, replayed
// deliveries) stamp the origin carried by the wire header, so the
// sender's and receiver's events stitch into one cross-node span. The
// event goes to the flight recorder and to the optional tracer.
func (e *Engine) traceFrom(at time.Duration, origin int, kind trace.Kind, msgID uint64, rail, size int, note string) {
	ev := trace.Event{
		At: at, Node: e.node.ID(), MsgID: msgID,
		Kind: kind, Rail: rail, Size: size, Note: note, Origin: origin,
	}
	if e.cfg.Flight != nil {
		e.cfg.Flight.Record(ev)
	}
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.Record(ev)
	}
}

// origin is this node's id as carried in wire headers (the node half
// of every locally submitted message's trace id).
func (e *Engine) origin() uint32 { return uint32(e.node.ID()) }

// noteAnomaly triggers a flight-recorder auto-dump (no-op without one).
func (e *Engine) noteAnomaly(at time.Duration, reason string) {
	if e.cfg.Flight != nil {
		e.cfg.Flight.NoteAnomaly(at, e.node.ID(), reason)
	}
}

// noteDecision records that the strategy chose r's schedule at `at` and
// feeds the submit→decision stage.
func (e *Engine) noteDecision(r *SendRequest, at time.Duration) {
	r.decideAt = at
	e.observeStage(stageSubmitDecision, at-r.submitAt)
}

// noteEnqueued feeds the decision→enqueue stage: the time from the
// schedule decision until every frame of r was handed to the transport.
func (e *Engine) noteEnqueued(r *SendRequest, at time.Duration) {
	e.observeStage(stageDecisionEnqueue, at-r.decideAt)
}

// noteCompleted records r's local completion (the last chunk left the
// host) and then fires Done — called by whoever's chunkDone completed
// r, so the event is on record before a waiter wakes.
func (e *Engine) noteCompleted(r *SendRequest, at time.Duration) {
	e.observeStage(stageSubmitCompleted, at-r.submitAt)
	e.trace(at, trace.Completed, r.msgID, -1, len(r.Data), "")
	r.done.Fire()
}

// noteAcked records r's remote completion (the receiver acknowledged
// its last unit) and then fires RemoteDone — called by the ack handler
// whose ackDone completed r.
func (e *Engine) noteAcked(r *SendRequest, rail int, at time.Duration) {
	e.observeStage(stageSubmitAcked, at-r.submitAt)
	if e.histRdv != nil && r.rdvStart > 0 && at > r.rdvStart {
		e.histRdv.Observe(at - r.rdvStart) // whole rendezvous, RTS to last ack
	}
	e.trace(at, trace.Acked, r.msgID, rail, len(r.Data), "")
	r.acked.Fire()
}

// eagerThreshold returns the size up to which the engine prefers the
// eager path: the largest sampled rendezvous threshold over the USABLE
// rails. Down and Suspect rails are excluded — a dead rail's profile
// must not decide the protocol for traffic the survivors will carry
// (its threshold may be far off theirs on a heterogeneous rail set).
// Rail states are read at every decision, so the answer tracks health
// transitions with no staleness window. When no rail is Up the full
// set decides: the units will park or fail over regardless, and a
// stable answer beats a degenerate zero threshold.
func (e *Engine) eagerThreshold() int {
	thr, usable := 0, false
	for r, t := range e.thrStatic {
		if e.node.Rail(r).State() != fabric.RailUp {
			continue
		}
		usable = true
		if t > thr {
			thr = t
		}
	}
	if !usable {
		for _, t := range e.thrStatic {
			if t > thr {
				thr = t
			}
		}
	}
	return thr
}
