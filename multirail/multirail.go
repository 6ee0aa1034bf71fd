// Package multirail is the public API of the multicore-enabled multirail
// communication engine, a reproduction of Brunet, Trahay and Denis,
// "A multicore-enabled multirail communication engine" (IEEE Cluster
// 2008) — the NewMadeleine/PIOMan/Marcel stack.
//
// A Cluster is a set of nodes joined by several heterogeneous rails
// (NICs). At start-up every rail is sampled at power-of-two sizes; the
// samples feed per-rail transfer-time estimators. Messages submitted with
// Isend are then scheduled by the engine: small ones are aggregated on
// the fastest available rail (or split across idle cores when that is
// predicted to win), large ones handshake and are striped over the rails
// so that every chunk finishes at the same predicted instant.
//
// Two byte-moving substrates are available behind the same engine: the
// deterministic virtual-time simulation of the paper's testbed (default,
// see DESIGN.md) and a live TCP fabric where every rail is its own TCP
// connection moving real bytes on the wall clock (Config.Live or
// Config.Fabric = FabricTCP; see internal/livenet). A live cluster can
// host all nodes in one process (loopback) or one node per process
// (Config.Distributed; see examples/tcp2proc).
//
// Quickstart:
//
//	c, _ := multirail.New(multirail.Config{})      // 2 nodes, Myri-10G + QsNetII
//	c.Go("app", func(ctx multirail.Ctx) {
//	    buf := make([]byte, 1<<20)
//	    recv := c.Node(1).Irecv(0, 42, buf)
//	    c.Node(0).Isend(1, 42, payload)
//	    recv.Wait(ctx)
//	})
//	c.Run()
package multirail

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/livenet"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/rt"
	"repro/internal/sampling"
	"repro/internal/shmnet"
	"repro/internal/simnet"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Fabric kinds for Config.Fabric.
const (
	// FabricSim is the modeled fabric: analytic NIC profiles on the
	// simulator's virtual clock, never on the wall clock.
	FabricSim = "sim"
	// FabricTCP is the live fabric: one real TCP connection per
	// (node pair, rail), always on the wall clock. With ShmRails > 0 it
	// becomes the mixed fabric: shared-memory rails first, TCP rails
	// after them — one heterogeneous rail set behind one engine.
	FabricTCP = "tcp"
	// FabricShm is the shared-memory fabric: every rail of every node
	// pair is a pair of lock-free ring buffers moved by plain memory
	// copies (the paper's PIO regime), always on the wall clock.
	FabricShm = "shm"
)

// FabricStats aggregates a rail's fabric-level traffic counters (what
// RailStats returns).
type FabricStats = fabric.Stats

// RailState is the health of one rail: RailUp, RailSuspect (transport
// fault observed, bounded recovery running) or RailDown (dead or
// administratively unplugged). See the "Fault tolerance" section of the
// README for the failover semantics.
type RailState = fabric.RailState

// Rail states (re-exported from the fabric contract).
const (
	RailUp      = fabric.RailUp
	RailSuspect = fabric.RailSuspect
	RailDown    = fabric.RailDown
)

// Re-exported building blocks. Aliases keep the public surface small
// while the implementation lives in internal packages.
type (
	// Profile is the analytic performance model of a NIC technology.
	Profile = model.Profile
	// Ctx is the blocking capability handed to application actors.
	Ctx = rt.Ctx
	// SendRequest tracks an Isend; Wait blocks until the buffer is
	// reusable.
	SendRequest = core.SendRequest
	// RecvRequest tracks an Irecv; Wait blocks until the message landed.
	RecvRequest = core.RecvRequest
	// Splitter decides how large messages are distributed over rails.
	Splitter = strategy.Splitter
	// Chunk is one piece of a split decision (what PlanFor returns).
	Chunk = strategy.Chunk
	// EngineStats counts engine activity on one node.
	EngineStats = core.Stats
	// IOVec is a gather/scatter vector: an ordered list of buffers
	// treated as one logical contiguous payload.
	IOVec = wire.IOVec
	// Tracer receives per-message timeline events.
	Tracer = trace.Tracer
	// TraceEvent is one step of a message's timeline.
	TraceEvent = trace.Event
	// TraceCollector stores timeline events in memory.
	TraceCollector = trace.Collector
	// FlightRecorder is the always-on lock-free ring of recent trace
	// events every cluster carries (see Cluster.Flight).
	FlightRecorder = trace.FlightRecorder
	// TraceSpan is one message's stitched timeline (trace.Stitch).
	TraceSpan = trace.Span
)

// NewTraceCollector returns an in-memory trace sink for Config.Tracer.
func NewTraceCollector() *TraceCollector { return trace.NewCollector() }

// Built-in rail profiles (calibration in DESIGN.md §7).
func Myri10G() *Profile { return model.Myri10G() }
func QsNetII() *Profile { return model.QsNetII() }
func IBVerbs() *Profile { return model.IBVerbs() }
func GigE() *Profile    { return model.GigE() }

// Built-in splitters.
func HeteroSplit() Splitter { return strategy.HeteroSplit{} }
func IsoSplit() Splitter    { return strategy.IsoSplit{} }
func SingleRail() Splitter  { return strategy.SingleRail{} }

// Config describes a cluster. The zero value gives the paper's testbed:
// two nodes, four cores each, one Myri-10G rail and one QsNetII rail, on
// the deterministic simulator, with the sampling-based hetero-split
// strategy.
type Config struct {
	// Nodes is the number of nodes (default 2).
	Nodes int
	// Rails lists the rail profiles (default Myri-10G + QsNetII).
	Rails []*Profile
	// CoresPerNode is the per-node core count of the simulated fabric
	// (default 4, the paper's dual dual-core Opterons). Live fabrics
	// ignore it: their nodes report the host's cores
	// (runtime.GOMAXPROCS).
	CoresPerNode int
	// Live selects wall-clock execution instead of the deterministic
	// virtual-time simulation: a live cluster runs on the TCP fabric
	// unless Fabric names FabricShm, and moves real bytes. Live with
	// Fabric = FabricSim is refused — the modeled fabric runs on virtual
	// time only.
	Live bool
	// Fabric selects the substrate: FabricSim, FabricTCP or FabricShm.
	// Empty means FabricSim, or FabricTCP when Live is set. FabricTCP and
	// FabricShm imply Live.
	Fabric string
	// ListenAddr is the TCP fabric's accept address (default
	// "127.0.0.1:0", an ephemeral loopback port).
	ListenAddr string
	// TCPRails is the number of TCP rails joining every node pair
	// (default 2). The TCP fabric ignores the Rails profiles. A TCP rail
	// takes eager payloads up to 32 KiB; larger messages take the
	// rendezvous path.
	TCPRails int
	// ShmRails is the number of shared-memory rails joining every node
	// pair. With Fabric = FabricShm it is the cluster's whole rail set
	// (default 2); combined with FabricTCP it rides alongside the TCP
	// rails as a mixed heterogeneous fabric — shm rails take indices
	// 0..ShmRails-1, TCP rails follow. Intra-host traffic then has a
	// genuine PIO-regime lane, and the strategies face rails with truly
	// different cost models. An shm rail takes eager payloads up to
	// 64 KiB (the PIO regime stretches further on a memory path), and
	// each ring direction holds 256 KiB: larger frames stream through in
	// pieces, and a rendezvous chunk body of 32 KiB or more does not
	// enter the ring at all — the receiver copies it once, straight from
	// the sender's buffer (across processes with process_vm_readv).
	ShmRails int
	// ShmDir is the directory for the mmap-backed ring files
	// (Distributed mode with shm rails only). Every process of the
	// cluster must run on one host and name the same directory, which
	// must not hold ring files of a previous session.
	ShmDir string
	// Distributed hosts only LocalNode in this process (TCP fabric
	// only): it listens on ListenAddr for connections from higher-id
	// nodes and dials Peers[j] for every lower-id node j. Calls on
	// non-hosted node handles panic.
	Distributed bool
	// LocalNode is the node id this process hosts in Distributed mode.
	LocalNode int
	// Peers maps lower-id node ids to their listen addresses
	// (Distributed mode). Note: without SamplingFrom, a distributed
	// process calibrates its strategies on a loopback twin of the rails,
	// which misstates real cross-host links.
	Peers map[int]string
	// Splitter overrides the large-message strategy (default
	// HeteroSplit). It decides single rail vs striped itself, from the
	// sampled estimates — or, under AdaptiveTelemetry, the live ones.
	Splitter Splitter
	// AdaptiveTelemetry turns the online feedback loop on: every
	// completed transfer unit becomes a latency/bandwidth observation,
	// the per-(peer, rail) cost estimates are re-fit when they drift,
	// and the Splitter and the eager path plan against the live
	// estimates (warming away from the start-up sampling tables, which
	// remain the cold-start prior): single rail vs striped, and
	// parallel-eager vs one container, follow what the wire currently
	// delivers. Rendezvous plans are cached per node by (dest, size
	// bucket, epoch). Off by default: the paper's figures are reproduced
	// exactly when this is false.
	AdaptiveTelemetry bool
	// TelemetryHalfLife is the decay half-life of telemetry
	// observations (default 250ms of the cluster clock).
	TelemetryHalfLife time.Duration
	// TelemetryProbeEvery is the probe period of the rendezvous path:
	// each period one plan bypasses the cache and stripes iso over every
	// usable rail (keeping starved rails measured). Default 16; smaller
	// probes more aggressively — faster re-adoption at a larger
	// throughput tax; values below 4 clamp to 4.
	TelemetryProbeEvery int
	// GreedyEager selects the Fig 3 greedy baseline instead of
	// aggregation.
	GreedyEager bool
	// EagerParallel enables multicore parallel submission of medium
	// eager packets (§III-D).
	EagerParallel bool
	// Workers is the per-node multicore progression worker count
	// (default: the node's cores — CoresPerNode on the simulator, the
	// host's GOMAXPROCS on a live fabric): the engine's progress pool that flushes
	// submit queues and processes deliveries in parallel, on every
	// fabric — distinct flows, and the striped chunks of one message,
	// are received on distinct cores. More workers help when many
	// concurrent flows contend; one worker serialises the engine (useful
	// for debugging).
	Workers int
	// Shards is the per-node flow-shard count for the engine's
	// matching/pending/unacked tables (default: smallest power of two
	// >= 4*Workers, min 8; rounded up to a power of two). More shards
	// reduce lock contention between flows that hash together.
	Shards int
	// SamplingMax is the largest size the start-up sampling measures
	// (the ladder starts at 4 B).
	SamplingMax int
	// SamplingFrom, when non-nil, loads a saved sampling instead of
	// benchmarking at start-up (cmd/nmsample writes such files).
	SamplingFrom io.Reader
	// Tracer, when non-nil, receives every engine's per-message timeline
	// (use NewTraceCollector for an in-memory sink).
	Tracer Tracer
	// MetricsAddr, when non-empty, starts an HTTP exporter on the
	// address serving /metrics (Prometheus text) and /metrics.json (the
	// MetricsSnapshot shape cmd/nmtop consumes). Use "127.0.0.1:0" for
	// an ephemeral port and read it back with Cluster.MetricsAddr. The
	// families exist either way — MetricsSnapshot works without the
	// exporter.
	MetricsAddr string
	// MetricsPprof additionally mounts net/http/pprof under
	// /debug/pprof/ on the metrics exporter.
	MetricsPprof bool
	// OnRailDown, when non-nil, is called (once per hosted node and
	// transition, from a cluster actor) whenever a rail goes Down — a
	// NIC died, its recovery budget ran out, or it was unplugged with
	// DisableRail. The engines have already begun re-planning in-flight
	// work when it fires; the callback is for monitoring and alerting.
	OnRailDown func(node, rail int, reason string)
}

// Cluster is a running multirail communication system.
type Cluster struct {
	cfg      Config
	kind     string
	env      rt.Env
	sim      *rt.SimEnv // nil when live
	live     *rt.LiveEnv
	fab      fabric.Fabric
	listen   string         // the TCP rails' accept address, when there are any
	kinds    []string       // per-rail kind ("shm", "tcp", or a profile name)
	engines  []*core.Engine // indexed by node id; nil when not hosted
	profiles []*sampling.RailProfile

	metricsReg *metrics.Registry     // always built; exporter optional
	metricsSrv *metrics.Server       // nil unless Config.MetricsAddr set
	flight     *trace.FlightRecorder // recent events and per-kind totals, always on

	wg       sync.WaitGroup // user actors (live mode)
	nodes    []*Node
	healthQs []rt.Queue // OnRailDown watcher queues (nil-nudged at Close)
}

// New builds, samples and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 2
	}
	if len(cfg.Rails) == 0 {
		cfg.Rails = []*Profile{Myri10G(), QsNetII()}
	}
	if cfg.CoresPerNode == 0 {
		cfg.CoresPerNode = 4
	}
	kind := cfg.Fabric
	if kind == "" {
		if cfg.Live {
			kind = FabricTCP
		} else {
			kind = FabricSim
		}
	}
	if kind == FabricTCP || kind == FabricShm {
		cfg.Live = true
	}
	if kind == FabricShm && cfg.ShmRails == 0 {
		cfg.ShmRails = 2
	}
	if cfg.Live && kind == FabricSim {
		return nil, fmt.Errorf("multirail: the %q fabric runs on virtual time only; Live needs %q or %q", FabricSim, FabricTCP, FabricShm)
	}
	if cfg.Distributed && kind == FabricSim {
		return nil, fmt.Errorf("multirail: distributed mode requires a live fabric (%q or %q)", FabricTCP, FabricShm)
	}
	if cfg.ShmRails > 0 && kind == FabricSim {
		return nil, fmt.Errorf("multirail: shm rails require a live fabric (%q or %q)", FabricTCP, FabricShm)
	}
	c := &Cluster{
		cfg:        cfg,
		kind:       kind,
		metricsReg: metrics.NewRegistry(),
		flight:     trace.NewFlightRecorder(0),
	}
	if cfg.Live {
		c.live = rt.NewLive()
		c.env = c.live
	} else {
		c.sim = rt.NewSim()
		c.env = c.sim
	}
	var err error
	switch kind {
	case FabricSim:
		c.fab, err = simnet.New(c.sim, simnet.Config{
			Nodes:        cfg.Nodes,
			Rails:        cfg.Rails,
			CoresPerNode: cfg.CoresPerNode,
		})
	case FabricTCP, FabricShm:
		// A stalling shm ring is backpressure worth a flight-recorder
		// dump: the ring around the stall shows which messages filled it.
		onStall := func(rail int) {
			c.flight.NoteAnomaly(c.env.Now(), c.Local(),
				"shm ring stall: rail "+strconv.Itoa(rail))
		}
		c.fab, c.listen, err = buildLiveFabric(c.live, cfg, kind, onStall)
	default:
		err = fmt.Errorf("multirail: unknown fabric %q", kind)
	}
	if err != nil {
		return nil, err
	}
	hosted := c.fab.Node(max(c.Local(), 0))
	for r := 0; r < c.fab.NumRails(); r++ {
		c.kinds = append(c.kinds, hosted.Rail(r).Caps().Kind)
	}
	if c.profiles, err = c.sampleProfiles(kind); err != nil {
		c.fab.Close()
		return nil, err
	}
	if len(c.profiles) != c.fab.NumRails() {
		c.fab.Close()
		return nil, fmt.Errorf("multirail: sampling has %d rails, cluster has %d", len(c.profiles), c.fab.NumRails())
	}
	ecfg := core.Config{
		Splitter:      cfg.Splitter,
		EagerParallel: cfg.EagerParallel,
		Workers:       cfg.Workers,
		Shards:        cfg.Shards,
		// The flight recorder is lock-free and allocation-free, so it
		// stays on even with no Config.Tracer; the caller's tracer, if
		// any, gets the same events.
		Flight:  c.flight,
		Tracer:  cfg.Tracer,
		Metrics: c.metricsReg,
	}
	if cfg.GreedyEager {
		ecfg.Eager = core.PolicyGreedy
	}
	for i := 0; i < cfg.Nodes; i++ {
		var eng *core.Engine
		if !cfg.Distributed || i == cfg.LocalNode {
			ncfg := ecfg
			if cfg.AdaptiveTelemetry {
				// Telemetry state is per node: each engine owns its
				// tracker and plan cache, so one node's observations never
				// leak into another's decisions.
				priors := make([]strategy.Estimator, len(c.profiles))
				eagerPriors := make([]strategy.Estimator, len(c.profiles))
				rdvPriors := make([]strategy.Estimator, len(c.profiles))
				for r, p := range c.profiles {
					priors[r] = p
					if p.Eager != nil {
						eagerPriors[r] = p.Eager
					}
					rdvPriors[r] = p.Rdv
				}
				tr, terr := telemetry.NewTracker(c.env, telemetry.Config{
					Peers:      cfg.Nodes,
					Rails:      c.fab.NumRails(),
					HalfLife:   cfg.TelemetryHalfLife,
					PathGroup:  c.pathGroups(),
					EagerPrior: eagerPriors,
					RdvPrior:   rdvPriors,
				}, priors)
				if terr != nil {
					c.fab.Close()
					return nil, terr
				}
				ncfg.Telemetry = tr
				ncfg.ProbeEvery = cfg.TelemetryProbeEvery
			}
			eng, err = core.NewEngine(c.env, c.fab.Node(i), c.profiles, ncfg)
			if err != nil {
				c.fab.Close()
				return nil, err
			}
		}
		c.engines = append(c.engines, eng)
		c.nodes = append(c.nodes, &Node{cluster: c, id: i})
		if eng != nil {
			c.initClusterMetrics(i)
		}
		if cfg.OnRailDown != nil && (!cfg.Distributed || i == cfg.LocalNode) {
			c.watchRails(i)
		}
	}
	c.initTraceMetrics()
	if cfg.MetricsAddr != "" {
		srv, serr := metrics.Serve(cfg.MetricsAddr, c.metricsReg, cfg.MetricsPprof,
			metrics.Endpoint{Path: "/trace/ring.json", H: trace.RingHandler(c.flight)},
			metrics.Endpoint{Path: "/trace/perfetto", H: trace.PerfettoHandler(c.flight)})
		if serr != nil {
			c.Close()
			return nil, fmt.Errorf("multirail: metrics exporter: %w", serr)
		}
		c.metricsSrv = srv
	}
	return c, nil
}

// buildLiveFabric constructs the wall-clock byte-moving substrate:
// shared-memory rails, TCP rails, or both joined into one heterogeneous
// rail set (shm rails first). It also returns the TCP rails' accept
// address ("" without TCP rails).
func buildLiveFabric(env *rt.LiveEnv, cfg Config, kind string, onStall func(rail int)) (f fabric.Fabric, listen string, err error) {
	var parts []fabric.Fabric
	defer func() {
		if err != nil {
			for _, p := range parts {
				p.Close()
			}
		}
	}()
	local := -1
	if cfg.Distributed {
		local = cfg.LocalNode
	}
	if kind == FabricShm || cfg.ShmRails > 0 {
		scfg := shmnet.Config{
			Nodes:   cfg.Nodes,
			Rails:   cfg.ShmRails,
			Dir:     cfg.ShmDir,
			OnStall: onStall,
		}
		var shmF *shmnet.Fabric
		if cfg.Distributed {
			shmF, err = shmnet.NewDistributed(env, local, scfg)
		} else {
			shmF, err = shmnet.NewHosted(env, scfg)
		}
		if err != nil {
			return nil, "", err
		}
		parts = append(parts, shmF)
	}
	if kind == FabricTCP {
		lcfg := livenet.Config{
			Nodes:      cfg.Nodes,
			Rails:      cfg.TCPRails,
			ListenAddr: cfg.ListenAddr,
			Peers:      cfg.Peers,
		}
		var tcpF *livenet.Fabric
		if cfg.Distributed {
			tcpF, err = livenet.NewDistributed(env, local, lcfg)
		} else {
			tcpF, err = livenet.NewLoopback(env, lcfg)
		}
		if err != nil {
			return nil, "", err
		}
		parts = append(parts, tcpF)
		listen = tcpF.LocalAddr()
	}
	if len(parts) == 1 {
		return parts[0], listen, nil
	}
	f, err = fabric.NewMix(local, parts...)
	return f, listen, err
}

// pathGroups assigns each rail to a shared host path for the telemetry
// observer's contention attribution: on a loopback (one-process) TCP
// cluster every TCP rail rides the kernel's one loopback queue, so they
// form one group; shm rails have their own rings and stay unshared, as
// do the genuinely separate NICs of a distributed deployment.
func (c *Cluster) pathGroups() []int {
	groups := make([]int, c.fab.NumRails())
	for r := range groups {
		groups[r] = -1
		if !c.cfg.Distributed && c.kinds[r] == "tcp" {
			groups[r] = 0
		}
	}
	return groups
}

// watchRails runs an actor that forwards a hosted node's Down
// transitions to Config.OnRailDown.
func (c *Cluster) watchRails(node int) {
	q := c.fab.Node(node).Health().Subscribe()
	c.healthQs = append(c.healthQs, q)
	c.env.Go(fmt.Sprintf("rail-watch-%d", node), func(ctx rt.Ctx) {
		for {
			item := q.Pop(ctx)
			if item == nil {
				return
			}
			ev := item.(*fabric.RailEvent)
			if ev.State == fabric.RailDown {
				c.cfg.OnRailDown(ev.Node, ev.Rail, ev.Reason)
			}
		}
	})
}

// sampleProfiles obtains the per-rail estimators: from a file, from the
// paper's start-up benchmark on a simulated twin (sim fabric), or from a
// genuine measurement pass over real TCP (tcp fabric).
func (c *Cluster) sampleProfiles(kind string) ([]*sampling.RailProfile, error) {
	if c.cfg.SamplingFrom != nil {
		return sampling.Load(c.cfg.SamplingFrom)
	}
	scfg := sampling.Config{MaxSize: c.cfg.SamplingMax}
	if kind == FabricSim {
		// The paper samples at launch; doing it on a private simulated
		// twin keeps the user cluster's clock at zero.
		return sampling.SampleProfiles(c.cfg.Rails, scfg)
	}
	// Live sampling measures the real rails. Keep the default ladder
	// modest (start-up time is wall-clock) and take the best of a few
	// iterations to reject scheduling noise.
	if scfg.MaxSize == 0 {
		scfg.MaxSize = 4 << 20
	}
	scfg.Iters = 3
	if !c.cfg.Distributed {
		return sampling.SampleLive(c.fab, scfg)
	}
	// A distributed process hosts one node, so it cannot ping-pong with
	// itself: measure a loopback twin of the rails instead — same kinds,
	// same shape, hosted in this process. For shm rails the twin is
	// accurate (the real rails are intra-host memory copies too); for
	// TCP rails on real multi-host deployments the twin's loopback
	// numbers misstate actual latency and bandwidth — supply
	// SamplingFrom (a sampling file measured on the real network, see
	// cmd/nmsample) for accurate thresholds and striping ratios.
	tcfg := c.cfg
	tcfg.Nodes = 2
	tcfg.Distributed = false
	tcfg.Peers = nil
	tcfg.ListenAddr = ""
	tcfg.ShmDir = "" // the hosted twin uses heap rings, not the ring files
	twin, _, err := buildLiveFabric(rt.NewLive(), tcfg, kind, nil)
	if err != nil {
		return nil, fmt.Errorf("multirail: sampling twin: %w", err)
	}
	defer twin.Close()
	return sampling.SampleLive(twin, scfg)
}

// Node returns the handle for node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Nodes returns the number of nodes.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Rails returns the number of rails.
func (c *Cluster) Rails() int { return c.fab.NumRails() }

// Local returns the node id hosted by this process, or -1 when every
// node is hosted (simulation or loopback).
func (c *Cluster) Local() int {
	if c.cfg.Distributed {
		return c.cfg.LocalNode
	}
	return -1
}

// ListenAddr returns the TCP fabric's accept address (useful with the
// default ephemeral port); empty for fabrics without TCP rails.
func (c *Cluster) ListenAddr() string { return c.listen }

// FabricKind returns the resolved substrate — FabricSim, FabricTCP,
// FabricShm, or "shm+tcp" when the rails are of both live kinds (the
// mixed heterogeneous fabric).
func (c *Cluster) FabricKind() string {
	if slices.Contains(c.kinds, "shm") && slices.Contains(c.kinds, "tcp") {
		return "shm+tcp"
	}
	return c.kind
}

// RailKind returns what rail r is made of, as the rail says
// (fabric.Caps): "shm", "tcp", or the modeled profile's name on the
// simulated fabric. On the mixed fabric the shm rails come first.
func (c *Cluster) RailKind(rail int) string { return c.kinds[rail] }

// Err returns the first transport error the fabric observed (TCP read
// or write failures, shm attach problems), or nil. The modeled fabric
// never errors. A non-nil Err does not imply data loss: in-flight work
// on a rail that died is re-planned onto the survivors (see README,
// "Fault tolerance") — it is the diagnostic for why a rail went Down.
func (c *Cluster) Err() error {
	if f, ok := c.fab.(interface{ Err() error }); ok {
		return f.Err()
	}
	return nil
}

// Go spawns an application actor.
func (c *Cluster) Go(name string, fn func(Ctx)) {
	if c.live != nil {
		c.wg.Add(1)
		c.env.Go(name, func(ctx rt.Ctx) {
			defer c.wg.Done()
			fn(ctx)
		})
		return
	}
	c.env.Go(name, func(ctx rt.Ctx) { fn(ctx) })
}

// Run executes the workload: in simulation it drives the virtual clock
// until the system quiesces; live it blocks until every actor spawned
// with Go has returned.
func (c *Cluster) Run() {
	if c.sim != nil {
		c.sim.Run()
		return
	}
	c.wg.Wait()
}

// Close stops the engines, tears down the fabric and, in simulation,
// reclaims every actor.
func (c *Cluster) Close() {
	if c.metricsSrv != nil {
		c.metricsSrv.Close()
		c.metricsSrv = nil
	}
	for _, e := range c.engines {
		if e != nil {
			e.Stop()
		}
	}
	for _, q := range c.healthQs {
		q.Push(nil)
	}
	c.fab.Close()
	if c.sim != nil {
		c.sim.Close()
	}
}

// Now returns the cluster clock (virtual or wall).
func (c *Cluster) Now() time.Duration { return c.env.Now() }

// Estimate returns the sampled one-way transfer estimate for a size on a
// rail — the quantity the strategies minimise.
func (c *Cluster) Estimate(rail, size int) time.Duration {
	return c.profiles[rail].Estimate(size)
}

// Threshold returns the sampled rendezvous threshold of a rail.
func (c *Cluster) Threshold(rail int) int { return c.profiles[rail].Threshold() }

// EagerThreshold returns the size up to which `node` currently prefers
// the eager path for traffic to `peer`: the sampled maximum over its
// usable (Up) rails, or — under AdaptiveTelemetry — the threshold
// derived live from the per-(peer, rail) eager/rendezvous fits. Down
// rails never contribute: a dead rail's profile cannot force rendezvous
// on sizes the survivors would send eagerly.
func (c *Cluster) EagerThreshold(node, peer int) int {
	return c.engine(node).EagerThresholdTo(peer)
}

// SaveSampling writes the start-up sampling in the nmad-go format.
func (c *Cluster) SaveSampling(w io.Writer) error {
	return sampling.Save(w, c.profiles)
}

// EngineStats returns node i's engine counters.
func (c *Cluster) EngineStats(node int) EngineStats { return c.engine(node).Stats() }

// engine returns the engine hosted for a node, panicking with a clear
// message for remote nodes of a distributed cluster.
func (c *Cluster) engine(node int) *core.Engine {
	e := c.engines[node]
	if e == nil {
		panic(fmt.Sprintf("multirail: node %d is not hosted by this process (distributed mode)", node))
	}
	return e
}

// RailIdleAt returns the predicted idle time of a node's rail (Fig 2's
// input), measured from the cluster clock's now: an idle rail answers
// that stamp.
func (c *Cluster) RailIdleAt(node, rail int) time.Duration {
	return c.fab.Node(node).Rail(rail).IdleAt(c.env.Now())
}

// RailStats returns the fabric traffic counters of every rail of a
// node, indexed by rail. The failover tests read it to assert that the
// bytes of a message whose rail died moved to the survivors.
func (c *Cluster) RailStats(node int) []FabricStats {
	n := c.fab.Node(node)
	out := make([]FabricStats, n.NumRails())
	for r := range out {
		out[r] = n.Rail(r).Stats()
	}
	return out
}

// RailStates returns the health of every rail of a node, indexed by
// rail.
func (c *Cluster) RailStates(node int) []RailState {
	return c.fab.Node(node).Health().States()
}

// DisableRail hot-unplugs a rail on every hosted node (planned
// maintenance): the rail goes Down, the strategies stop using it, and
// in-flight transfer units on it are re-planned onto the survivors. In
// distributed mode only the local node's side is disabled — run the
// call in every process for a cluster-wide unplug.
func (c *Cluster) DisableRail(rail int) {
	for i, eng := range c.engines {
		if eng != nil {
			c.fab.Node(i).Health().Disable(rail, "admin: DisableRail")
		}
	}
}

// EnableRail re-plugs a rail disabled with DisableRail on every hosted
// node (and asks the fabric to re-establish dead links, on fabrics that
// can).
func (c *Cluster) EnableRail(rail int) {
	for i, eng := range c.engines {
		if eng != nil {
			c.fab.Node(i).Health().Enable(rail)
		}
	}
}

// ThrottleRail artificially slows rail r by `factor` on every hosted
// node (10 = ten times slower; factor <= 1 removes the throttle). The
// rail stays Up — this is the congestion chaos hook: under
// AdaptiveTelemetry the drift detector notices the slowdown from live
// measurements and new plans migrate off the rail without any health
// transition or restart.
func (c *Cluster) ThrottleRail(rail int, factor float64) {
	c.fab.ThrottleRail(rail, factor)
}

// LiveEstimate returns `node`'s current one-way transfer estimate for
// size bytes to `peer` on `rail`: under AdaptiveTelemetry this is the
// live measurement-blended estimate (what the strategies actually plan
// with), otherwise the static sampled one — compare with Estimate,
// which always reads the start-up table.
func (c *Cluster) LiveEstimate(node, peer, rail, size int) time.Duration {
	return c.engine(node).EstimateFor(peer, rail, size)
}

// PlanFor returns the chunk distribution the engine of `node` would
// currently choose for an n-byte rendezvous to `to` — under
// AdaptiveTelemetry this reflects the live estimates, so it shows where
// the next bytes would go right now.
func (c *Cluster) PlanFor(node, to, n int) []strategy.Chunk {
	return c.engine(node).PlanFor(to, n)
}

// DescribePlan formats PlanFor for humans: strategy chunks as
// "rail:bytes" shares (nmping -stats and the adaptive example print it).
func (c *Cluster) DescribePlan(node, to, n int) string {
	chunks := c.PlanFor(node, to, n)
	if len(chunks) == 0 {
		return "(no plan)"
	}
	s := ""
	for i, ch := range chunks {
		if i > 0 {
			s += " + "
		}
		s += fmt.Sprintf("rail%d:%d", ch.Rail, ch.Size)
	}
	return s
}

// Node is the per-node communication handle.
type Node struct {
	cluster *Cluster
	id      int
}

// ID returns the node index.
func (n *Node) ID() int { return n.id }

// Isend submits a message to node `to` under `tag`; it never blocks.
func (n *Node) Isend(to int, tag uint32, data []byte) *SendRequest {
	return n.cluster.engine(n.id).Isend(to, tag, data)
}

// IsendV submits a gather vector (a list of buffers treated as one
// logical payload) without blocking.
func (n *Node) IsendV(to int, tag uint32, v IOVec) *SendRequest {
	return n.cluster.engine(n.id).IsendV(to, tag, v)
}

// Irecv posts a receive for a message from node `from` under `tag`.
func (n *Node) Irecv(from int, tag uint32, buf []byte) *RecvRequest {
	return n.cluster.engine(n.id).Irecv(from, tag, buf)
}

// Send submits and waits for local completion.
func (n *Node) Send(ctx Ctx, to int, tag uint32, data []byte) {
	n.Isend(to, tag, data).Wait(ctx)
}

// Recv posts a receive and waits for the message; it returns the
// received length.
func (n *Node) Recv(ctx Ctx, from int, tag uint32, buf []byte) (int, error) {
	return n.Irecv(from, tag, buf).Wait(ctx)
}
