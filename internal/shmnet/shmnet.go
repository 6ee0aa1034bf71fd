package shmnet

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/railhealth"
	"repro/internal/rt"
)

// maxFrame bounds a single length-prefixed frame (1 GiB), matching
// livenet so a mixed cluster has one limit.
const maxFrame = 1 << 30

// prefixSize is the link framing before every frame: the head and body
// lengths, uint32 LE each (a one-slice frame is all head). Matches
// livenet's.
const prefixSize = 8

// goodbyeFrame is the head-length sentinel a closing link writes so the
// peer can tell a graceful shutdown from a stalled producer.
const goodbyeFrame = 0xFFFFFFFF

// initialRate seeds the per-rail copy-throughput estimate (8 GiB/s — a
// memory-bandwidth-class path) until real writes calibrate it.
const initialRate = float64(8 << 30)

// rateCalibMin is the smallest write that updates the throughput EWMA;
// tiny frames measure ring-cursor latency, not copy bandwidth.
const rateCalibMin = 4 << 10

// throttleQueue is the standing-queue delay ThrottleRail charges per
// frame per unit of slow-down, mirroring livenet's bufferbloat model so
// a throttled shm rail is observable at every transfer size.
const throttleQueue = 100 * time.Microsecond

// Config describes a shared-memory fabric.
type Config struct {
	// Nodes is the total number of nodes in the system (default 2).
	Nodes int
	// Rails is the number of parallel shm rails per node pair (default 1).
	Rails int
	// CoresPerNode is the core count each node reports (default 4).
	CoresPerNode int
	// EagerMax is the largest eager payload a rail accepts; above it the
	// engine must use the rendezvous path (default 64 KiB — the PIO
	// regime stretches further on a memory path than on a NIC).
	EagerMax int
	// RingBytes is the payload capacity of each direction's ring
	// (default 256 KiB). Frames larger than the ring still flow — they
	// stream through in pieces.
	RingBytes int
	// Dir is the directory holding the mmap-backed ring files
	// (distributed mode only). Both processes must name the same
	// directory, which must not hold ring files of a previous session.
	Dir string
	// AttachTimeout bounds how long a distributed node waits for its
	// peer's ring files to appear (default 10s).
	AttachTimeout time.Duration
	// OnStall, when set, fires once per ring-full backpressure episode
	// on any of a hosted node's send rings, with the rail index. It is
	// called from the producer goroutine mid-write, so it must be cheap
	// and must not block — multirail wires it to the flight recorder's
	// anomaly dump, which is rate-limited internally.
	OnStall func(rail int)
}

func (c *Config) defaults() {
	if c.Nodes == 0 {
		c.Nodes = 2
	}
	if c.Rails == 0 {
		c.Rails = 1
	}
	if c.CoresPerNode == 0 {
		c.CoresPerNode = 4
	}
	if c.EagerMax == 0 {
		c.EagerMax = 64 << 10
	}
	if c.RingBytes == 0 {
		c.RingBytes = 256 << 10
	}
	// Ring regions are laid out back to back (in the mmap files too), so
	// the payload size must preserve the header atomics' 8-byte alignment.
	c.RingBytes = (c.RingBytes + 7) &^ 7
	if c.AttachTimeout <= 0 {
		c.AttachTimeout = 10 * time.Second
	}
}

func (c *Config) validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("shmnet: need at least 2 nodes, got %d", c.Nodes)
	}
	if c.Rails < 1 {
		return fmt.Errorf("shmnet: need at least 1 rail, got %d", c.Rails)
	}
	if c.RingBytes < 4<<10 {
		return fmt.Errorf("shmnet: ring of %d bytes is too small (min 4 KiB)", c.RingBytes)
	}
	return nil
}

// Fabric is a shared-memory multirail fabric (implements fabric.Fabric).
type Fabric struct {
	env   *rt.LiveEnv
	cfg   Config
	local int // hosted node id; -1 when all nodes are hosted
	nodes []*Node

	wg       sync.WaitGroup // readers and writers
	closedCh chan struct{}
	closed   atomic.Bool

	mu       sync.Mutex
	firstErr error
	maps     []*mapping // mmap regions to release at Close
}

// NewHosted builds a fabric hosting all cfg.Nodes in this process,
// joined by heap-backed rings — the loopback shape the mixed shm+TCP
// cluster uses.
func NewHosted(env *rt.LiveEnv, cfg Config) (*Fabric, error) {
	cfg.defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := newFabric(env, cfg, -1)
	for i := 1; i < cfg.Nodes; i++ {
		for j := 0; j < i; j++ {
			for r := 0; r < cfg.Rails; r++ {
				// Two heap rings per lane: j->i and i->j, with in-process
				// wakeups so an idle lane answers its first frame fast.
				fwd := newRing(alignedRegion(ringRegionSize(cfg.RingBytes)), true).enableWake()
				rev := newRing(alignedRegion(ringRegionSize(cfg.RingBytes)), true).enableWake()
				f.register(f.nodes[j], i, r, fwd, rev)
				f.register(f.nodes[i], j, r, rev, fwd)
			}
		}
	}
	f.start()
	return f, nil
}

// NewDistributed builds a fabric hosting only node `local` in this
// process, attached to its peers through mmap-backed ring files in
// cfg.Dir (all processes must run on one host). The lower-id side of
// each pair creates the file; the higher-id side attaches, waiting up
// to cfg.AttachTimeout for it to appear.
func NewDistributed(env *rt.LiveEnv, local int, cfg Config) (*Fabric, error) {
	cfg.defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if local < 0 || local >= cfg.Nodes {
		return nil, fmt.Errorf("shmnet: local node %d out of range [0,%d)", local, cfg.Nodes)
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("shmnet: distributed mode needs Dir for the ring files")
	}
	f := newFabric(env, cfg, local)
	for peer := 0; peer < cfg.Nodes; peer++ {
		if peer == local {
			continue
		}
		for r := 0; r < cfg.Rails; r++ {
			lo, hi := local, peer
			if lo > hi {
				lo, hi = hi, lo
			}
			m, err := attachPair(cfg.Dir, lo, hi, r, cfg.RingBytes, local == lo, cfg.AttachTimeout)
			if err != nil {
				f.Close()
				return nil, err
			}
			f.mu.Lock()
			f.maps = append(f.maps, m)
			f.mu.Unlock()
			// The file lays out the lo->hi ring first, hi->lo second.
			loHi := newRing(m.region(0, ringRegionSize(cfg.RingBytes)), false)
			hiLo := newRing(m.region(ringRegionSize(cfg.RingBytes), ringRegionSize(cfg.RingBytes)), false)
			if local == lo {
				f.register(f.nodes[local], peer, r, loHi, hiLo)
			} else {
				f.register(f.nodes[local], peer, r, hiLo, loHi)
			}
		}
	}
	f.start()
	return f, nil
}

func newFabric(env *rt.LiveEnv, cfg Config, local int) *Fabric {
	f := &Fabric{env: env, cfg: cfg, local: local, closedCh: make(chan struct{})}
	for i := 0; i < cfg.Nodes; i++ {
		hosted := local < 0 || i == local
		n := &Node{f: f, id: i, hosted: hosted}
		if hosted {
			n.recvq = env.NewQueue()
			n.health = railhealth.New(env, i, cfg.Rails)
			n.killed = make([]atomic.Bool, cfg.Rails)
			n.downHint = make([]atomic.Bool, cfg.Rails)
			n.health.SetOnEnable(func(rail int) { f.enableRail(n, rail) })
			for r := 0; r < cfg.Rails; r++ {
				n.rails = append(n.rails, &Rail{
					node:  n,
					index: r,
					rate:  initialRate,
					links: make(map[int]*link),
					prof: &model.Profile{
						Name:          fmt.Sprintf("shm-r%d", r),
						EagerRate:     initialRate,
						RecvCopyRate:  initialRate,
						WireBandwidth: initialRate,
						EagerMax:      cfg.EagerMax,
					},
				})
			}
		}
		f.nodes = append(f.nodes, n)
	}
	return f
}

// register installs a link on a hosted node's rail: sendR carries owner
// -> peer traffic, recvR the reverse.
func (f *Fabric) register(owner *Node, peer, r int, sendR, recvR *ring) {
	l := &link{
		out:   make(chan outFrame, 64),
		peer:  peer,
		rail:  r,
		sendR: sendR,
		recvR: recvR,
	}
	rail := owner.rails[r]
	sendR.stalls = &rail.stalls // owner's writer is sendR's only producer
	sendR.writeParks, recvR.readParks = &rail.parks, &rail.parks
	if hook := f.cfg.OnStall; hook != nil {
		idx := r
		sendR.onStall = func() { hook(idx) }
	}
	rail.mu.Lock()
	rail.links[peer] = l
	rail.mu.Unlock()
}

// start launches the writer and reader goroutines of every registered
// link. Separate from registration so a partially constructed
// distributed fabric can be torn down without goroutines attached to
// half a mesh.
func (f *Fabric) start() {
	for _, n := range f.nodes {
		if !n.hosted {
			continue
		}
		for _, rail := range n.rails {
			rail.mu.Lock()
			links := make([]*link, 0, len(rail.links))
			for _, l := range rail.links {
				links = append(links, l)
			}
			rail.mu.Unlock()
			for _, l := range links {
				f.wg.Add(2)
				go f.writeLoop(n, l)
				go f.readLoop(n, l)
			}
		}
	}
}

// Env returns the wall-clock environment.
func (f *Fabric) Env() rt.Env { return f.env }

// NumNodes returns the total node count (hosted or not).
func (f *Fabric) NumNodes() int { return f.cfg.Nodes }

// NumRails returns the rail count.
func (f *Fabric) NumRails() int { return f.cfg.Rails }

// Node returns node i; in distributed mode non-hosted ids yield a stub
// that panics on rail or queue access.
func (f *Fabric) Node(i int) fabric.Node { return f.nodes[i] }

// Err returns the first transport error observed, if any. Ring lanes
// cannot lose bytes, so errors are limited to attach/setup problems.
func (f *Fabric) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.firstErr
}

// Close tears the fabric down: writers drain and say goodbye, readers
// join, mappings unmap. Safe to call more than once.
func (f *Fabric) Close() error {
	if !f.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(f.closedCh)
	// Sides park with no deadline: wake them all to see the close. (Writers
	// then say goodbye, which wakes a peer process's poll too.)
	for r := 0; r < f.cfg.Rails; r++ {
		f.eachRailRing(r, func(r *ring) { nudge(r.dataWake); nudge(r.spaceWake) })
	}
	f.wg.Wait()
	f.mu.Lock()
	maps := f.maps
	f.maps = nil
	f.mu.Unlock()
	for _, m := range maps {
		m.close()
	}
	return f.Err()
}

// outFrame is one queued wire frame: head followed by body (nil for
// one-slice frames). A short head travels by value (fabric.Head); a long
// head and the body stay aliased from the sender until done fires.
type outFrame struct {
	head fabric.Head
	body []byte
	done fabric.Completion
	rail *Rail
}

// size is the frame's wire length without the link prefix.
func (of *outFrame) size() int { return of.head.Len() + len(of.body) }

// finish retires the frame: accounting first, then the completion event.
func (of *outFrame) finish(wrote, calib time.Duration, written bool) {
	of.rail.noteWritten(of.size(), wrote, calib, written)
	if of.done != nil {
		of.done.Fire()
	}
}

// link is one endpoint of the ring pair joining a node pair on one rail.
type link struct {
	out   chan outFrame
	peer  int
	rail  int
	sendR *ring
	recvR *ring

	// producer is held by whoever copies a frame into sendR: the link's
	// writer, or a sender writing a small frame itself (writeNow). The ring
	// is single-producer; this is what keeps it so.
	producer sync.Mutex

	// scratch holds the head of a frame offered to the placer; only the
	// link's reader touches it.
	scratch [fabric.PlaceHeadMax]byte
}

// putPrefix encodes the frame's link prefix.
func (of *outFrame) putPrefix(prefix *[prefixSize]byte) {
	binary.LittleEndian.PutUint32(prefix[0:], uint32(of.head.Len()))
	binary.LittleEndian.PutUint32(prefix[4:], uint32(len(of.body)))
}

// writeLoop drains a link's queue into its send ring. Each frame is the
// length prefix, then head and body copied from their own slices — a
// rendezvous chunk goes from the caller's buffer into the ring with no
// frame assembled in between. done events fire when the frame is fully
// in the ring — the shared-memory equivalent of "the PIO copy
// finished" — and after the producer token is released. Per-frame
// timestamps use internal/clock: on the intra-host rail a frame IS a
// memcpy, so wall-clock reads would be a measurable fraction of the frame
// itself — and one pair of reads serves both the occupancy and the rate
// calibration unless a throttle sleep separates them.
//
//railvet:hotpath
func (f *Fabric) writeLoop(n *Node, l *link) {
	defer f.wg.Done()
	abort := func() bool { return f.closed.Load() }
	for {
		select {
		case of := <-l.out:
			if f.railKilled(n.id, l.rail) || l.sendR.status.Load() == ringKilled {
				// Killed rail: the frame is lost, exactly as a dying NIC
				// loses in-flight messages. Report Down (idempotent) —
				// a peer process's FailRail reaches this side only
				// through the ring status word, and without the report
				// the engine would never replan the dropped frames onto
				// a surviving rail. Then the engine's ack-and-replan
				// machinery recovers them.
				n.downHint[l.rail].Store(true)
				n.health.Report(l.rail, fabric.RailDown, fmt.Sprintf("rail %d killed", l.rail))
				of.finish(0, 0, false)
				continue
			}
			var prefix [prefixSize]byte
			of.putPrefix(&prefix)
			start := clock.Now()
			writeStart := start
			if th := of.rail.throttleFactor(); th > 1 {
				// Chaos throttle, mirroring livenet: stretch the frame's
				// transmission before it reaches the ring, plus a
				// standing-queue term so small frames feel it too.
				exp := float64(of.size()+prefixSize)/of.rail.currentRate() + throttleQueue.Seconds()
				time.Sleep(time.Duration(exp * (th - 1) * 1e9))
				writeStart = clock.Now()
			}
			l.producer.Lock()
			ok := l.sendR.write(prefix[:], abort) &&
				l.sendR.write(of.head.Bytes(), abort) &&
				l.sendR.write(of.body, abort)
			l.producer.Unlock()
			end := clock.Now()
			took := clock.Between(start, end)
			of.finish(took, clock.Between(writeStart, end), ok)
			if ok {
				n.observeWrite(l.peer, of.rail.index, of.size(), took)
			}
		case <-f.closedCh:
			// Drain pending frames, firing their events so no sender
			// waits on a closing fabric; then say goodbye so the peer's
			// reader (possibly in another process) stops cleanly.
			drainLink(l)
			var prefix [prefixSize]byte
			binary.LittleEndian.PutUint32(prefix[:], goodbyeFrame)
			l.producer.Lock()                                     // a sender may be mid-copy (writeNow)
			l.sendR.write(prefix[:], func() bool { return true }) // best effort: never blocks
			l.sendR.status.Store(ringGoodbye)
			l.producer.Unlock()
			nudge(l.sendR.dataWake) // a parked reader must see the goodbye
			return
		}
	}
}

// writeNow is the route of a small frame past the writer goroutine: the
// sender copies prefix and frame into the ring itself, in one
// publication, when that is a bounded memcpy that cannot wait — the frame
// fits the ring's free space right now and nothing about the link calls
// for the writer (a killed or throttled rail, a closing fabric). The
// caller holds l.producer, which it took with the rail idle (SendDataV),
// so the ring still has one producer at a time and the link's frame order
// is the order of the SendDataV calls, exactly as through the queue.
// It reports whether the frame is in the ring, and how long that took.
//
//railvet:hotpath
func (f *Fabric) writeNow(n *Node, l *link, of *outFrame) (time.Duration, bool) {
	if f.closed.Load() || f.railKilled(n.id, l.rail) || l.sendR.status.Load() != ringOpen ||
		of.rail.throttleFactor() > 1 {
		return 0, false
	}
	var prefix [prefixSize]byte
	of.putPrefix(&prefix)
	start := clock.Now()
	if !l.sendR.tryWrite(prefix[:], of.head.Bytes()) {
		return 0, false
	}
	return clock.Since(start), true
}

// drainLink empties a closing link's queue, retiring every frame without
// writing it so no completion event is lost at shutdown. A sender racing
// Close may still enqueue after this drain sees the channel empty;
// SendDataV re-drains in that case.
func drainLink(l *link) {
	for {
		select {
		case of := <-l.out:
			of.finish(0, 0, false)
		default:
			return
		}
	}
}

// readLoop decodes length-prefixed frames from the link's receive ring
// for node n (which received them from l.peer on l.rail). A frame with a
// body is first offered to the node's placer: if it names a destination
// the body is copied from the ring straight into it and the placement is
// committed; otherwise — no placer, body-less frame, placement declined
// — head and body land in one buffer from the node's frame pool,
// delivered to the sink and recycled if the consumer releases it.
// Frames read while the rail is killed are discarded (a placed one is
// aborted) — the chaos hook's message loss — and the kill/revive
// transitions are reported to the health tracker (the peer process sees
// them through the ring status word).
//
//railvet:hotpath
func (f *Fabric) readLoop(n *Node, l *link) {
	defer f.wg.Done()
	abort := func() bool { return f.closed.Load() }
	var prefix [prefixSize]byte
	for {
		if !l.recvR.read(prefix[:], frameBoundary, abort) {
			if !f.closed.Load() {
				// Goodbye: the peer shut down gracefully. Not an error.
				n.health.Report(l.rail, fabric.RailDown, fmt.Sprintf("node %d shut down", l.peer))
			}
			return
		}
		hn := binary.LittleEndian.Uint32(prefix[0:])
		bn := binary.LittleEndian.Uint32(prefix[4:])
		if hn == goodbyeFrame {
			if !f.closed.Load() {
				n.health.Report(l.rail, fabric.RailDown, fmt.Sprintf("node %d shut down", l.peer))
			}
			return
		}
		if uint64(hn)+uint64(bn) > maxFrame {
			f.fail(fmt.Errorf("shmnet: frame of %d bytes exceeds limit", uint64(hn)+uint64(bn)))
			n.health.Report(l.rail, fabric.RailDown, "oversized frame")
			return
		}
		var head, dst []byte
		var placed func(ok bool)
		if place := n.placer.Load(); place != nil && bn > 0 && hn <= fabric.PlaceHeadMax {
			head = l.scratch[:hn]
			if !l.recvR.read(head, midFrame, abort) {
				return
			}
			dst, placed = (*place)(l.peer, l.rail, head, int(bn))
		}
		var d *fabric.Delivery
		if dst == nil {
			d = n.frames.Get(int(hn + bn))
			dst = d.Data[copy(d.Data, head):]
		}
		if !l.recvR.read(dst, midFrame, abort) {
			if placed != nil {
				placed(false)
			}
			return
		}
		if killed := l.recvR.status.Load() == ringKilled || f.railKilled(n.id, l.rail); killed {
			// Discard: the rail is dead, this frame is the loss. Report
			// Down once per kill episode (a remote FailRail reaches us
			// only through the status word).
			if placed != nil {
				placed(false)
			}
			if n.downHint[l.rail].CompareAndSwap(false, true) {
				n.health.Report(l.rail, fabric.RailDown, fmt.Sprintf("rail %d killed", l.rail))
			}
			continue
		}
		if n.downHint[l.rail].Load() && n.downHint[l.rail].CompareAndSwap(true, false) {
			// Traffic flows again on a reopened ring: the lane is alive,
			// whichever side observed the kill (even if only this node's
			// writer did — a peer's EnableRail cannot reach our tracker
			// except through the wire). Admin-pinned rails stay Down
			// (Report respects the pin).
			n.health.Report(l.rail, fabric.RailUp, "rail revived")
		}
		if placed != nil {
			placed(true)
			continue
		}
		d.From, d.Rail, d.SentAt = l.peer, l.rail, f.env.Now()
		n.deliver(d)
	}
}

func (f *Fabric) fail(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.firstErr == nil {
		f.firstErr = err
	}
	f.mu.Unlock()
}

// railKilled reports a node's local kill flag. Lock-free: it runs on
// every frame in both the writer and reader loops, and a shared mutex
// there would re-serialise the very lanes the rings decouple.
func (f *Fabric) railKilled(node, rail int) bool {
	n := f.nodes[node]
	if rail < 0 || rail >= len(n.killed) {
		return false
	}
	return n.killed[rail].Load()
}

// FailRail hard-kills rail r as a chaos hook: every hosted endpoint of
// the lane stops carrying frames (in-flight ones are discarded — a
// genuine mid-message loss), and the rail is reported Down. A peer
// process learns of the kill through the ring status word the next
// time it touches the lane (its writer reports Down when it tries to
// send, its reader when a stale frame arrives). EnableRail revives it:
// the rings stay cursor-consistent throughout, so traffic resumes
// where it left off.
func (f *Fabric) FailRail(node, rail int) {
	for _, n := range f.nodes {
		if n.hosted && rail >= 0 && rail < len(n.killed) {
			n.killed[rail].Store(true)
		}
	}
	f.eachRailRing(rail, func(r *ring) { r.status.Store(ringKilled) })
	reason := fmt.Sprintf("rail %d killed", rail)
	for _, n := range f.nodes {
		if n.hosted {
			n.health.Report(rail, fabric.RailDown, reason)
		}
	}
}

// enableRail is the health tracker's OnEnable hook: clear the kill flag,
// reopen the rings and report the rail Up again.
func (f *Fabric) enableRail(n *Node, rail int) {
	if rail >= 0 && rail < len(n.killed) {
		n.killed[rail].Store(false)
	}
	f.eachRailRing(rail, func(r *ring) {
		r.status.CompareAndSwap(ringKilled, ringOpen)
	})
}

// eachRailRing applies fn to both directions of every hosted link of one
// rail.
func (f *Fabric) eachRailRing(rail int, fn func(*ring)) {
	for _, n := range f.nodes {
		if !n.hosted || rail < 0 || rail >= len(n.rails) {
			continue
		}
		r := n.rails[rail]
		r.mu.Lock()
		links := make([]*link, 0, len(r.links))
		for _, l := range r.links {
			links = append(links, l)
		}
		r.mu.Unlock()
		for _, l := range links {
			fn(l.sendR)
			fn(l.recvR)
		}
	}
}

// ThrottleRail artificially slows rail r on every hosted node by
// `factor` (10 = every ring copy takes ten times as long); factor <= 1
// removes the throttle. The rail stays Up — the congestion chaos hook,
// mirroring livenet's. Implements fabric.Throttler.
func (f *Fabric) ThrottleRail(rail int, factor float64) {
	var bits uint64
	if factor > 1 {
		bits = math.Float64bits(factor)
	}
	for _, n := range f.nodes {
		if n.hosted && rail >= 0 && rail < len(n.rails) {
			n.rails[rail].throttle.Store(bits)
		}
	}
}

// Node is one endpoint of the shared-memory fabric.
type Node struct {
	f      *Fabric
	id     int
	hosted bool
	rails  []*Rail
	recvq  rt.Queue
	health *railhealth.Tracker
	killed []atomic.Bool // frames discarded (FailRail); per-rail, lock-free
	// downHint marks a rail this node reported Down after observing a
	// kill (locally or through the ring status word). The reader clears
	// it — reporting the rail back Up — when frames flow again with the
	// ring reopened: arriving traffic is the proof of revival a peer
	// process's EnableRail cannot deliver any other way.
	downHint []atomic.Bool

	// frames recycles the contiguous receive frames consumers release.
	frames fabric.FramePool

	sinkMu sync.RWMutex
	sink   func(*fabric.Delivery)
	// placer is read once per frame by every ring reader; a pointer swap
	// keeps SetPlacer from waiting behind a body still streaming in.
	placer atomic.Pointer[fabric.Placer]

	teleMu sync.RWMutex
	tele   fabric.Telemetry
}

// SetPlacer installs (or, with nil, removes) the placement hook for
// head+body frames (fabric.DirectNode). A placement already under way
// still commits or aborts through the hook it started with. Panics on a
// non-hosted node.
func (n *Node) SetPlacer(fn fabric.Placer) {
	n.mustHost()
	if fn == nil {
		n.placer.Store(nil)
		return
	}
	n.placer.Store(&fn)
}

// SetTelemetry installs (or, with nil, detaches) the node's telemetry
// sink: every sufficiently large frame copied into a ring is reported
// with its real copy duration. Panics on a non-hosted node.
func (n *Node) SetTelemetry(t fabric.Telemetry) {
	n.mustHost()
	n.teleMu.Lock()
	n.tele = t
	n.teleMu.Unlock()
}

// observeWrite reports one completed ring write to the telemetry sink,
// if one is installed and the frame is in the bandwidth regime.
func (n *Node) observeWrite(peer, rail, bytes int, d time.Duration) {
	if bytes < rateCalibMin || d <= 0 {
		return
	}
	n.teleMu.RLock()
	t := n.tele
	n.teleMu.RUnlock()
	if t != nil {
		t.ObserveTransfer(peer, rail, bytes, d)
	}
}

// SetSink installs a direct delivery consumer (fabric.DirectNode):
// subsequent deliveries are handed to fn on the ring reader goroutine
// that decoded them, bypassing RecvQ. Deliveries already queued are
// drained through fn first, atomically with the handoff. fn must not
// block. SetSink(nil) restores queue delivery. Panics on a non-hosted
// node.
func (n *Node) SetSink(fn func(*fabric.Delivery)) {
	n.mustHost()
	n.sinkMu.Lock()
	defer n.sinkMu.Unlock()
	n.sink = fn
	if fn == nil {
		return
	}
	for {
		item, ok := n.recvq.TryPop()
		if !ok {
			return
		}
		if d, isD := item.(*fabric.Delivery); isD && d != nil {
			fn(d)
		}
	}
}

// deliver routes one decoded frame to the sink, or to the receive queue
// when no sink is installed. The queue push happens under the sink read
// lock so it cannot race SetSink's drain and strand a frame.
func (n *Node) deliver(d *fabric.Delivery) {
	n.sinkMu.RLock()
	defer n.sinkMu.RUnlock()
	if n.sink != nil {
		n.sink(d)
		return
	}
	n.recvq.Push(d)
}

// ID returns the node's index.
func (n *Node) ID() int { return n.id }

// NumRails returns the rail count.
func (n *Node) NumRails() int { return n.f.cfg.Rails }

// Rail returns the i-th rail. It panics on a non-hosted (remote) node.
func (n *Node) Rail(i int) fabric.Rail {
	n.mustHost()
	return n.rails[i]
}

// RecvQ returns the delivery queue. It panics on a non-hosted node.
func (n *Node) RecvQ() rt.Queue {
	n.mustHost()
	return n.recvq
}

// Health returns the rail-health tracker. It panics on a non-hosted
// node.
func (n *Node) Health() fabric.Health {
	n.mustHost()
	return n.health
}

// Cores returns the configured core count.
func (n *Node) Cores() int { return n.f.cfg.CoresPerNode }

func (n *Node) mustHost() {
	if !n.hosted {
		panic(fmt.Sprintf("shmnet: node %d is not hosted by this process", n.id))
	}
}

// Rail is one shared-memory lane of a node: ring links to every peer
// plus traffic accounting for the engine's idle-horizon prediction.
type Rail struct {
	node  *Node
	index int
	prof  *model.Profile

	mu      sync.Mutex
	links   map[int]*link
	pending int64   // bytes queued but not yet copied into a ring
	rate    float64 // EWMA copy throughput, bytes/second
	stats   fabric.Stats

	// throttle > 1 slows the rail artificially (chaos hook). Float64
	// bits; 0 means no throttle.
	throttle atomic.Uint64

	// stalls counts ring-full backpressure episodes across this rail's
	// send rings (bumped lock-free by the writer inside ring.write); parks
	// the times one of this node's sides of the rail's rings — the writer of
	// a send ring, the reader of a receive ring — gave up yielding and
	// parked.
	stalls atomic.Uint64
	parks  atomic.Uint64
	// inlineWrites counts the frames senders copied into a ring themselves.
	inlineWrites atomic.Uint64
}

// currentRate returns the rail's copy-throughput EWMA (bytes/second).
func (r *Rail) currentRate() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rate
}

// throttleFactor returns the active slow-down factor (1 when none).
func (r *Rail) throttleFactor() float64 {
	if bits := r.throttle.Load(); bits != 0 {
		if f := math.Float64frombits(bits); f > 1 {
			return f
		}
	}
	return 1
}

// Index returns the rail number.
func (r *Rail) Index() int { return r.index }

// Profile returns the rail's synthetic profile: zero modeled costs (real
// costs elapse on the wall clock) with the configured EagerMax.
func (r *Rail) Profile() *model.Profile { return r.prof }

// State returns the rail's health state.
func (r *Rail) State() fabric.RailState { return r.node.health.State(r.index) }

// Stats returns a snapshot of the traffic counters.
func (r *Rail) Stats() fabric.Stats {
	r.mu.Lock()
	st := r.stats
	r.mu.Unlock()
	st.Stalls, st.Parks, st.InlineWrites = r.stalls.Load(), r.parks.Load(), r.inlineWrites.Load()
	return st
}

// IdleAt predicts when the rail's queued bytes will have been copied,
// from the throughput EWMA — the live analogue of the modeled NIC
// busy-until horizon.
func (r *Rail) IdleAt() time.Duration {
	now := r.node.f.env.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pending <= 0 {
		return now
	}
	return now + time.Duration(float64(r.pending)/r.rate*1e9)
}

// Busy reports whether the rail has queued uncopied bytes.
func (r *Rail) Busy() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pending > 0
}

// SendEager transmits an eager container through the ring — the genuine
// PIO copy of the paper.
func (r *Rail) SendEager(ctx rt.Ctx, to int, data []byte) {
	r.SendDataV(ctx, to, data, nil, nil)
}

// SendControl transmits a control message. The modeled CPU costs are
// ignored: real costs elapse on their own.
func (r *Rail) SendControl(ctx rt.Ctx, to int, data []byte, cpuCost, recvCost time.Duration) {
	r.SendDataV(ctx, to, data, nil, nil)
}

// SendData streams a rendezvous chunk; done fires when the frame is
// fully in the ring and the sender may reuse the buffer.
func (r *Rail) SendData(ctx rt.Ctx, to int, data []byte, done fabric.Completion) {
	r.SendDataV(ctx, to, data, nil, done)
}

// SendDataV posts head and body as one frame. A frame with neither body
// nor done (eager containers, acks, RTS, CTS) that finds the rail idle —
// nothing queued, nothing being written — is copied into the ring here, on
// the sender's goroutine, if it fits (writeNow): the hand-off to the
// writer would cost more than the copy. Everything else is queued for
// the link's writer, which copies head and body from their own slices, so
// the body — and a head longer than fabric.PlaceHeadMax — stay aliased
// until done fires; a shorter head is copied here. Frames with a body go
// that way on purpose: the two rails of a striped message then copy in
// parallel on two cores.
//
//railvet:hotpath
func (r *Rail) SendDataV(ctx rt.Ctx, to int, head, body []byte, done fabric.Completion) {
	r.post(to, outFrame{head: fabric.MakeHead(head), body: body, done: done, rail: r}, true)
}

// TrySend posts a body-less frame if that takes no waiting — the sender's
// own ring write, or a free slot in the link's queue (fabric.TrySender).
//
//railvet:hotpath
func (r *Rail) TrySend(to int, data []byte) bool {
	return r.post(to, outFrame{head: fabric.MakeHead(data), rail: r}, false)
}

// post is SendDataV; with wait false it refuses (false, nothing done)
// instead of waiting for a slot in a full link queue.
func (r *Rail) post(to int, of outFrame, wait bool) bool {
	if of.size() > maxFrame {
		panic(fmt.Sprintf("shmnet: frame of %d bytes exceeds the %d-byte limit", of.size(), maxFrame))
	}
	r.mu.Lock()
	l := r.links[to]
	if l == nil {
		r.mu.Unlock()
		panic(fmt.Sprintf("shmnet: node %d has no rail-%d link to node %d", r.node.id, r.index, to))
	}
	// An idle rail (pending counts every frame from here to noteWritten)
	// has an empty queue and a free token, except for the moment between a
	// writer's Unlock and its noteWritten.
	direct := len(of.body) == 0 && of.done == nil && r.pending == 0 && l.producer.TryLock()
	r.pending += int64(of.size()) + prefixSize
	r.stats.LastStart = r.node.f.env.Now()
	r.mu.Unlock()
	f := r.node.f
	if direct {
		took, ok := f.writeNow(r.node, l, &of)
		l.producer.Unlock()
		if ok {
			r.inlineWrites.Add(1)
			of.finish(took, took, true)
			r.node.observeWrite(l.peer, r.index, of.size(), took)
			return true
		}
	}
	if wait {
		select {
		case l.out <- of:
		case <-f.closedCh:
			of.finish(0, 0, false)
			return true
		}
	} else {
		select {
		case l.out <- of:
		default:
			r.mu.Lock()
			r.pending -= int64(of.size()) + prefixSize
			r.mu.Unlock()
			return false
		}
	}
	// A sender racing Close may enqueue after the writer's last drain.
	if f.closed.Load() {
		drainLink(l)
	}
	return true
}

// noteWritten retires n queued bytes, counts the frame as traffic when
// it actually reached the ring, and folds the raw copy duration (calib)
// into the throughput estimate. took additionally includes any
// chaos-throttle delay and only feeds the busy-time counter.
func (r *Rail) noteWritten(n int, took, calib time.Duration, written bool) {
	r.mu.Lock()
	r.pending -= int64(n) + prefixSize
	if r.pending < 0 {
		r.pending = 0
	}
	if written {
		r.stats.Messages++
		r.stats.Bytes += uint64(n)
	}
	r.stats.BusyTime += took
	if written && n >= rateCalibMin && calib > 0 {
		inst := float64(n) / calib.Seconds()
		r.rate = 0.7*r.rate + 0.3*inst
	}
	r.mu.Unlock()
}
