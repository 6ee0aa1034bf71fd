// Package railcore is the link layer under both live fabrics: the one
// implementation of fabric.Node, fabric.Rail and fabric.TrySender that
// internal/livenet (TCP) and internal/shmnet (shared-memory rings) run on.
// It knows no cost model: a rail's horizon comes from the bytes it has
// queued and the write rate it measured.
//
// A fabric supplies one Transport per link — the byte stream joining a
// node pair on one rail, which it knows how to write, read, wake and end
// — and two policies: what a failed link means (LinkLost: TCP
// reconnects, a ring reports Down) and what re-enabling a rail
// re-establishes (RailEnabled). The core owns everything a frame meets
// between the engine and that stream:
//
//   - the link queue, its writer goroutine, and the producer token that
//     lets a sender write a small frame itself when the transport can do
//     that without waiting (TryWriter);
//   - the framing: an 8-byte prefix (head and body lengths, uint32 LE),
//     the goodbye sentinel and the 1 GiB frame limit;
//   - fabric.Head copy-at-enqueue, FramePool receive frames, and the
//     placer's ask/commit/abort;
//   - the write-rate EWMA behind IdleAt and Busy, the chaos throttle, and
//     the kill flags (discard, report Down, revive on traffic);
//   - Stats, and the reports to the node's fabric.Inbox: telemetry, and
//     delivery to the sink or RecvQ.
//
// One node may hold rails of several transports. Every rail has an owner
// and a home. The owner is the core that built it, for good: its
// goroutines, its transport policies and its transport-local index (what
// the TCP hello carries, what Link, FailRail and the ring files address).
// The home is the node the rail serves: its sink, placer, telemetry, frame
// pool and health tracker, and the index the engine sees. A fabric's rails
// are at home in their owner's nodes until Join re-homes the rails of
// several fabrics into one node per id — how fabric.NewMix makes a mixed
// shm+TCP cluster one rail set. Links and transports stay as they were.
//
// The split is the one the Distributed Network Processor makes (PAPERS.md):
// on-chip and off-chip ports share one packet format and one
// network-processor interface; only the physical layer and its buffering
// differ.
//
// What a transport can block on, who can wake it, and who copies a body
// is all that differs between the two. Two optional capabilities say so:
//
//   - TryWriter: a socket write can block and nothing tells beforehand,
//     so TCP offers none and every frame takes the writer; a ring write
//     waits only for space the consumer frees, so small frames on an idle
//     ring are written by their sender. The frame's completion fires when
//     the write returns.
//   - Mover: a ring's peer can read the sender's memory (the same
//     process, or another one through process_vm_readv), so a body at or
//     above the transport's floor does not stream at all: the writer
//     publishes prefix, head and a descriptor of the body, and the peer's
//     reader copies the body once, straight into the placed buffer (or a
//     pool frame). The completion then fires when that copy is done — the
//     transport calls Move.Finish, once — not when the writer moves on, and
//     the rail's rate is measured from descriptor to copy. TCP has no
//     mover: its bytes must cross the socket. A mover that moves nothing
//     (its peer may not read this process) streams every body, and the
//     rail then caps the chunks the engine plans at the mover's StreamMax,
//     so no chunk fills the ring by itself.
//
// A TCP side is woken by its kernel; a ring side by the other side's
// nudge, which is why Close calls every transport's Unblock.
package railcore

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/fabric"
	"repro/internal/railhealth"
	"repro/internal/rt"
)

const (
	// maxFrame bounds a single frame (1 GiB): one limit for every live rail,
	// so a mixed cluster has one.
	maxFrame = 1 << 30
	// prefixSize is the link framing before every frame: the head and body
	// lengths, uint32 LE each (a one-slice frame is all head).
	prefixSize = 8
	// goodbye is the head-length sentinel a closing writer sends so the peer
	// can tell a graceful shutdown (no error) from a death (an error).
	goodbye = 0xFFFFFFFF
	// movedBit flags, in the head length, a frame whose body was handed to
	// a Mover: the stream carries a descriptor of the body in its place.
	// Heads are below maxFrame, so the bit is otherwise always clear.
	movedBit = 1 << 31
	// rateCalibMin is the smallest write that updates the throughput EWMA or
	// reaches telemetry: tiny frames measure latency, not bandwidth.
	rateCalibMin = 4 << 10
	// throttleQueue is the standing-queue delay ThrottleRail charges per
	// frame per unit of slow-down: a congested link delays even small
	// frames (bufferbloat), which makes the throttle observable at every
	// transfer size.
	throttleQueue = 100 * time.Microsecond
)

// Transport is one link's byte stream, the only thing a live fabric
// supplies per (node pair, rail). One goroutine reads (the link's reader);
// writes come from the link's writer or, through TryWriter, from a sender
// holding the link's producer token — never two at once.
type Transport interface {
	// WriteV writes prefix, head and body as one frame from their own
	// slices, blocking until all are handed over. ErrClosing means the
	// write gave up because the fabric is closing.
	WriteV(prefix, head, body []byte) error
	// Read fills dst. atBoundary says dst starts a frame, where the wait
	// may be long. ErrGoodbye means the peer ended the stream gracefully.
	Read(dst []byte, atBoundary bool) error
	// PeerKilled reports a kill announced on the lane itself (shm: the
	// ring status word, which a peer process's FailRail sets); false for
	// a transport without one.
	PeerKilled() bool
	// Goodbye writes frame (the goodbye prefix) best effort and ends the
	// stream. It is bounded: the fabric is going away.
	Goodbye(frame []byte)
	// Unblock wakes or bounds every wait of the transport so Close can
	// join the link's goroutines.
	Unblock()
}

// TryWriter is the capability of a transport that can write a small frame
// without ever waiting (shm: it fits the ring's free space now). Only a
// link whose transport has it takes sender-written frames; the core then
// guards every write with the link's producer token. TryWrite publishes
// prefix and head together or not at all.
type TryWriter interface {
	TryWrite(prefix, head []byte) bool
}

// Mover is the capability of a transport whose peer can copy a body
// straight out of the sender's buffer. The link's writer hands it every
// body of at least MoveFloor bytes; the reader on the other side copies
// that body once, into the destination its placer names.
type Mover interface {
	// MoveFloor returns the smallest body the transport moves, or 0 while
	// it moves none (its peer could not read this process's memory).
	MoveFloor() int
	// StreamMax returns the largest body worth streaming in one frame, a
	// fraction of the transport's buffer: while MoveFloor is 0 the engine
	// plans no larger chunk on the link (Rail.MaxChunk).
	StreamMax() int
	// WriteMove publishes prefix and head followed by a descriptor of
	// m.Body instead of the body, waiting for ring space as WriteV does.
	// taken false means nothing was written: with a nil error — no free
	// slot for a body small enough to stream — the frame takes WriteV;
	// with ErrClosing it is dropped. A taken move belongs to the transport, which calls
	// m.Finish exactly once: when the peer has copied the body, or, the
	// copy abandoned, when the fabric closes.
	WriteMove(prefix, head []byte, m Move) (taken bool, err error)
	// ReadMove reads the descriptor that follows a moved frame's head and
	// copies the body it names into dst, which is exactly the body's
	// length, then tells the sender's side.
	ReadMove(dst []byte) error
}

// Move is one body handed to a Mover, from its descriptor's publication
// until the peer's copy. It is passed by value into a slot of the
// transport's own table, so a moved frame allocates nothing.
type Move struct {
	// Body is the bytes to copy; it stays aliased from the sender until
	// Finish.
	Body []byte

	link             *Link
	done             fabric.Completion
	size             int   // head + body: the frame's traffic
	start, calibFrom int64 // clock stamps: dequeued; the write began (after any throttle)
}

// Finish retires a moved frame: copied, it counts as traffic and its
// rail's rate calibrates on descriptor-to-copy time; either way its
// posted bytes leave IdleAt and the frame's completion fires — the
// sender may reuse the body. The transport calls it exactly once per
// taken move, on whichever goroutine saw the copy end.
//
//railvet:hotpath
func (m Move) Finish(copied bool) {
	r := m.link.rail
	var took, calib time.Duration
	if copied {
		end := clock.Now()
		took, calib = clock.Between(m.start, end), clock.Between(m.calibFrom, end)
		r.observeWrite(m.link.peer, m.size, took)
	}
	r.noteWritten(m.size, took, calib, copied)
	if m.done != nil {
		m.done.Fire()
	}
}

// ErrGoodbye is what a Transport's Read returns when the peer ended the
// stream gracefully.
var ErrGoodbye = errors.New("railcore: peer said goodbye")

// ErrClosing is what a Transport's WriteV returns when it gave up because
// the fabric is closing.
var ErrClosing = errors.New("railcore: fabric closing")

// Config is a fabric's shape and its transport family's policies.
type Config struct {
	// Name prefixes errors and panics ("livenet", "shmnet"); Kind is what
	// the rails say they are (fabric.Caps).
	Name, Kind string
	// Nodes, Rails and EagerMax are the fabric's shape.
	Nodes, Rails, EagerMax int
	// Local is the one node this process hosts, or -1 for all of them.
	Local int
	// Rate seeds a rail's throughput estimate (bytes/s) until real writes
	// calibrate it, and again when a link is replaced.
	Rate float64
	// LinkLost reacts, once per link, to a stream that failed while the
	// fabric is open (not a goodbye); recoverable says whether the
	// transport may re-establish it.
	LinkLost func(l *Link, reason string, recoverable bool)
	// RailEnabled runs after Health().Enable on the rail's home node
	// cleared its kill flag.
	RailEnabled func(r *Rail)
}

// Fabric is the core of a live fabric: its nodes, their rails and links.
// The fabrics embed it (livenet.Fabric, shmnet.Fabric) and add Close and
// their transports.
type Fabric struct {
	env   *rt.LiveEnv
	cfg   Config
	nodes []*Node

	writers, readers sync.WaitGroup
	closing          chan struct{}
	closed           atomic.Bool
	closeOnce        sync.Once

	mu       sync.Mutex // orders AddLink against Close; guards firstErr
	firstErr error
}

// New builds the core of a fabric; links are added with AddLink.
func New(env *rt.LiveEnv, cfg Config) *Fabric {
	c := newCore(env, cfg)
	for _, n := range c.nodes {
		for r := 0; n.Hosted() && r < cfg.Rails; r++ {
			n.adopt(&Rail{
				c:     c,
				node:  n.ID(),
				index: r,
				rate:  cfg.Rate,
				links: make([]*Link, cfg.Nodes),
			})
		}
	}
	return c
}

// newCore builds a core's nodes without rails. Enabling a rail clears its
// kill flag and runs its owner's RailEnabled, whichever core that is.
func newCore(env *rt.LiveEnv, cfg Config) *Fabric {
	c := &Fabric{env: env, cfg: cfg, closing: make(chan struct{})}
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{c: c}
		c.nodes = append(c.nodes, n)
		if cfg.Local >= 0 && i != cfg.Local {
			n.Init(i, nil, nil) // a remote stub
			continue
		}
		n.health = railhealth.New(env, i, cfg.Rails)
		n.Init(i, env.NewQueue(), n.health)
		n.health.SetOnEnable(func(rail int) {
			r := n.rails[rail]
			r.killed.Store(false)
			r.c.cfg.RailEnabled(r)
		})
	}
	return c
}

// Env returns the wall-clock environment.
func (c *Fabric) Env() rt.Env { return c.env }

// NumNodes returns the total node count (hosted or not).
func (c *Fabric) NumNodes() int { return c.cfg.Nodes }

// NumRails returns the rail count.
func (c *Fabric) NumRails() int { return c.cfg.Rails }

// Node returns node i; in distributed mode non-hosted ids yield a stub
// that panics on rail or queue access.
func (c *Fabric) Node(i int) fabric.Node { return c.nodes[i] }

// Err returns the first transport error observed, if any. A peer's
// graceful goodbye is not one; a stream that ends without it is.
func (c *Fabric) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.firstErr
}

// fail records err, prefixed with the fabric's name, unless an earlier
// error is already recorded.
func (c *Fabric) fail(err error) {
	c.mu.Lock()
	if c.firstErr == nil {
		c.firstErr = fmt.Errorf("%s: %w", c.cfg.Name, err)
	}
	c.mu.Unlock()
}

// panicf panics with a message prefixed with the fabric's name.
func (c *Fabric) panicf(format string, args ...any) {
	panic(c.cfg.Name + ": " + fmt.Sprintf(format, args...))
}

// Closed reports whether Close has begun.
func (c *Fabric) Closed() bool { return c.closed.Load() }

// Closing is closed when Close begins.
func (c *Fabric) Closing() <-chan struct{} { return c.closing }

// Close tears the fabric down. Every link retires: its writer retires the
// queued frames, says goodbye and exits, the transport's waits unblocked
// so none of them sits the close out. release then frees the transports
// (TCP closes its sockets, which ends the readers' reads) and the readers
// are joined. Only the first call does this and returns Err; a concurrent
// call waits for it, and every later one returns nil.
func (c *Fabric) Close(release func()) error {
	first := false
	c.closeOnce.Do(func() {
		first = true
		c.mu.Lock()
		c.closed.Store(true) // AddLink refuses from here on
		c.mu.Unlock()
		close(c.closing)
		for r := 0; r < c.cfg.Rails; r++ {
			for _, l := range c.Links(r) {
				l.retire()
				l.t.Unblock()
			}
		}
		c.writers.Wait()
		if release != nil {
			release()
		}
		c.readers.Wait()
	})
	if !first {
		return nil
	}
	return c.Err()
}

// AddLink installs t as node owner's rail-r link to peer and starts its
// writer and reader. A link it replaces is retired: marked dead, its
// queued frames retired unwritten (the engine replays them), its writer
// gone; the rail then starts its rate estimate afresh — a new path may not
// perform like the old one — and, its kill flag cleared, is reported Up.
// It returns the replaced link, or ok false, adopting nothing, when the
// fabric is closing.
func (c *Fabric) AddLink(owner, peer, r int, t Transport) (prev *Link, ok bool) {
	n := c.nodes[owner]
	rail := n.rails[r]
	// 64 queued frames: a window of eager containers, acks and chunks from
	// every flow of the destination rides behind a busy writer before a
	// sender waits (or TrySend refuses).
	l := &Link{rail: rail, peer: peer, t: t, out: make(chan outFrame, 64), stop: make(chan struct{})}
	if l.tw, _ = t.(TryWriter); l.tw != nil {
		l.tokenWake = make(chan struct{}, 1)
	}
	l.mv, _ = t.(Mover)
	c.mu.Lock()
	if c.closed.Load() {
		c.mu.Unlock()
		return nil, false
	}
	rail.mu.Lock()
	prev = rail.links[peer]
	rail.links[peer] = l
	if prev != nil {
		rail.rate = c.cfg.Rate
		rail.stats.Reconnects++
	}
	rail.mu.Unlock()
	c.writers.Add(1)
	c.readers.Add(1)
	c.mu.Unlock()
	if prev != nil {
		prev.dead.Store(true)
		prev.retire()
		// Before the new link runs: a failure it sees must come after this.
		rail.killed.Store(false)
		rail.report(fabric.RailUp, "reconnected")
	}
	go c.writeLoop(l)
	go c.readLoop(l)
	return prev, true
}

// Link returns node's current rail-r link to peer (nil before one is
// added, and on a non-hosted node).
func (c *Fabric) Link(node, r, peer int) *Link {
	n := c.nodes[node]
	if !n.Hosted() {
		return nil
	}
	return n.rails[r].link(peer)
}

// Links returns every hosted node's current links of rail r.
func (c *Fabric) Links(r int) []*Link {
	var ls []*Link
	for _, rail := range c.rails(r) {
		ls = append(ls, rail.Links()...)
	}
	return ls
}

// rails returns every hosted node's rail r.
func (c *Fabric) rails(r int) []*Rail {
	var rs []*Rail
	for _, n := range c.nodes {
		if n.Hosted() && r >= 0 && r < len(n.rails) {
			rs = append(rs, n.rails[r])
		}
	}
	return rs
}

// Kill is FailRail's shared half: rail r stops carrying frames on every
// hosted node (in-flight ones are discarded — a genuine mid-message loss),
// cut severs each hosted link of the rail the transport's way, and the
// rail is reported Down everywhere.
func (c *Fabric) Kill(r int, cut func(*Link)) {
	rails := c.rails(r)
	for _, rail := range rails {
		rail.killed.Store(true)
	}
	for _, l := range c.Links(r) {
		cut(l)
	}
	for _, rail := range rails {
		rail.report(fabric.RailDown, fmt.Sprintf("rail %d killed", r))
	}
}

// ThrottleRail artificially slows rail r on every hosted node by `factor`
// (10 = every write takes ten times as long); factor <= 1 removes the
// throttle. Unlike FailRail the rail stays Up — this is the congestion
// chaos hook the adaptive-telemetry subsystem is tested against: the drift
// detector must notice the slowdown from live measurements and the
// strategies must migrate work off the rail without a health transition.
func (c *Fabric) ThrottleRail(r int, factor float64) {
	var bits uint64
	if factor > 1 {
		bits = math.Float64bits(factor)
	}
	for _, rail := range c.rails(r) {
		rail.throttle.Store(bits)
	}
}

// Counters returns the backpressure and park counters of a hosted node's
// rail r, for a transport that waits to bump (shm: its ring sides).
func (c *Fabric) Counters(node, r int) (stalls, parks *atomic.Uint64) {
	rail := c.nodes[node].rails[r]
	return &rail.stalls, &rail.parks
}

// MoveRefused records that a hosted node's rail-r link cannot take moved
// bodies from its peer, and why (shm: process_vm_readv was refused when
// the peer attached): that peer's bodies stream through the transport.
func (c *Fabric) MoveRefused(node, r int, reason string) {
	rail := c.nodes[node].rails[r]
	rail.mu.Lock()
	rail.stats.MoveRefused++
	rail.stats.MoveRefusedReason = reason
	rail.mu.Unlock()
}

// Node is one endpoint of a live fabric: its core's rails, by their index
// (a node Join built holds every part's rails, in part order). It is their
// home — inbox (sink, telemetry), placer, frame pool, tracker — until Join
// moves them; its core keeps addressing them by their index here. A node
// another process hosts is a remote stub: ID works, and everything else
// panics.
type Node struct {
	fabric.Inbox

	c      *Fabric
	rails  []*Rail
	health *railhealth.Tracker

	// frames recycles the contiguous receive frames consumers release.
	frames fabric.FramePool

	// placer is read once per frame by every link reader; a pointer swap
	// keeps SetPlacer from waiting behind a body still arriving.
	placer atomic.Pointer[fabric.Placer]
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

// observeWrite reports one completed frame write of the rail to its
// home's telemetry sink, if the frame is in the bandwidth regime: small
// frames measure latency, not the rail (the engine's ack path supplies the
// latency observations).
func (r *Rail) observeWrite(peer, bytes int, d time.Duration) {
	if bytes < rateCalibMin {
		return
	}
	h := r.home.Load()
	h.node.Observe(peer, h.index, bytes, d)
}

// NumRails returns the rail count.
func (n *Node) NumRails() int { return n.c.cfg.Rails }

// Rail returns the i-th rail. It panics on a non-hosted (remote) node.
func (n *Node) Rail(i int) fabric.Rail {
	n.mustHost()
	return n.rails[i]
}

// Cores returns the host's core count, as the Go scheduler uses it.
func (n *Node) Cores() int { return runtime.GOMAXPROCS(0) }

func (n *Node) mustHost() {
	if !n.Hosted() {
		n.c.panicf("node %d is not hosted by this process", n.ID())
	}
}
