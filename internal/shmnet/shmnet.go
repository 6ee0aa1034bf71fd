package shmnet

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/railcore"
	"repro/internal/rt"
)

// initialRate seeds the per-rail copy-throughput estimate (8 GiB/s — a
// memory-bandwidth-class path) until real writes calibrate it.
const initialRate = float64(8 << 30)

// attachTimeout bounds how long a distributed node waits for its peer's
// ring files to appear.
const attachTimeout = 10 * time.Second

// Config describes a shared-memory fabric.
type Config struct {
	// Nodes is the total number of nodes in the system (default 2).
	Nodes int
	// Rails is the number of parallel shm rails per node pair (default 1).
	Rails int
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
	// OnStall, when set, fires once per ring-full backpressure episode
	// on any of a hosted node's send rings, with the rail index — the ring
	// path's only: a moved body never occupies the ring. It is
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
	if c.EagerMax == 0 {
		c.EagerMax = 64 << 10
	}
	if c.RingBytes == 0 {
		c.RingBytes = 256 << 10
	}
	// Ring regions are laid out back to back (in the mmap files too), so
	// the payload size must preserve the header atomics' 8-byte alignment.
	c.RingBytes = (c.RingBytes + 7) &^ 7
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

// Fabric is a shared-memory multirail fabric (implements fabric.Fabric):
// the rail core over one ring pair per link. Ring lanes cannot lose
// bytes, so Err reports only an oversized frame from a peer process.
type Fabric struct {
	*railcore.Fabric
	cfg Config

	mu    sync.Mutex
	maps  []*mapping // mmap regions to release at Close
	swept bool       // a Close finished the moves
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
				f.attach(j, i, r, fwd, rev, false)
				f.attach(i, j, r, rev, fwd, false)
			}
		}
	}
	return f, nil
}

// NewDistributed builds a fabric hosting only node `local` in this
// process, attached to its peers through mmap-backed ring files in
// cfg.Dir (all processes must run on one host). The lower-id side of
// each pair creates the file; the higher-id side attaches, waiting up
// to attachTimeout for it to appear.
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
			m, err := attachPair(cfg.Dir, lo, hi, r, cfg.RingBytes, local == lo, attachTimeout)
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
				f.attach(local, peer, r, loHi, hiLo, true)
			} else {
				f.attach(local, peer, r, hiLo, loHi, true)
			}
		}
	}
	return f, nil
}

func newFabric(env *rt.LiveEnv, cfg Config, local int) *Fabric {
	f := &Fabric{cfg: cfg}
	f.Fabric = railcore.New(env, railcore.Config{
		Name: "shmnet", Kind: "shm",
		Nodes: cfg.Nodes, Rails: cfg.Rails, EagerMax: cfg.EagerMax,
		Local: local, Rate: initialRate,
		LinkLost: func(l *railcore.Link, reason string, _ bool) {
			l.Report(fabric.RailDown, reason)
		},
		RailEnabled: reopenRings,
	})
	return f
}

// attach adds owner's rail-r link to peer over a ring pair: sendR carries
// owner -> peer traffic, recvR the reverse; remote says the peer is
// another process (mmap rings). The rings count their stalls and parks on
// the owner's rail.
func (f *Fabric) attach(owner, peer, r int, sendR, recvR *ring, remote bool) {
	stalls, parks := f.Counters(owner, r)
	sendR.stalls, sendR.writeParks, recvR.readParks = stalls, parks, parks
	if hook := f.cfg.OnStall; hook != nil {
		sendR.onStall = func() { hook(r) }
	}
	ln := &lane{send: sendR, recv: recvR, abort: f.Closed, readAbort: f.Closed, remote: remote,
		floor: min(MoveFloor, f.cfg.RingBytes/4)}
	if remote {
		publishProducer(sendR)
		// The reader reaps the peer's copies whenever it polls.
		ln.readAbort = func() bool { ln.reap(); return f.Closed() }
		ln.refused = func(reason string) { f.MoveRefused(owner, r, reason) }
	}
	f.AddLink(owner, peer, r, ln)
}

// Close tears the fabric down: writers drain and say goodbye, readers
// join, the moves no reader copied finish uncopied — a peer process's
// reader may no longer deliver them — and mappings unmap. Safe to call
// more than once.
func (f *Fabric) Close() error {
	err := f.Fabric.Close(nil)
	f.mu.Lock()
	swept, maps := f.swept, f.maps
	f.swept, f.maps = true, nil
	f.mu.Unlock()
	if swept {
		return err
	}
	for r := 0; r < f.NumRails(); r++ {
		for _, l := range f.Links(r) {
			ln := l.Transport().(*lane)
			ln.revoke()
			ln.send.moves.sweep()
		}
	}
	for _, m := range maps {
		m.close()
	}
	return err
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
	f.Kill(rail, func(l *railcore.Link) { l.Transport().(*lane).setStatus(ringKilled) })
}

// reopenRings is the health tracker's OnEnable hook (the core cleared the
// kill flag): reopen the rail's rings.
func reopenRings(r *railcore.Rail) {
	for _, l := range r.Links() {
		ln := l.Transport().(*lane)
		ln.send.status.CompareAndSwap(ringKilled, ringOpen)
		ln.recv.status.CompareAndSwap(ringKilled, ringOpen)
	}
}

// lane is the transport of one link: a ring per direction. The link's
// writer, or a sender holding its producer token, is send's only
// producer; its reader is recv's only consumer.
type lane struct {
	send, recv *ring
	abort      func() bool // the fabric is closing
	// readAbort is abort for the reader's waits; an mmap lane's also reaps
	// the peer's copies of moved bodies.
	readAbort func() bool

	// floor is the smallest body the lane moves (0: none);
	// remote says the peer is another process.
	floor  int
	remote bool
	// The mmap reader's: whether it probed its peer yet, the peer's pid
	// once the probe succeeded, and where a refusal is reported.
	probed  bool
	peerPid int
	refused func(reason string)

	// The writer's and the reader's descriptor of a moved body.
	desc, rdesc [descSize]byte
}

// WriteV copies prefix, head and body into the send ring, waiting for
// space as the consumer frees it — a frame larger than the ring streams
// through in pieces.
//
//railvet:hotpath
func (ln *lane) WriteV(prefix, head, body []byte) error {
	if ln.send.write(prefix, ln.abort) && ln.send.write(head, ln.abort) && ln.send.write(body, ln.abort) {
		return nil
	}
	return railcore.ErrClosing
}

// TryWrite publishes prefix and head together if the lane is open and
// they fit the ring's free space right now (railcore.TryWriter).
//
//railvet:hotpath
func (ln *lane) TryWrite(prefix, head []byte) bool {
	return ln.send.status.Load() == ringOpen && ln.send.tryWrite(prefix, head)
}

// Read fills dst from the receive ring, waiting as the kind of wait
// calls for (ring.go). The stream ends on the peer's goodbye or, which
// the core tells apart, when this fabric closes.
//
//railvet:hotpath
func (ln *lane) Read(dst []byte, atBoundary bool) error {
	at := midFrame
	if atBoundary {
		at = frameBoundary
	}
	if !ln.recv.read(dst, at, ln.readAbort) {
		return railcore.ErrGoodbye
	}
	if ln.remote {
		if !ln.probed {
			ln.probePeer()
		}
		ln.reap()
	}
	return nil
}

// PeerKilled reports the lane's status word: killed by FailRail in this
// process or the peer's.
func (ln *lane) PeerKilled() bool {
	return ln.send.status.Load() == ringKilled || ln.recv.status.Load() == ringKilled
}

// Goodbye writes the goodbye frame if it fits (never blocking) and marks
// the send ring closed, so the peer's reader stops once it has drained.
func (ln *lane) Goodbye(frame []byte) {
	ln.send.write(frame, func() bool { return true })
	ln.send.status.Store(ringGoodbye)
	nudge(ln.send.dataWake) // a parked reader must see the goodbye
}

// Unblock wakes both sides of both rings: they park with no deadline.
func (ln *lane) Unblock() {
	for _, r := range [2]*ring{ln.send, ln.recv} {
		nudge(r.dataWake)
		nudge(r.spaceWake)
	}
}

func (ln *lane) setStatus(s uint32) {
	ln.send.status.Store(s)
	ln.recv.status.Store(s)
}
