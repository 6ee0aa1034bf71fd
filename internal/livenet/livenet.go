// Package livenet implements the fabric contract over real TCP
// connections: every rail of every node pair is its own TCP connection,
// so a multirail cluster genuinely moves bytes over parallel transport
// lanes (loopback or real hosts) on the wall clock.
//
// Layout: for a system of N nodes with R rails there are C(N,2)*R
// connections; the connection between nodes i and j on rail r carries
// traffic in both directions. Frames from internal/wire travel
// length-prefixed; a reader goroutine per connection decodes them into
// fabric.Delivery items and pushes them to the destination node's
// receive queue, from which the progression engine (internal/pioman)
// raises completion events through rt.LiveEnv.
//
// Two deployment shapes:
//
//   - NewLoopback hosts all N nodes in one process, connected through a
//     real TCP listener (by default on 127.0.0.1). This is what
//     `nmping -live` and the integration tests use: the bytes cross the
//     kernel's loopback path, not a function call.
//   - NewDistributed hosts exactly one node per process. Lower-id nodes
//     listen; higher-id nodes dial (node 1 dials node 0, and so on), so
//     a two-process deployment is just one listener and one dialer. See
//     examples/tcp2proc.
//
// Unlike internal/simnet there are no modeled costs: SendControl's CPU
// charges are ignored, deliveries carry zero receiver cost, and IdleAt
// is estimated from the bytes queued on the rail and a measured
// throughput EWMA — the live analogue of the NIC busy horizon that
// drives the paper's Fig 2 rail selection.
package livenet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/railhealth"
	"repro/internal/rt"
)

// maxFrame bounds a single length-prefixed frame (1 GiB).
const maxFrame = 1 << 30

// prefixSize is the link framing before every frame: the head and body
// lengths, uint32 LE each (a one-slice frame is all head). Matches
// shmnet's.
const prefixSize = 8

// goodbye is the head-length sentinel a closing fabric writes on each
// connection so the peer can tell a graceful shutdown (no error) from a
// process death (abrupt EOF, recorded in Err).
const goodbye = 0xFFFFFFFF

// helloMagic opens every connection, followed by src, dst (uint16 LE)
// and the rail index (uint8).
var helloMagic = [4]byte{'N', 'M', 'T', 'R'}

const helloSize = 4 + 2 + 2 + 1

// initialRate seeds the per-rail throughput estimate (1 GiB/s) until
// real writes calibrate it.
const initialRate = float64(1 << 30)

// rateCalibMin is the smallest write that updates the throughput EWMA;
// tiny frames measure syscall latency, not bandwidth.
const rateCalibMin = 4 << 10

// throttleQueue is the standing-queue delay ThrottleRail charges per
// frame per unit of slow-down: a congested link delays even small
// frames (bufferbloat), which is what makes the throttle observable at
// every transfer size.
const throttleQueue = 100 * time.Microsecond

// Config describes a live TCP fabric.
type Config struct {
	// Nodes is the total number of nodes in the system (default 2).
	Nodes int
	// Rails is the number of parallel TCP rails per node pair (default 2).
	Rails int
	// CoresPerNode is the core count each node reports (default 4).
	CoresPerNode int
	// EagerMax is the largest eager payload a rail accepts; above it the
	// engine must use the rendezvous path (default 32 KiB).
	EagerMax int
	// ListenAddr is the address this process accepts rail connections on
	// (default "127.0.0.1:0", an ephemeral loopback port).
	ListenAddr string
	// Listener, when non-nil, is used instead of binding ListenAddr.
	// This lets a caller pre-bind an ephemeral port and publish its
	// address before the fabric starts accepting; the fabric takes
	// ownership and closes it.
	Listener net.Listener
	// Peers maps lower-id node ids to their listen addresses
	// (distributed mode only; node i dials every j < i).
	Peers map[int]string
	// DialTimeout bounds connection establishment, including retries
	// while a peer's listener is still coming up (default 10s).
	DialTimeout time.Duration
	// ReconnectAttempts bounds how often a dead link is re-established
	// before its rail is declared Down (default 3; negative disables
	// reconnection entirely). While attempts run the rail is Suspect and
	// receives no new work.
	ReconnectAttempts int
	// ReconnectDelay is the pause before each reconnect attempt
	// (default 100ms).
	ReconnectDelay time.Duration
}

func (c *Config) defaults() {
	if c.Nodes == 0 {
		c.Nodes = 2
	}
	if c.Rails == 0 {
		c.Rails = 2
	}
	if c.CoresPerNode == 0 {
		c.CoresPerNode = 4
	}
	if c.EagerMax == 0 {
		c.EagerMax = 32 << 10
	}
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 10 * time.Second
	}
	if c.ReconnectAttempts == 0 {
		c.ReconnectAttempts = 3
	}
	if c.ReconnectDelay <= 0 {
		c.ReconnectDelay = 100 * time.Millisecond
	}
}

func (c *Config) validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("livenet: need at least 2 nodes, got %d", c.Nodes)
	}
	if c.Rails < 1 {
		return fmt.Errorf("livenet: need at least 1 rail, got %d", c.Rails)
	}
	if c.Nodes > 1<<16 {
		return fmt.Errorf("livenet: node count %d exceeds the wire format", c.Nodes)
	}
	if c.Rails > 1<<8 {
		return fmt.Errorf("livenet: rail count %d exceeds the wire format", c.Rails)
	}
	return nil
}

// Fabric is a live TCP multirail fabric (implements fabric.Fabric).
type Fabric struct {
	env   *rt.LiveEnv
	cfg   Config
	local int // hosted node id; -1 when all nodes are hosted (loopback)
	nodes []*Node
	ln    net.Listener

	wg       sync.WaitGroup // readers, accept loop
	writers  sync.WaitGroup
	closedCh chan struct{}
	closed   atomic.Bool

	mu       sync.Mutex
	firstErr error
	conns    []net.Conn
}

// NewLoopback builds a fabric hosting all cfg.Nodes in this process,
// joined by real TCP connections through a listener on cfg.ListenAddr.
func NewLoopback(env *rt.LiveEnv, cfg Config) (*Fabric, error) {
	cfg.defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := newFabric(env, cfg, -1)
	if err := f.connectLoopback(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// NewDistributed builds a fabric hosting only node `local` in this
// process. It listens on cfg.ListenAddr for every higher-id peer and
// dials cfg.Peers[j] for every lower-id peer, blocking until the local
// node's full mesh share is connected.
func NewDistributed(env *rt.LiveEnv, local int, cfg Config) (*Fabric, error) {
	cfg.defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if local < 0 || local >= cfg.Nodes {
		return nil, fmt.Errorf("livenet: local node %d out of range [0,%d)", local, cfg.Nodes)
	}
	for j := 0; j < local; j++ {
		if cfg.Peers[j] == "" {
			return nil, fmt.Errorf("livenet: no peer address for lower-id node %d", j)
		}
	}
	f := newFabric(env, cfg, local)
	if err := f.connectDistributed(); err != nil {
		f.Close()
		return nil, err
	}
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
			n.killed = make([]bool, cfg.Rails)
			n.health.SetOnEnable(func(rail int) { f.enableRail(n, rail) })
			for r := 0; r < cfg.Rails; r++ {
				n.rails = append(n.rails, &Rail{
					node:  n,
					index: r,
					rate:  initialRate,
					links: make(map[int]*link),
					prof: &model.Profile{
						Name:          fmt.Sprintf("tcp-r%d", r),
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

// Env returns the wall-clock environment.
func (f *Fabric) Env() rt.Env { return f.env }

// NumNodes returns the total node count (hosted or not).
func (f *Fabric) NumNodes() int { return f.cfg.Nodes }

// NumRails returns the rail count.
func (f *Fabric) NumRails() int { return f.cfg.Rails }

// Node returns node i; in distributed mode non-hosted ids yield a stub
// that panics on rail or queue access.
func (f *Fabric) Node(i int) fabric.Node { return f.nodes[i] }

// LocalAddr returns the listener address (useful with the default
// ephemeral port). Empty if this fabric never listened.
func (f *Fabric) LocalAddr() string {
	if f.ln == nil {
		return ""
	}
	return f.ln.Addr().String()
}

// Err returns the first transport error observed, if any.
func (f *Fabric) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.firstErr
}

// Close tears the fabric down: listener and connections close, reader
// and writer goroutines join. Safe to call more than once.
func (f *Fabric) Close() error {
	if !f.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(f.closedCh)
	// A writer stuck mid-frame on a dead or partitioned peer would never
	// observe closedCh (it only checks between frames), so bound every
	// connection's in-flight write before joining the writers.
	f.mu.Lock()
	stuck := append([]net.Conn(nil), f.conns...)
	f.mu.Unlock()
	for _, c := range stuck {
		c.SetWriteDeadline(time.Now().Add(time.Second))
	}
	// Let every writer drain its queue and send the goodbye sentinel
	// before the connections go away, so peers see a graceful shutdown.
	f.writers.Wait()
	if f.ln != nil {
		f.ln.Close()
	}
	f.mu.Lock()
	conns := f.conns
	f.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	f.wg.Wait()
	return f.Err()
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

// track adopts a connection into the fabric's lifecycle, reserving its
// writer and reader WaitGroup slots. It refuses (returning false and
// closing the socket) when the fabric is closing: Close observes the
// closed flag under f.mu before it waits on the groups, so a racing
// reconnect can never Add after the Waits began — a WaitGroup misuse
// that panics.
func (f *Fabric) track(c net.Conn) bool {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	f.mu.Lock()
	if f.closed.Load() {
		f.mu.Unlock()
		c.Close()
		return false
	}
	f.conns = append(f.conns, c)
	f.wg.Add(1)
	f.writers.Add(1)
	f.mu.Unlock()
	return true
}

// listen binds the accept socket (or adopts a pre-bound one).
func (f *Fabric) listen() error {
	if f.cfg.Listener != nil {
		f.ln = f.cfg.Listener
		return nil
	}
	ln, err := net.Listen("tcp", f.cfg.ListenAddr)
	if err != nil {
		return fmt.Errorf("livenet: listen %s: %w", f.cfg.ListenAddr, err)
	}
	f.ln = ln
	return nil
}

// connectLoopback wires the full mesh through one local listener.
func (f *Fabric) connectLoopback() error {
	if err := f.listen(); err != nil {
		return err
	}
	expect := f.cfg.Nodes * (f.cfg.Nodes - 1) / 2 * f.cfg.Rails
	accepted := f.acceptN(expect)
	for i := 1; i < f.cfg.Nodes; i++ {
		for j := 0; j < i; j++ {
			for r := 0; r < f.cfg.Rails; r++ {
				if err := f.dialLink(f.ln.Addr().String(), i, j, r); err != nil {
					return err
				}
			}
		}
	}
	return f.waitAccepts(accepted, expect)
}

// connectDistributed wires this process's share of the mesh: accept from
// higher ids, dial lower ids.
func (f *Fabric) connectDistributed() error {
	expect := (f.cfg.Nodes - 1 - f.local) * f.cfg.Rails
	var accepted chan error
	if expect > 0 {
		if err := f.listen(); err != nil {
			return err
		}
		accepted = f.acceptN(expect)
	}
	for j := 0; j < f.local; j++ {
		for r := 0; r < f.cfg.Rails; r++ {
			if err := f.dialLink(f.cfg.Peers[j], f.local, j, r); err != nil {
				return err
			}
		}
	}
	return f.waitAccepts(accepted, expect)
}

// acceptN accepts and registers handshaking connections in the
// background, reporting initial-mesh completion (or the first startup
// error) on the returned channel. The loop then keeps accepting until
// the fabric closes, so a dead link's peer can re-dial and replace it —
// the accept half of rail recovery and hot-replug.
func (f *Fabric) acceptN(n int) chan error {
	done := make(chan error, 1)
	if n == 0 {
		done <- nil
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		remaining := n
		for {
			conn, err := f.ln.Accept()
			if err != nil {
				if remaining > 0 {
					done <- fmt.Errorf("livenet: accept: %w", err)
				}
				return // listener closed: fabric shutting down
			}
			if remaining > 0 {
				// Startup: the dialers are our own peers; a serial
				// handshake keeps the mesh bring-up simple.
				if err := f.acceptLink(conn); err != nil {
					conn.Close()
					done <- err
					return
				}
				remaining--
				if remaining == 0 {
					done <- nil
				}
				continue
			}
			// Post-startup (reconnects): handshake concurrently so a
			// stray client stuck in its hello cannot starve a real
			// re-dial past the recovery budget, and drop bad hellos
			// without poisoning Err — any TCP client can reach an open
			// listener, and that is not a fabric fault.
			f.wg.Add(1)
			go func(conn net.Conn) {
				defer f.wg.Done()
				if err := f.acceptLink(conn); err != nil {
					conn.Close()
				}
			}(conn)
		}
	}()
	return done
}

func (f *Fabric) waitAccepts(accepted chan error, expect int) error {
	if expect == 0 {
		return nil
	}
	select {
	case err := <-accepted:
		return err
	case <-time.After(f.cfg.DialTimeout):
		return errors.New("livenet: timed out waiting for rail connections")
	}
}

// dialLink connects src's rail r to dst at addr and registers the local
// endpoint on the hosted src node. It retries until DialTimeout so the
// dialer may start before the listener.
func (f *Fabric) dialLink(addr string, src, dst, r int) error {
	deadline := time.Now().Add(f.cfg.DialTimeout)
	var err error
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			if err == nil {
				err = errors.New("timed out")
			}
			return fmt.Errorf("livenet: dial %s (rail %d to node %d): %w", addr, r, dst, err)
		}
		// remain must stay positive: net.DialTimeout treats a
		// non-positive timeout as "no timeout" and could block for the
		// OS connect limit instead of our deadline.
		if err = f.dialOnce(addr, src, dst, r, remain); err == nil {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// dialOnce makes a single connection attempt and, on success, completes
// the hello handshake and registers the link.
func (f *Fabric) dialOnce(addr string, src, dst, r int, timeout time.Duration) error {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return err
	}
	var hello [helloSize]byte
	copy(hello[:], helloMagic[:])
	binary.LittleEndian.PutUint16(hello[4:], uint16(src))
	binary.LittleEndian.PutUint16(hello[6:], uint16(dst))
	hello[8] = uint8(r)
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return fmt.Errorf("livenet: hello to %s: %w", addr, err)
	}
	f.register(conn, src, dst, r)
	return nil
}

// acceptLink reads the hello and registers the connection on the hosted
// destination node.
func (f *Fabric) acceptLink(conn net.Conn) error {
	conn.SetReadDeadline(time.Now().Add(f.cfg.DialTimeout))
	var hello [helloSize]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return fmt.Errorf("livenet: reading hello: %w", err)
	}
	conn.SetReadDeadline(time.Time{})
	if [4]byte(hello[:4]) != helloMagic {
		return errors.New("livenet: bad hello magic")
	}
	src := int(binary.LittleEndian.Uint16(hello[4:]))
	dst := int(binary.LittleEndian.Uint16(hello[6:]))
	r := int(hello[8])
	if src >= f.cfg.Nodes || dst >= f.cfg.Nodes || r >= f.cfg.Rails {
		return fmt.Errorf("livenet: hello out of range: %d->%d rail %d", src, dst, r)
	}
	if !f.nodes[dst].hosted {
		return fmt.Errorf("livenet: hello for non-hosted node %d", dst)
	}
	f.register(conn, dst, src, r)
	return nil
}

// register installs conn as `owner`'s rail-r link to `peer` and starts
// its writer and reader goroutines. Replacing a dead link resamples the
// rail (the throughput EWMA restarts from scratch — a reconnected path
// may not perform like the old one) and reports it back Up.
func (f *Fabric) register(conn net.Conn, owner, peer, r int) {
	if !f.track(conn) {
		return // fabric closing: the socket was refused and closed
	}
	node := f.nodes[owner]
	rail := node.rails[r]
	l := &link{conn: conn, out: make(chan outFrame, 64), owner: owner, peer: peer, rail: r}
	rail.mu.Lock()
	prev := rail.links[peer]
	rail.links[peer] = l
	if prev != nil {
		rail.rate = initialRate // resample on the fresh connection
		rail.stats.Reconnects++
	}
	rail.mu.Unlock()
	go f.writeLoop(l)
	go f.readLoop(node, l)
	if prev != nil {
		f.mu.Lock()
		node.killed[r] = false
		f.mu.Unlock()
		node.health.Report(r, fabric.RailUp, "reconnected")
	}
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

// finish retires the frame: accounting first, then the completion
// event. wrote is the frame's full occupancy (throttle delay included);
// calib is the raw write duration the throughput EWMA calibrates on.
// written is false on the shutdown drop paths, so only frames that
// actually went to the wire count as rail traffic.
func (of *outFrame) finish(wrote, calib time.Duration, written bool) {
	of.rail.noteWritten(of.size(), wrote, calib, written)
	if of.done != nil {
		of.done.Fire()
	}
}

// link is one endpoint of the TCP connection joining a node pair on one
// rail.
type link struct {
	conn  net.Conn
	out   chan outFrame
	owner int // hosted node this endpoint belongs to
	peer  int // remote node of the connection
	rail  int
	dead  atomic.Bool // set by the first reader/writer observing death

	// scratch holds the head of a frame offered to the placer; only the
	// link's reader touches it.
	scratch [fabric.PlaceHeadMax]byte

	// The writer's per-frame storage, owned by the link so that nothing
	// escapes per frame: the frame being written (a short head's bytes live
	// in it), the length prefix, and the gather list handed to writev.
	cur    outFrame
	prefix [prefixSize]byte
	iov    [3][]byte
	bufs   net.Buffers
}

// writeLoop drains a link's queue onto its connection. Each frame is the
// length prefix, then head and body, gathered by one writev from their
// own slices — a rendezvous chunk goes from the caller's buffer to the
// socket uncopied — out of storage the link owns, so a frame allocates
// nothing. done events fire when the frame has been handed to
// the kernel — the live equivalent of "the DMA drained". Per-frame
// timestamps use internal/clock: two wall-clock reads per frame would
// be pure overhead on the engine's busiest loop.
//
//railvet:hotpath
func (f *Fabric) writeLoop(l *link) {
	defer f.writers.Done()
	for {
		select {
		case l.cur = <-l.out:
			of := &l.cur
			binary.LittleEndian.PutUint32(l.prefix[0:], uint32(of.head.Len()))
			binary.LittleEndian.PutUint32(l.prefix[4:], uint32(len(of.body)))
			start := clock.Now()
			writeStart := start
			if th := of.rail.throttleFactor(); th > 1 {
				// Chaos throttle: delay the frame BEFORE it reaches the
				// kernel so delivery itself slows down — the rail behaves
				// (and measures, end to end) like a congested link without
				// dying. The delay is the stretched transmission time plus
				// a standing-queue term (throttleQueue), the bufferbloat a
				// congested link shows even small frames.
				exp := float64(of.size()+prefixSize)/of.rail.currentRate() + throttleQueue.Seconds()
				time.Sleep(time.Duration(exp * (th - 1) * 1e9))
				writeStart = clock.Now()
			}
			l.iov = [3][]byte{l.prefix[:], of.head.Bytes(), of.body}
			l.bufs = l.iov[:] // WriteTo consumes the list, so rebuild it per frame
			_, err := l.bufs.WriteTo(l.conn)
			// The rate EWMA calibrates on the raw write only: folding the
			// throttle sleep in would shrink the rate, stretch the next
			// sleep, and spiral. Occupancy (took) keeps the full delay.
			end := clock.Now()
			calib, took := clock.Between(writeStart, end), clock.Between(start, end)
			// A failed write is not traffic: counting it would credit the
			// rail with bytes that never fully reached the wire, and its
			// near-instant failure duration would calibrate the rate EWMA
			// with a bogus multi-GB/s sample on a dying connection.
			of.finish(took, calib, err == nil)
			if err == nil {
				of.rail.node.observeWrite(l.peer, of.rail.index, of.size(), took)
			}
			l.iov, l.cur = [3][]byte{}, outFrame{} // drop the sender's buffers
			if err != nil {
				// Record the failure and kill the connection so both
				// ends' readers observe it instead of waiting on bytes
				// that will never arrive; then start rail recovery. The
				// engine re-plans the unacknowledged units of this rail
				// onto survivors once it goes Down.
				f.fail(fmt.Errorf("livenet: write: %w", err))
				l.conn.Close()
				f.linkDown(l, fmt.Sprintf("write error: %v", err), true)
			}
		case <-f.closedCh:
			// Drain pending frames, firing their events so no sender
			// waits on a dead link. A sender racing Close may still
			// enqueue after this drain sees the channel empty; SendDataV
			// re-drains in that case.
			drainLink(l)
			// Best-effort goodbye so the peer records no error for a
			// graceful shutdown (bounded: the fabric is going away).
			l.prefix = [prefixSize]byte{}
			binary.LittleEndian.PutUint32(l.prefix[:], goodbye)
			//railvet:ignore hotclock shutdown-only branch; SetWriteDeadline needs an absolute wall-clock time
			l.conn.SetWriteDeadline(time.Now().Add(250 * time.Millisecond))
			//nolint:errcheck // best-effort goodbye on a closing fabric: the deadline bounds it and any error means the peer is gone anyway
			l.conn.Write(l.prefix[:])
			return
		}
	}
}

// drainLink empties a dead link's queue, retiring every frame without
// writing it so no completion event is lost at shutdown.
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

// readLoop decodes length-prefixed frames from the link's connection for
// node (which received them from l.peer on l.rail). A frame with a body
// is first offered to the node's placer: if it names a destination the
// body is read from the socket straight into it and the placement is
// committed; otherwise — no placer, body-less frame, placement declined
// — head and body land in one buffer from the node's frame pool,
// delivered to the sink and recycled if the consumer releases it. Any
// read failure — including a goodbye-less EOF from a dying peer — aborts
// a placement under way and starts rail recovery.
//
//railvet:hotpath
func (f *Fabric) readLoop(node *Node, l *link) {
	defer f.wg.Done()
	conn, peer, r := l.conn, l.peer, l.rail
	var prefix [prefixSize]byte
	lost := func(err error) {
		if !f.closed.Load() {
			// A clean FIN (io.EOF) while we are not closing means the
			// peer died — the most common failure; record it so Err
			// explains a hung run instead of returning nil.
			f.fail(fmt.Errorf("livenet: node %d rail %d: connection lost: %w", peer, r, err))
			f.linkDown(l, fmt.Sprintf("connection to node %d lost: %v", peer, err), true)
		}
	}
	for {
		if _, err := io.ReadFull(conn, prefix[:]); err != nil {
			lost(err)
			return
		}
		hn := binary.LittleEndian.Uint32(prefix[0:])
		bn := binary.LittleEndian.Uint32(prefix[4:])
		if hn == goodbye {
			// Peer shut down gracefully: not an error, and not worth
			// reconnect attempts — the rail is gone on purpose.
			f.linkDown(l, fmt.Sprintf("node %d shut down", peer), false)
			return
		}
		if uint64(hn)+uint64(bn) > maxFrame {
			// Kill the connection so the peer's writer fails fast
			// instead of filling a socket nobody drains.
			f.fail(fmt.Errorf("livenet: frame of %d bytes exceeds limit", uint64(hn)+uint64(bn)))
			conn.Close()
			f.linkDown(l, "oversized frame", false)
			return
		}
		var head, dst []byte
		var placed func(ok bool)
		if place := node.placer.Load(); place != nil && bn > 0 && hn <= fabric.PlaceHeadMax {
			head = l.scratch[:hn]
			if _, err := io.ReadFull(conn, head); err != nil {
				lost(err)
				return
			}
			dst, placed = (*place)(peer, r, head, int(bn))
		}
		var d *fabric.Delivery
		if dst == nil {
			d = node.frames.Get(int(hn + bn))
			dst = d.Data[copy(d.Data, head):]
		}
		if _, err := io.ReadFull(conn, dst); err != nil {
			if placed != nil {
				placed(false)
			}
			lost(err)
			return
		}
		if placed != nil {
			placed(true)
			continue
		}
		d.From, d.Rail, d.SentAt = peer, r, f.env.Now()
		node.deliver(d)
	}
}

// linkDown reacts (once per link) to a dead connection: the rail turns
// Suspect while bounded reconnect attempts run, then Down if they fail;
// rails killed by FailRail or dead on purpose go straight Down.
func (f *Fabric) linkDown(l *link, reason string, recover bool) {
	if !l.dead.CompareAndSwap(false, true) {
		return
	}
	if f.closed.Load() {
		return
	}
	node := f.nodes[l.owner]
	if !recover || f.cfg.ReconnectAttempts < 0 || f.railKilled(l.owner, l.rail) {
		node.health.Report(l.rail, fabric.RailDown, reason)
		return
	}
	if node.health.Report(l.rail, fabric.RailSuspect, reason) {
		f.goReconnect(node, l, reason)
	}
}

// goReconnect runs the bounded reconnect-and-resample loop for one dead
// link. The dialing side of the pair (higher node id, mirroring the
// initial mesh) re-dials; the accepting side waits for the peer to
// re-dial through the persistent accept loop. Success re-registers the
// link (register reports Up and resets the rate estimate); exhaustion
// reports Down, which triggers the engine's re-planning.
func (f *Fabric) goReconnect(node *Node, l *link, reason string) {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		rail := node.rails[l.rail]
		addr := f.peerAddr(l.peer)
		for a := 0; a < f.cfg.ReconnectAttempts; a++ {
			select {
			case <-f.closedCh:
				return
			case <-time.After(f.cfg.ReconnectDelay):
			}
			if f.railKilled(node.id, l.rail) {
				return
			}
			if rail.link(l.peer) != l {
				return // accept side already replaced it
			}
			if node.id > l.peer && addr != "" {
				if err := f.dialOnce(addr, node.id, l.peer, l.rail, f.cfg.ReconnectDelay+time.Second); err == nil {
					return
				}
			}
		}
		if rail.link(l.peer) == l {
			node.health.Report(l.rail, fabric.RailDown,
				fmt.Sprintf("%s; %d reconnect attempts failed", reason, f.cfg.ReconnectAttempts))
		}
	}()
}

// peerAddr returns the address to re-dial a peer at, or "" when this
// side cannot dial it (accepting side of a distributed pair).
func (f *Fabric) peerAddr(peer int) string {
	if f.local < 0 {
		if f.ln == nil {
			return ""
		}
		return f.ln.Addr().String() // loopback: everything via our listener
	}
	return f.cfg.Peers[peer]
}

func (f *Fabric) railKilled(node, rail int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nodes[node].killed[rail]
}

// FailRail hard-kills rail r as a chaos hook: the NIC is declared dead,
// reconnection is suppressed on every hosted endpoint of the lane, and
// the rail's TCP connections are closed abruptly (no goodbye) so peers
// observe a genuine mid-message death.
func (f *Fabric) FailRail(node, rail int) {
	f.mu.Lock()
	for _, n := range f.nodes {
		if n.hosted {
			n.killed[rail] = true
		}
	}
	f.mu.Unlock()
	// Closing any hosted endpoint of the lane kills the TCP connection
	// for both ends; close every hosted one so the kill also works when
	// `node` is a remote id (distributed mode).
	for _, hn := range f.nodes {
		if !hn.hosted {
			continue
		}
		r := hn.rails[rail]
		r.mu.Lock()
		conns := make([]net.Conn, 0, len(r.links))
		for _, l := range r.links {
			conns = append(conns, l.conn)
		}
		r.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}
	reason := fmt.Sprintf("rail %d killed", rail)
	for _, hn := range f.nodes {
		if hn.hosted {
			hn.health.Report(rail, fabric.RailDown, reason)
		}
	}
}

// ThrottleRail artificially slows rail r on every hosted node by
// `factor` (10 = every write takes ten times as long); factor <= 1
// removes the throttle. Unlike FailRail the rail stays Up — this is the
// congestion chaos hook the adaptive-telemetry subsystem is tested
// against: the drift detector must notice the slowdown from live
// measurements and the strategies must migrate work off the rail
// without a health transition. Implements fabric.Throttler.
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

// DropLink abruptly severs one TCP connection (owner side) without
// suppressing recovery: the transport notices, turns the rail Suspect
// and re-establishes it within the bounded reconnect budget. Test hook
// for the recovery path.
func (f *Fabric) DropLink(node, peer, rail int) {
	n := f.nodes[node]
	if !n.hosted {
		return
	}
	if l := n.rails[rail].link(peer); l != nil {
		l.conn.Close()
	}
}

// enableRail is the tracker's OnEnable hook: clear the kill flag and
// re-establish any dead dialing-side links of the rail.
func (f *Fabric) enableRail(n *Node, rail int) {
	f.mu.Lock()
	n.killed[rail] = false
	f.mu.Unlock()
	r := n.rails[rail]
	r.mu.Lock()
	var deads []*link
	for _, l := range r.links {
		if l.dead.Load() {
			deads = append(deads, l)
		}
	}
	r.mu.Unlock()
	for _, l := range deads {
		f.goReconnect(n, l, "re-enabled")
	}
}

// Node is one endpoint of the live fabric.
type Node struct {
	f      *Fabric
	id     int
	hosted bool
	rails  []*Rail
	recvq  rt.Queue
	health *railhealth.Tracker
	killed []bool // reconnection suppressed (FailRail); guarded by f.mu

	// frames recycles the contiguous receive frames consumers release.
	frames fabric.FramePool

	sinkMu sync.RWMutex
	sink   func(*fabric.Delivery)
	// placer is read once per frame by every connection reader; a pointer
	// swap keeps SetPlacer from waiting behind a body still on the wire.
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
// sink: every sufficiently large frame written to the wire is reported
// with its real write duration, feeding the live per-(peer, rail)
// bandwidth estimates. Small frames are skipped — they measure syscall
// latency, not the rail (the engine's ack path supplies the latency
// observations). Panics on a non-hosted node.
func (n *Node) SetTelemetry(t fabric.Telemetry) {
	n.mustHost()
	n.teleMu.Lock()
	n.tele = t
	n.teleMu.Unlock()
}

// observeWrite reports one completed frame write to the telemetry sink,
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

// SetSink installs a direct delivery consumer: subsequent deliveries are
// handed to fn on the connection reader goroutine that decoded them,
// bypassing RecvQ — this is how the multicore progression subsystem has
// livenet feed its worker pool directly. Deliveries already queued in
// RecvQ are drained through fn first, atomically with the handoff: in a
// distributed deployment the peer process can start sending while this
// process is still sampling, and those early frames must not be
// stranded in the queue (nor overtaken by later direct deliveries).
// fn must not block. SetSink(nil) restores queue delivery. Panics on a
// non-hosted node.
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
		panic(fmt.Sprintf("livenet: node %d is not hosted by this process", n.id))
	}
}

// Rail is one TCP lane of a node: links to every peer plus traffic
// accounting for the engine's idle-horizon prediction.
type Rail struct {
	node  *Node
	index int
	prof  *model.Profile

	mu      sync.Mutex
	links   map[int]*link
	pending int64   // bytes queued but not yet written
	rate    float64 // EWMA write throughput, bytes/second
	stats   fabric.Stats

	// throttle > 1 slows the rail artificially (chaos hook): each write
	// is stretched to factor times its real duration. Float64 bits; 0
	// means no throttle.
	throttle atomic.Uint64
}

// currentRate returns the rail's throughput EWMA (bytes/second).
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

// link returns the current link to peer (nil before registration).
func (r *Rail) link(peer int) *link {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.links[peer]
}

// State returns the rail's health state.
func (r *Rail) State() fabric.RailState { return r.node.health.State(r.index) }

// Stats returns a snapshot of the traffic counters.
func (r *Rail) Stats() fabric.Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// IdleAt predicts when the rail's queued bytes will have been written,
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

// Busy reports whether the rail has queued unwritten bytes.
func (r *Rail) Busy() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pending > 0
}

// SendEager transmits an eager container: the frame is queued on the
// rail's TCP link to `to` (blocking briefly if the link is backed up —
// the live analogue of the PIO copy occupying the core).
func (r *Rail) SendEager(ctx rt.Ctx, to int, data []byte) {
	r.SendDataV(ctx, to, data, nil, nil)
}

// SendControl transmits a control message. The modeled CPU costs are
// ignored: real costs elapse on their own.
func (r *Rail) SendControl(ctx rt.Ctx, to int, data []byte, cpuCost, recvCost time.Duration) {
	r.SendDataV(ctx, to, data, nil, nil)
}

// SendData streams a rendezvous chunk; done fires when the frame has
// been written to the socket and the sender may reuse the buffer.
func (r *Rail) SendData(ctx rt.Ctx, to int, data []byte, done fabric.Completion) {
	r.SendDataV(ctx, to, data, nil, done)
}

// SendDataV queues head and body as one frame; the writer gathers them
// with writev, so the body — and a head longer than fabric.PlaceHeadMax
// — stay aliased until done fires. A shorter head is copied here.
//
//railvet:hotpath
func (r *Rail) SendDataV(ctx rt.Ctx, to int, head, body []byte, done fabric.Completion) {
	r.post(to, outFrame{head: fabric.MakeHead(head), body: body, done: done, rail: r}, true)
}

// TrySend queues a body-less frame if the link's queue has a free slot
// (fabric.TrySender). Every frame still goes through the writer: a socket
// write can block, and nothing tells beforehand.
//
//railvet:hotpath
func (r *Rail) TrySend(to int, data []byte) bool {
	return r.post(to, outFrame{head: fabric.MakeHead(data), rail: r}, false)
}

// post is SendDataV; with wait false it refuses (false, nothing done)
// instead of waiting for a slot in a full link queue.
func (r *Rail) post(to int, of outFrame, wait bool) bool {
	if of.size() > maxFrame {
		// Refuse at the source: a larger frame would be rejected by the
		// receiver (or wrap the uint32 prefix past 4 GiB and desync the
		// stream). Mirrors simnet's MaxMsg panic.
		panic(fmt.Sprintf("livenet: frame of %d bytes exceeds the %d-byte limit", of.size(), maxFrame))
	}
	r.mu.Lock()
	l := r.links[to]
	if l == nil {
		r.mu.Unlock()
		panic(fmt.Sprintf("livenet: node %d has no rail-%d link to node %d", r.node.id, r.index, to))
	}
	// Messages/Bytes are counted when the frame is actually written
	// (noteWritten), so traffic dropped at shutdown is not overstated.
	r.pending += int64(of.size()) + prefixSize
	r.stats.LastStart = r.node.f.env.Now()
	r.mu.Unlock()
	f := r.node.f
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
	// If the fabric closed while we enqueued, the writer's final drain may
	// already have run and exited; reclaim anything stranded so completion
	// events still fire.
	if f.closed.Load() {
		drainLink(l)
	}
	return true
}

// noteWritten retires n queued bytes, counts the frame as traffic when
// it actually went to the wire, and folds the raw write duration
// (calib) into the throughput estimate. took additionally includes any
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
