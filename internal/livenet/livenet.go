// Package livenet implements the fabric contract over real TCP
// connections: every rail of every node pair is its own TCP connection,
// so a multirail cluster genuinely moves bytes over parallel transport
// lanes (loopback or real hosts) on the wall clock.
//
// Layout: for a system of N nodes with R rails there are C(N,2)*R
// connections; the connection between nodes i and j on rail r carries
// traffic in both directions. This package holds only what is TCP about
// that: dialing, accepting, the hello handshake, reconnection, and a
// net.Conn transport. Everything a frame meets above the socket — the
// link queue and writer, length-prefixed framing, placement, delivery —
// is the rail core's (internal/railcore), shared with shmnet: a reader
// goroutine per connection decodes frames and hands each to the engine's
// sink on that goroutine (fabric.DirectNode), or to the node's RecvQ
// while no sink is installed.
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
// Unlike internal/simnet there is no cost model: what a frame costs
// elapses on the wall clock, deliveries carry zero receiver cost, and
// IdleAt is estimated from the bytes queued on the rail and a measured
// throughput EWMA — the live analogue of the NIC busy horizon that
// drives the paper's Fig 2 rail selection. Each node reports the host's
// cores.
package livenet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/railcore"
	"repro/internal/rt"
)

// helloMagic opens every connection, followed by src, dst (uint16 LE)
// and the rail index (uint8).
var helloMagic = [4]byte{'N', 'M', 'T', 'R'}

const helloSize = 4 + 2 + 2 + 1

// initialRate seeds the per-rail throughput estimate (1 GiB/s) until
// real writes calibrate it.
const initialRate = float64(1 << 30)

// Config describes a live TCP fabric.
type Config struct {
	// Nodes is the total number of nodes in the system (default 2).
	Nodes int
	// Rails is the number of parallel TCP rails per node pair (default 2).
	Rails int
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

// Fabric is a live TCP multirail fabric (implements fabric.Fabric): the
// rail core over one connection per link.
type Fabric struct {
	*railcore.Fabric
	cfg   Config
	local int // hosted node id; -1 when all nodes are hosted (loopback)
	ln    net.Listener

	wg sync.WaitGroup // accept loop, handshakes, reconnects

	mu    sync.Mutex
	conns []net.Conn // the current links' connections
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
	f := &Fabric{cfg: cfg, local: local}
	f.Fabric = railcore.New(env, railcore.Config{
		Name: "livenet", Kind: "tcp",
		Nodes: cfg.Nodes, Rails: cfg.Rails, EagerMax: cfg.EagerMax,
		Local: local, Rate: initialRate,
		LinkLost: f.linkLost, RailEnabled: f.enableRail,
	})
	return f
}

// LocalAddr returns the listener address (useful with the default
// ephemeral port). Empty if this fabric never listened.
func (f *Fabric) LocalAddr() string {
	if f.ln == nil {
		return ""
	}
	return f.ln.Addr().String()
}

// Close tears the fabric down: writers drain and say goodbye (every
// in-flight write bounded by a deadline, so a dead or partitioned peer
// cannot hold it), then the listener and connections close and readers,
// accept loop and reconnects join. Safe to call more than once.
func (f *Fabric) Close() error {
	err := f.Fabric.Close(func() {
		if f.ln != nil {
			f.ln.Close()
		}
		f.mu.Lock()
		conns := f.conns
		f.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	f.wg.Wait()
	return err
}

// track adopts a connection into the fabric's lifecycle. It refuses
// (returning false and closing the socket) when the fabric is closing:
// Close closes the tracked connections once, after its writers joined,
// and an untracked one would keep its reader blocked forever.
func (f *Fabric) track(c net.Conn) bool {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.Closed() {
		c.Close()
		return false
	}
	f.conns = append(f.conns, c)
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
	if f.local >= 0 && dst != f.local {
		return fmt.Errorf("livenet: hello for non-hosted node %d", dst)
	}
	f.register(conn, dst, src, r)
	return nil
}

// register installs conn as `owner`'s rail-r link to `peer`. A dead link
// it replaces leaves with its connection: the core retires its writer
// (the engine replays what was queued), the socket is closed and no
// longer tracked, and the rail — resampled, its kill flag cleared — is
// reported Up again.
func (f *Fabric) register(c net.Conn, owner, peer, r int) {
	if !f.track(c) {
		return // fabric closing: the socket was refused and closed
	}
	prev, ok := f.AddLink(owner, peer, r, &conn{c: c})
	if !ok || prev == nil {
		return // a refused conn stays tracked: Close closes it
	}
	old := prev.Transport().(*conn).c
	f.mu.Lock()
	f.conns = slices.DeleteFunc(f.conns, func(x net.Conn) bool { return x == old })
	f.mu.Unlock()
	old.Close()
}

// linkLost reacts (once per link) to a failed connection: it is closed,
// so both ends' readers observe the failure instead of waiting on bytes
// that will never arrive; the rail turns Suspect while bounded reconnect
// attempts run, then Down if they fail; rails killed by FailRail, or dead
// on purpose, go straight Down.
func (f *Fabric) linkLost(l *railcore.Link, reason string, recoverable bool) {
	l.Transport().(*conn).c.Close()
	if !recoverable || f.cfg.ReconnectAttempts < 0 || l.Killed() {
		l.Report(fabric.RailDown, reason)
		return
	}
	if l.Report(fabric.RailSuspect, reason) {
		f.goReconnect(l, reason)
	}
}

// goReconnect runs the bounded reconnect-and-resample loop for one dead
// link. The dialing side of the pair (higher node id, mirroring the
// initial mesh) re-dials; the accepting side waits for the peer to
// re-dial through the persistent accept loop. Success re-registers the
// link (the core reports Up and resets the rate estimate); exhaustion
// reports Down, which triggers the engine's re-planning.
func (f *Fabric) goReconnect(l *railcore.Link, reason string) {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		n, r, peer := l.Node(), l.Rail(), l.Peer()
		addr := f.peerAddr(peer)
		for a := 0; a < f.cfg.ReconnectAttempts; a++ {
			select {
			case <-f.Closing():
				return
			case <-time.After(f.cfg.ReconnectDelay):
			}
			if l.Killed() {
				return
			}
			if f.Link(n, r, peer) != l {
				return // accept side already replaced it
			}
			if n > peer && addr != "" {
				if err := f.dialOnce(addr, n, peer, r, f.cfg.ReconnectDelay+time.Second); err == nil {
					return
				}
			}
		}
		l.Report(fabric.RailDown, fmt.Sprintf("%s; %d reconnect attempts failed", reason, f.cfg.ReconnectAttempts))
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

// FailRail hard-kills rail r as a chaos hook: the NIC is declared dead,
// reconnection is suppressed on every hosted endpoint of the lane, and
// the rail's TCP connections are closed abruptly (no goodbye) so peers
// observe a genuine mid-message death. Closing any hosted endpoint of
// the lane kills the connection for both ends; every hosted one is
// closed so the kill also works when `node` is a remote id.
func (f *Fabric) FailRail(node, rail int) {
	f.Kill(rail, func(l *railcore.Link) { l.Transport().(*conn).c.Close() })
}

// DropLink abruptly severs one TCP connection (owner side) without
// suppressing recovery: the transport notices, turns the rail Suspect
// and re-establishes it within the bounded reconnect budget. Test hook
// for the recovery path.
func (f *Fabric) DropLink(node, peer, rail int) {
	if l := f.Link(node, rail, peer); l != nil {
		l.Transport().(*conn).c.Close()
	}
}

// enableRail is the tracker's OnEnable hook (the core cleared the kill
// flag): re-establish the rail's dead links.
func (f *Fabric) enableRail(r *railcore.Rail) {
	for _, l := range r.Links() {
		if l.Dead() {
			f.goReconnect(l, "re-enabled")
		}
	}
}

// conn is the transport of one link: a TCP connection, written with one
// writev per frame from storage it owns.
type conn struct {
	c    net.Conn
	iov  [3][]byte
	bufs net.Buffers
}

// WriteV gathers prefix, head and body with one writev — a rendezvous
// chunk goes from the caller's buffer to the socket uncopied.
//
//railvet:hotpath
func (t *conn) WriteV(prefix, head, body []byte) error {
	t.iov = [3][]byte{prefix, head, body}
	t.bufs = t.iov[:] // WriteTo consumes the list, so rebuild it per frame
	_, err := t.bufs.WriteTo(t.c)
	t.iov = [3][]byte{} // drop the sender's buffers
	return err
}

// Read fills dst from the socket.
//
//railvet:hotpath
func (t *conn) Read(dst []byte, _ bool) error {
	_, err := io.ReadFull(t.c, dst)
	return err
}

// PeerKilled is false: a TCP lane carries no kill word — FailRail closes
// the connection.
func (t *conn) PeerKilled() bool { return false }

// Goodbye writes the goodbye frame under a short deadline (best effort:
// the fabric is going away).
func (t *conn) Goodbye(frame []byte) {
	t.c.SetWriteDeadline(time.Now().Add(250 * time.Millisecond))
	//nolint:errcheck // best-effort goodbye on a closing fabric: the deadline bounds it and any error means the peer is gone anyway
	t.c.Write(frame)
}

// Unblock bounds a write stuck mid-frame on a dead or partitioned peer,
// which would otherwise never let its writer see the close.
func (t *conn) Unblock() { t.c.SetWriteDeadline(time.Now().Add(time.Second)) }
