// Package simnet implements the modeled multirail cluster fabric: nodes
// equipped with several heterogeneous NICs (rails), each governed by an
// analytic performance model (internal/model). It is the fabric.Fabric
// implementation that substitutes for the paper's two dual dual-core
// Opteron nodes with Myri-10G and QsNetII rails (DESIGN.md §2);
// internal/livenet is its real-TCP sibling.
//
// The fabric runs on the virtual clock of rt.SimEnv only: every cost
// elapses in virtual time, each NIC send engine is one of the simulator's
// counted resources, and results are deterministic. It is the one fabric
// that models costs, so it charges them itself — the engine above only
// posts frames.
//
// Cost semantics (matching internal/model):
//
//   - Eager/PIO sends are CPU-bound: SendEager blocks its calling actor —
//     a core — for SendOverhead + n/EagerRate while holding the NIC send
//     engine, then the message arrives WireLatency later. Two eager sends
//     from one core serialise on the core; two on one rail serialise on
//     the NIC engine. This is the serialisation that makes the paper's
//     greedy balancing lose (Fig 3/4a).
//   - Rendezvous data is DMA: SendData blocks only for the descriptor
//     post, then the NIC engine streams the payload at WireBandwidth
//     without consuming CPU; delivery is cut-through (the last byte lands
//     as DMA completes).
//   - Control messages arrive WireLatency later and cost what the protocol
//     costs, read from the frame's wire kind (SendControl): an RTS charges
//     SendOverhead to its sender and RecvOverhead to its receiver, a CTS
//     half the RdvHandshakeCPU to each side, an ack nothing.
//
// Every rail maintains a busy-until horizon so that strategies can ask
// "when will this NIC become idle?" — the prediction driving Fig 2.
package simnet

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/railhealth"
	"repro/internal/rt"
	"repro/internal/wire"
)

// Config describes a cluster.
type Config struct {
	// Nodes is the number of nodes (>= 2 for any communication).
	Nodes int
	// Rails lists one profile per rail; every node gets one NIC per rail.
	Rails []*model.Profile
	// CoresPerNode is the number of cores each node exposes to the
	// communication system (the paper's testbed has 4).
	CoresPerNode int
}

func (c *Config) validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("simnet: need at least 1 node, got %d", c.Nodes)
	}
	if len(c.Rails) == 0 {
		return fmt.Errorf("simnet: need at least one rail")
	}
	for _, p := range c.Rails {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	if c.CoresPerNode < 1 {
		return fmt.Errorf("simnet: need at least 1 core per node, got %d", c.CoresPerNode)
	}
	return nil
}

// Cluster is a set of nodes joined by parallel rails.
type Cluster struct {
	Nodes []*Node

	env *rt.SimEnv
	cfg Config
}

// New builds a cluster on the simulator's virtual clock. It returns an
// error for invalid configurations.
func New(env *rt.SimEnv, cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Cluster{env: env, cfg: cfg}
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{cluster: c, health: railhealth.New(env, i, len(cfg.Rails))}
		n.Init(i, env.NewQueue(), n.health)
		for r, prof := range cfg.Rails {
			n.Rails = append(n.Rails, &Rail{
				node:   n,
				index:  r,
				prof:   prof,
				engine: env.NewResource(1),
			})
		}
		c.Nodes = append(c.Nodes, n)
	}
	return c, nil
}

// Env returns the execution environment the cluster runs on.
func (c *Cluster) Env() rt.Env { return c.env }

// NumNodes returns the number of nodes.
func (c *Cluster) NumNodes() int { return len(c.Nodes) }

// Node returns node i as a fabric endpoint.
func (c *Cluster) Node(i int) fabric.Node { return c.Nodes[i] }

// NumRails returns the number of rails (fabric.Fabric).
func (c *Cluster) NumRails() int { return len(c.cfg.Rails) }

// Close is a no-op: the modeled fabric holds no transport resources.
func (c *Cluster) Close() error { return nil }

// FailRail injects a deterministic rail fault: at virtual time `at` the
// lane is declared dead cluster-wide — rail r goes Down on every node,
// exactly as every peer of a dying NIC observes its link break — and any
// frame still in flight on that rail at `at` is lost. node names the
// failing NIC's owner (recorded in the event reason); the loss itself is
// pairwise, so all trackers transition. Failover is therefore testable
// in virtual time: schedule the fault mid-transfer and the engines
// re-plan unacknowledged work onto the surviving rails.
func (c *Cluster) FailRail(node, rail int, at time.Duration) {
	reason := fmt.Sprintf("fault injection: NIC %d/%d died", node, rail)
	rt.AfterFunc(c.env, at, func() {
		for _, n := range c.Nodes {
			n.health.Report(rail, fabric.RailDown, reason)
		}
	})
}

// ThrottleRail artificially multiplies rail r's modeled transfer costs
// by `factor` on every node (10 = ten times slower); factor <= 1
// removes the throttle. The rail stays Up: this is the deterministic
// congestion chaos hook mirroring the live rails', for testing the
// adaptive feedback loop in virtual time.
func (c *Cluster) ThrottleRail(rail int, factor float64) {
	if factor <= 1 {
		factor = 0
	}
	for _, n := range c.Nodes {
		if rail >= 0 && rail < len(n.Rails) {
			r := n.Rails[rail]
			r.mu.Lock()
			r.slow = factor
			r.mu.Unlock()
		}
	}
}

// Node is one cluster node: a set of NICs and its fabric.Inbox — the
// sink its frames land in at the virtual instant they arrive (the engine's
// dispatch onto its progress workers) and the telemetry their modeled
// timings feed, so the adaptive-telemetry subsystem sees the same
// deterministic timings the estimates were sampled from. SetPlacer is the
// inbox's no-op: the model moves every frame whole.
type Node struct {
	fabric.Inbox
	Rails []*Rail

	cluster *Cluster
	health  *railhealth.Tracker
}

// NumRails returns the number of NICs of the node.
func (n *Node) NumRails() int { return len(n.Rails) }

// Rail returns the i-th NIC of the node.
func (n *Node) Rail(i int) fabric.Rail { return n.Rails[i] }

// Cores returns the node's core count.
func (n *Node) Cores() int { return n.cluster.cfg.CoresPerNode }

// Rail is one NIC: a send engine serialised by a capacity-1 resource and
// an analytic cost model.
type Rail struct {
	node   *Node
	index  int
	prof   *model.Profile
	engine *rt.Resource

	mu        sync.Mutex
	busyUntil time.Duration
	lastStart time.Duration
	stats     fabric.Stats
	slow      float64 // throttle factor; 0 or 1 = none (chaos hook)
}

// slowFactor returns the active throttle multiplier (1 when none).
func (r *Rail) slowFactor() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.slow > 1 {
		return r.slow
	}
	return 1
}

// Index returns the rail number.
func (r *Rail) Index() int { return r.index }

// Caps returns the rail's kind — its profile's name — and the profile's
// limits.
func (r *Rail) Caps() fabric.Caps {
	return fabric.Caps{Kind: r.prof.Name, EagerMax: r.prof.EagerMax, MaxMsg: r.prof.MaxMsg}
}

// State returns the rail's health state.
func (r *Rail) State() fabric.RailState { return r.node.health.State(r.index) }

// Stats returns a snapshot of the traffic counters.
func (r *Rail) Stats() fabric.Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// LastStart returns the modeled instant the NIC's send engine starts the
// transfer posted last.
func (r *Rail) LastStart() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastStart
}

// IdleAt predicts when the NIC's send engine will have drained all posted
// work: now if idle, otherwise the modeled end of the queued transfers.
// This is the knowledge Fig 2's NIC selection relies on.
func (r *Rail) IdleAt(now time.Duration) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.busyUntil < now {
		return now
	}
	return r.busyUntil
}

// note reserves the send engine's model time for a transfer of the given
// occupancy and records counters.
func (r *Rail) note(occupancy time.Duration, bytes int) {
	now := r.node.cluster.env.Now()
	r.mu.Lock()
	if r.busyUntil < now {
		r.busyUntil = now
	}
	r.lastStart = r.busyUntil
	r.busyUntil += occupancy
	r.stats.Messages++
	r.stats.Bytes += uint64(bytes)
	r.stats.BusyTime += occupancy
	r.mu.Unlock()
}

// own applies the fabric contract on short heads: a head of at most
// fabric.PlaceHeadMax bytes is copied when it is posted, so the engine may
// encode it in scratch it reuses as soon as the send call returns.
func own(head []byte) []byte {
	if len(head) > fabric.PlaceHeadMax {
		return head
	}
	return append([]byte(nil), head...)
}

func (r *Rail) deliver(to int, d *fabric.Delivery, after time.Duration) {
	c := r.node.cluster
	dst := c.Nodes[to]

	// The frame lands only if the lane is still alive when the last byte
	// arrives: a NIC that dies (FailRail) or is unplugged mid-flight —
	// on either end — takes the frame with it. This is the loss the
	// engine's ack-and-replan machinery recovers from.
	push := func() {
		if r.State() == fabric.RailDown || dst.health.State(r.index) == fabric.RailDown {
			return
		}
		dst.Deliver(d)
	}
	if after <= 0 {
		push()
		return
	}
	c.env.After(after, push)
}

// SendEager transmits an eager (PIO) message. It blocks the calling actor
// — which models the submitting core — for the whole host-side copy, then
// schedules delivery one wire latency later. The payload slice is aliased,
// not copied; callers must not reuse it before completion.
func (r *Rail) SendEager(ctx rt.Ctx, to int, data []byte) {
	p := r.prof
	if p.MaxMsg > 0 && len(data) > p.MaxMsg {
		panic(fmt.Sprintf("simnet: eager message of %d bytes exceeds %s MaxMsg %d", len(data), p.Name, p.MaxMsg))
	}
	cpu := time.Duration(float64(p.SendCPUTime(model.Eager, len(data))) * r.slowFactor())
	// Reserve the engine's model time before queueing on it so that
	// IdleAt sees posted-but-not-yet-started work.
	r.note(cpu, len(data))
	r.engine.Acquire(ctx)
	ctx.Sleep(cpu)
	r.engine.Release()
	r.deliver(to, &fabric.Delivery{
		From:    r.node.ID(),
		Rail:    r.index,
		Data:    own(data),
		RecvCPU: p.RecvOverhead,
		CopyCPU: durPerByte(len(data), p.RecvCopyRate),
	}, p.WireLatency)
	r.node.Observe(to, r.index, len(data), cpu+p.WireLatency)
}

// SendControl transmits a small control message (RTS/CTS/Ack), charging
// the protocol costs of the frame's wire kind: the caller's core is
// occupied for the send side, and the receiver is charged the receive
// side before its handler runs. Control messages do not occupy the send
// engine measurably (they ride the NIC's command queue).
func (r *Rail) SendControl(ctx rt.Ctx, to int, data []byte) {
	send, recv := r.controlCosts(data)
	ctx.Sleep(send)
	r.deliver(to, &fabric.Delivery{
		From:    r.node.ID(),
		Rail:    r.index,
		Data:    own(data),
		RecvCPU: recv,
	}, r.prof.WireLatency)
}

// controlCosts returns what a control frame costs its sender's core and
// its receiver's: an RTS is a message post on each side, the CTS answer
// splits the handshake's CPU cost between them, an ack rides for free.
func (r *Rail) controlCosts(frame []byte) (send, recv time.Duration) {
	if len(frame) == 0 {
		return 0, 0
	}
	p := r.prof
	switch wire.Kind(frame[0]) {
	case wire.KindRTS:
		return p.SendOverhead, p.RecvOverhead
	case wire.KindCTS:
		return p.RdvHandshakeCPU / 2, p.RdvHandshakeCPU / 2
	}
	return 0, 0
}

// SendData streams a rendezvous chunk via DMA. The calling core is blocked
// only for the descriptor post (SendOverhead); the DMA itself runs as a
// separate actor holding the NIC send engine for n/WireBandwidth. done is
// fired when the DMA drains (the sender may then reuse the buffer);
// delivery is cut-through, so the receiver sees the message at the same
// instant.
func (r *Rail) SendData(ctx rt.Ctx, to int, data []byte, done fabric.Completion) {
	r.SendDataV(ctx, to, data, nil, done)
}

// SendDataV is SendData for a frame given as head+body. The model has no
// gather DMA to exercise: the two are coalesced into the one frame of
// the same length a contiguous send would have carried, so every modeled
// cost — and every paper figure — is unchanged.
func (r *Rail) SendDataV(ctx rt.Ctx, to int, head, body []byte, done fabric.Completion) {
	var data []byte
	if len(body) > 0 {
		data = append(append(make([]byte, 0, len(head)+len(body)), head...), body...)
	} else {
		data = own(head)
	}
	c := r.node.cluster
	p := r.prof
	ctx.Sleep(p.SendOverhead)
	dma := time.Duration(float64(durPerByte(len(data), p.WireBandwidth)) * r.slowFactor())
	r.note(dma, len(data))
	c.env.Go(fmt.Sprintf("dma-n%d-r%d", r.node.ID(), r.index), func(dctx rt.Ctx) {
		r.engine.Acquire(dctx)
		dctx.Sleep(dma)
		r.engine.Release()
		r.deliver(to, &fabric.Delivery{
			From: r.node.ID(),
			Rail: r.index,
			Data: data,
		}, 0)
		if done != nil {
			done.Fire()
		}
		// One-way cost of the DMA path: descriptor post plus the
		// (cut-through) transfer — matching what the sampled priors
		// measure, and consistent with the eager path's cpu+latency.
		r.node.Observe(to, r.index, len(data), p.SendOverhead+dma)
	})
}

func durPerByte(n int, rate float64) time.Duration {
	if n <= 0 || rate <= 0 {
		return 0
	}
	return time.Duration(float64(n) / rate * 1e9)
}
