package fabric

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rt"
)

// Mix joins several fabrics into one heterogeneous rail set: the rails
// of sub-fabric k appear after all rails of sub-fabrics 0..k-1, so a
// cluster can run, say, one shared-memory rail and two TCP rails as a
// single three-rail fabric. The engine and strategies see one node with
// one rail index space; deliveries, health events, telemetry and chaos
// hooks are remapped between the combined and per-sub index spaces.
//
// Sub-fabrics must share one execution environment, agree on the node
// count, and their hosted nodes must implement DirectNode — Mix installs
// a permanent remapping sink on every hosted sub-node, so every delivery
// flows through the mixed node's queue (or its direct sink).
type Mix struct {
	env     rt.Env
	subs    []Fabric
	offsets []int // rail index offset of each sub-fabric
	total   int
	nodes   []*mixNode

	closed  atomic.Bool
	stopQs  []rt.Queue // health forwarder stop nudges
	stopsMu sync.Mutex
}

// NewMix combines the sub-fabrics. local is the node id hosted by this
// process, or -1 when every node is hosted; it must match how the subs
// were built.
func NewMix(local int, subs ...Fabric) (*Mix, error) {
	if len(subs) < 2 {
		return nil, fmt.Errorf("fabric: mix needs at least 2 sub-fabrics, got %d", len(subs))
	}
	m := &Mix{env: subs[0].Env(), subs: subs}
	nodes := subs[0].NumNodes()
	for k, s := range subs {
		if s.NumNodes() != nodes {
			return nil, fmt.Errorf("fabric: mix sub %d has %d nodes, sub 0 has %d", k, s.NumNodes(), nodes)
		}
		if s.Env() != m.env {
			return nil, fmt.Errorf("fabric: mix sub %d runs on a different environment", k)
		}
		m.offsets = append(m.offsets, m.total)
		m.total += s.NumRails()
	}
	for i := 0; i < nodes; i++ {
		hosted := local < 0 || i == local
		mn := &mixNode{m: m, id: i, hosted: hosted}
		if hosted {
			mn.recvq = m.env.NewQueue()
			for k, s := range subs {
				dn, ok := s.Node(i).(DirectNode)
				if !ok {
					return nil, fmt.Errorf("fabric: mix sub %d node %d does not implement DirectNode", k, i)
				}
				off := m.offsets[k]
				dn.SetSink(func(d *Delivery) {
					d.Rail += off
					mn.deliver(d)
				})
			}
			mn.health = m.newMixHealth(i)
			for r := 0; r < m.total; r++ {
				sub, sr := m.SubFor(r)
				mn.rails = append(mn.rails, mixRail{Rail: sub.Node(i).Rail(sr), idx: r})
			}
		}
		m.nodes = append(m.nodes, mn)
	}
	return m, nil
}

// Env returns the shared execution environment.
func (m *Mix) Env() rt.Env { return m.env }

// NumNodes returns the node count.
func (m *Mix) NumNodes() int { return m.subs[0].NumNodes() }

// NumRails returns the combined rail count.
func (m *Mix) NumRails() int { return m.total }

// Node returns node i.
func (m *Mix) Node(i int) Node { return m.nodes[i] }

// NumSubs returns the number of sub-fabrics.
func (m *Mix) NumSubs() int { return len(m.subs) }

// Sub returns sub-fabric k (chaos hooks and transport diagnostics of
// one kind live on the concrete fabric).
func (m *Mix) Sub(k int) Fabric { return m.subs[k] }

// SubFor resolves a combined rail index to its sub-fabric and the rail
// index within it.
func (m *Mix) SubFor(rail int) (Fabric, int) {
	k := m.subIndex(rail)
	return m.subs[k], rail - m.offsets[k]
}

func (m *Mix) subIndex(rail int) int {
	for k := len(m.offsets) - 1; k > 0; k-- {
		if rail >= m.offsets[k] {
			return k
		}
	}
	return 0
}

// ThrottleRail implements Throttler by dispatching to the owning
// sub-fabric, if it supports throttling.
func (m *Mix) ThrottleRail(rail int, factor float64) {
	if rail < 0 || rail >= m.total {
		return
	}
	sub, r := m.SubFor(rail)
	if t, ok := sub.(Throttler); ok {
		t.ThrottleRail(r, factor)
	}
}

// Close tears every sub-fabric down and stops the health forwarders.
func (m *Mix) Close() error {
	if !m.closed.CompareAndSwap(false, true) {
		return nil
	}
	var first error
	for _, s := range m.subs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	m.stopsMu.Lock()
	qs := m.stopQs
	m.stopQs = nil
	m.stopsMu.Unlock()
	for _, q := range qs {
		q.Push(nil)
	}
	return first
}

// mixNode is one combined endpoint.
type mixNode struct {
	m      *Mix
	id     int
	hosted bool
	rails  []Rail // combined rails, built once: Rail(i) is called per decision
	recvq  rt.Queue
	health *mixHealth

	sinkMu sync.RWMutex
	sink   func(*Delivery)
}

// deliver routes a (already remapped) delivery to the direct sink, or to
// the mixed receive queue. The push happens under the sink read lock so
// it cannot race SetSink's drain and strand a frame.
func (n *mixNode) deliver(d *Delivery) {
	n.sinkMu.RLock()
	defer n.sinkMu.RUnlock()
	if n.sink != nil {
		n.sink(d)
		return
	}
	n.recvq.Push(d)
}

// SetSink implements DirectNode: deliveries from every sub-fabric are
// handed to fn on the transport goroutine that produced them, with the
// combined rail index. Installing a sink drains the queued deliveries
// first, atomically with the handoff.
func (n *mixNode) SetSink(fn func(*Delivery)) {
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
		if d, isD := item.(*Delivery); isD && d != nil {
			fn(d)
		}
	}
}

// SetPlacer implements DirectNode by installing the hook on every
// sub-node, remapping the rail index into the combined space.
func (n *mixNode) SetPlacer(fn Placer) {
	n.mustHost()
	for k, s := range n.m.subs {
		dn := s.Node(n.id).(DirectNode) // checked by NewMix
		if fn == nil {
			dn.SetPlacer(nil)
			continue
		}
		off := n.m.offsets[k]
		dn.SetPlacer(func(from, rail int, head []byte, bodyLen int) ([]byte, func(bool)) {
			return fn(from, rail+off, head, bodyLen)
		})
	}
}

// SetTelemetry implements ObservableNode by fanning the sink out to
// every sub-node that reports transfers, remapping the rail index.
func (n *mixNode) SetTelemetry(t Telemetry) {
	n.mustHost()
	for k, s := range n.m.subs {
		on, ok := s.Node(n.id).(ObservableNode)
		if !ok {
			continue
		}
		if t == nil {
			on.SetTelemetry(nil)
			continue
		}
		on.SetTelemetry(&offsetTelemetry{t: t, off: n.m.offsets[k]})
	}
}

// offsetTelemetry shifts a sub-fabric's rail indices into the combined
// space before reporting.
type offsetTelemetry struct {
	t   Telemetry
	off int
}

func (o *offsetTelemetry) ObserveTransfer(peer, rail, bytes int, d time.Duration) {
	o.t.ObserveTransfer(peer, rail+o.off, bytes, d)
}

// ID returns the node's index.
func (n *mixNode) ID() int { return n.id }

// NumRails returns the combined rail count.
func (n *mixNode) NumRails() int { return n.m.total }

// Rail returns the i-th combined rail.
func (n *mixNode) Rail(i int) Rail {
	n.mustHost()
	return n.rails[i]
}

// RecvQ returns the combined delivery queue.
func (n *mixNode) RecvQ() rt.Queue {
	n.mustHost()
	return n.recvq
}

// Health returns the merged rail-health surface.
func (n *mixNode) Health() Health {
	n.mustHost()
	return n.health
}

// Cores returns the largest core count any sub-fabric reports.
func (n *mixNode) Cores() int {
	cores := 0
	for _, s := range n.m.subs {
		if c := s.Node(n.id).Cores(); c > cores {
			cores = c
		}
	}
	return cores
}

func (n *mixNode) mustHost() {
	if !n.hosted {
		panic(fmt.Sprintf("fabric: mix node %d is not hosted by this process", n.id))
	}
}

// mixRail presents a sub-fabric rail under its combined index.
type mixRail struct {
	Rail
	idx int
}

func (r mixRail) Index() int { return r.idx }

// TrySend forwards to the sub-fabric rail when it is a TrySender and
// refuses otherwise.
func (r mixRail) TrySend(to int, data []byte) bool {
	ts, ok := r.Rail.(TrySender)
	return ok && ts.TrySend(to, data)
}

// mixHealth merges the sub-fabrics' health trackers into one surface:
// states and events carry combined rail indices, and administrative
// control dispatches to the owning tracker.
type mixHealth struct {
	m    *Mix
	node int

	mu   sync.Mutex
	subs []rt.Queue // merged subscriber queues
}

// newMixHealth builds the merged surface for one hosted node and spawns
// one forwarding actor per sub-tracker: each pops the sub-tracker's
// transition feed, remaps the rail index, and republishes to every
// merged subscriber in order.
func (m *Mix) newMixHealth(node int) *mixHealth {
	h := &mixHealth{m: m, node: node}
	for k, s := range m.subs {
		off := m.offsets[k]
		q := s.Node(node).Health().Subscribe()
		m.stopsMu.Lock()
		m.stopQs = append(m.stopQs, q)
		m.stopsMu.Unlock()
		m.env.Go(fmt.Sprintf("mix-health-%d-%d", node, k), func(ctx rt.Ctx) {
			for {
				item := q.Pop(ctx)
				if item == nil {
					return
				}
				ev := *(item.(*RailEvent))
				ev.Rail += off
				h.publish(&ev)
			}
		})
	}
	return h
}

func (h *mixHealth) publish(ev *RailEvent) {
	h.mu.Lock()
	subs := append([]rt.Queue(nil), h.subs...)
	h.mu.Unlock()
	for _, q := range subs {
		q.Push(ev)
	}
}

// State returns the current state of one combined rail.
func (h *mixHealth) State(rail int) RailState {
	sub, r := h.m.SubFor(rail)
	return sub.Node(h.node).Health().State(r)
}

// States concatenates every sub-tracker's snapshot in rail order.
func (h *mixHealth) States() []RailState {
	out := make([]RailState, 0, h.m.total)
	for _, s := range h.m.subs {
		out = append(out, s.Node(h.node).Health().States()...)
	}
	return out
}

// Subscribe returns a fresh queue receiving every sub-tracker's
// transitions with combined rail indices.
func (h *mixHealth) Subscribe() rt.Queue {
	q := h.m.env.NewQueue()
	h.mu.Lock()
	h.subs = append(h.subs, q)
	h.mu.Unlock()
	return q
}

// Disable administratively forces the rail Down in its owning tracker.
func (h *mixHealth) Disable(rail int, reason string) {
	sub, r := h.m.SubFor(rail)
	sub.Node(h.node).Health().Disable(r, reason)
}

// Enable lifts an administrative Disable in the owning tracker.
func (h *mixHealth) Enable(rail int) {
	sub, r := h.m.SubFor(rail)
	sub.Node(h.node).Health().Enable(r)
}

var (
	_ Fabric         = (*Mix)(nil)
	_ Throttler      = (*Mix)(nil)
	_ Node           = (*mixNode)(nil)
	_ DirectNode     = (*mixNode)(nil)
	_ ObservableNode = (*mixNode)(nil)
)
