package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/railhealth"
	"repro/internal/rt"
)

// gateFabric is a minimal in-memory fabric whose rails can be made to
// block mid-write toward chosen destinations — the "slow rail" of the
// flush regression test. Frames are handed straight to the destination
// node's sink.
type gateFabric struct {
	env   rt.Env
	nodes []*gateNode
}

type gateNode struct {
	f      *gateFabric
	id     int
	recvq  rt.Queue
	health *railhealth.Tracker
	rails  []*gateRail

	mu   sync.Mutex
	sink func(*fabric.Delivery)
}

type gateRail struct {
	n   *gateNode
	idx int

	mu   sync.Mutex
	gate func(to int) // when non-nil, called (and may block) before delivery
}

func newGateFabric(env rt.Env, nodes, rails int) *gateFabric {
	f := &gateFabric{env: env}
	for i := 0; i < nodes; i++ {
		n := &gateNode{f: f, id: i, recvq: env.NewQueue(), health: railhealth.New(env, i, rails)}
		for r := 0; r < rails; r++ {
			n.rails = append(n.rails, &gateRail{n: n, idx: r})
		}
		f.nodes = append(f.nodes, n)
	}
	return f
}

func (f *gateFabric) Env() rt.Env            { return f.env }
func (f *gateFabric) NumNodes() int          { return len(f.nodes) }
func (f *gateFabric) NumRails() int          { return len(f.nodes[0].rails) }
func (f *gateFabric) Node(i int) fabric.Node { return f.nodes[i] }
func (f *gateFabric) Close() error           { return nil }

func (n *gateNode) ID() int                       { return n.id }
func (n *gateNode) NumRails() int                 { return len(n.rails) }
func (n *gateNode) Rail(i int) fabric.Rail        { return n.rails[i] }
func (n *gateNode) RecvQ() rt.Queue               { return n.recvq }
func (n *gateNode) Health() fabric.Health         { return n.health }
func (n *gateNode) Cores() int                    { return 2 }
func (n *gateNode) SetPlacer(fabric.Placer)       {}
func (n *gateNode) SetTelemetry(fabric.Telemetry) {}
func (n *gateNode) SetSink(fn func(*fabric.Delivery)) {
	n.mu.Lock()
	n.sink = fn
	n.mu.Unlock()
}

// deliver hands d to the node's engine, or parks it once the engine stopped.
func (n *gateNode) deliver(d *fabric.Delivery) {
	n.mu.Lock()
	sink := n.sink
	n.mu.Unlock()
	if sink == nil {
		n.recvq.Push(d)
		return
	}
	sink(d)
}

func (r *gateRail) Index() int                             { return r.idx }
func (r *gateRail) Caps() fabric.Caps                      { return fabric.Caps{Kind: "gate", EagerMax: 32 << 10} }
func (r *gateRail) IdleAt(now time.Duration) time.Duration { return now }
func (r *gateRail) Busy() bool                             { return false }
func (r *gateRail) State() fabric.RailState                { return r.n.health.State(r.idx) }
func (r *gateRail) Stats() (s fabric.Stats)                { return }
func (r *gateRail) setGate(fn func(to int)) {
	r.mu.Lock()
	r.gate = fn
	r.mu.Unlock()
}

func (r *gateRail) send(to int, data []byte) {
	r.mu.Lock()
	gate := r.gate
	r.mu.Unlock()
	if gate != nil {
		gate(to) // the blocking rail write
	}
	if len(data) <= fabric.PlaceHeadMax {
		data = append([]byte(nil), data...) // the Rail contract: short frames are copied
	}
	r.n.f.nodes[to].deliver(&fabric.Delivery{From: r.n.id, Rail: r.idx, Data: data})
}

func (r *gateRail) SendEager(ctx rt.Ctx, to int, data []byte)   { r.send(to, data) }
func (r *gateRail) SendControl(ctx rt.Ctx, to int, data []byte) { r.send(to, data) }
func (r *gateRail) SendData(ctx rt.Ctx, to int, data []byte, done fabric.Completion) {
	r.SendDataV(ctx, to, data, nil, done)
}
func (r *gateRail) SendDataV(ctx rt.Ctx, to int, head, body []byte, done fabric.Completion) {
	r.send(to, append(head[:len(head):len(head)], body...))
	if done != nil {
		done.Fire()
	}
}

// A rail write that blocks toward one destination must not stall eager
// flushes to other destinations, and must not block the Isend callers:
// the flush path holds no shard or queue lock across fabric I/O, and
// distinct destinations flush on distinct workers. Regression test for
// the slow-rail serialization of the single-lock engine.
func TestSlowRailDoesNotStallOtherDestinations(t *testing.T) {
	env := rt.NewLive()
	f := newGateFabric(env, 3, 1)
	profs := paperProfiles(t)[:1]
	var eng [3]*Engine
	for i := range eng {
		var err error
		// Workers=2: dest 1 flushes on worker 1, dest 2 on worker 0
		// (DestKey is the identity), so the blocked flush provably sits
		// on a different worker than the probe flush.
		if eng[i], err = NewEngine(env, f.nodes[i], profs, Config{Workers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, e := range eng {
			e.Stop()
		}
	})

	release := make(chan struct{})
	blocked := make(chan struct{})
	var once sync.Once
	f.nodes[0].rails[0].setGate(func(to int) {
		if to == 1 {
			once.Do(func() { close(blocked) })
			<-release
		}
	})

	buf1 := make([]byte, 64)
	buf2 := make([]byte, 64)
	rr1 := eng[1].Irecv(0, 1, buf1)
	rr2 := eng[2].Irecv(0, 2, buf2)

	result := make(chan string, 1)
	env.Go("app", func(ctx rt.Ctx) {
		eng[0].Isend(1, 1, []byte("to the slow rail"))
		// Wait until the flush for dest 1 is genuinely stuck inside the
		// rail write before probing dest 2.
		select {
		case <-blocked:
		case <-time.After(5 * time.Second):
			result <- "flush for dest 1 never reached the rail"
			return
		}
		eng[0].Isend(2, 2, []byte("past the slow rail"))
		if !rr2.Done().WaitTimeout(ctx, 5*time.Second) {
			result <- "send to dest 2 stalled behind dest 1's blocked rail write"
			return
		}
		if rr1.Done().Fired() {
			result <- "dest 1 completed while its rail write was blocked"
			return
		}
		close(release)
		if !rr1.Done().WaitTimeout(ctx, 5*time.Second) {
			result <- "dest 1 never completed after the rail unblocked"
			return
		}
		result <- ""
	})
	if msg := <-result; msg != "" {
		t.Fatal(msg)
	}
	if n, err := rr2.Len(), rr2.Err(); err != nil || n != len("past the slow rail") {
		t.Fatalf("dest 2 recv n=%d err=%v", n, err)
	}
}
