package sampling

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/rt"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// Config tunes a sampling run.
type Config struct {
	// MinSize and MaxSize bound the sampled power-of-two sizes
	// (defaults 4 B and 8 MiB, the paper's plot range).
	MinSize int
	MaxSize int
	// Iters is the number of measurements per point; the minimum is kept
	// (1 is exact on the simulator; use more on a live environment).
	Iters int
}

func (c *Config) defaults() {
	if c.MinSize <= 0 {
		c.MinSize = 4
	}
	if c.MaxSize <= 0 {
		c.MaxSize = 8 << 20
	}
	if c.Iters <= 0 {
		c.Iters = 1
	}
}

// sizes returns the power-of-two ladder [MinSize, MaxSize].
func (c *Config) sizes() []int {
	var out []int
	for n := c.MinSize; n <= c.MaxSize; n *= 2 {
		out = append(out, n)
	}
	return out
}

// SampleProfiles benchmarks each analytic profile on a private two-node
// simulated cluster and returns one RailProfile per rail. This is what
// the engine runs at initialisation when no sampling file is given.
func SampleProfiles(profiles []*model.Profile, cfg Config) ([]*RailProfile, error) {
	env := rt.NewSim()
	defer env.Close()
	c, err := simnet.New(env, simnet.Config{Nodes: 2, Rails: profiles, CoresPerNode: 2})
	if err != nil {
		return nil, err
	}
	var out []*RailProfile
	var rerr error
	env.Go("sampler", func(ctx rt.Ctx) {
		out, rerr = SampleCluster(ctx, c, cfg)
	})
	env.Run()
	if rerr != nil {
		return nil, rerr
	}
	return out, nil
}

// SampleLive benchmarks every rail of a wall-clock fabric from a fresh
// actor and blocks until the measurements complete. Nodes 0 and 1 must
// both be hosted in this process (loopback); distributed deployments
// sample a loopback twin instead.
func SampleLive(f fabric.Fabric, cfg Config) ([]*RailProfile, error) {
	var out []*RailProfile
	var rerr error
	done := make(chan struct{})
	f.Env().Go("sampler", func(ctx rt.Ctx) {
		defer close(done)
		out, rerr = SampleCluster(ctx, f, cfg)
	})
	<-done
	return out, rerr
}

// SampleCluster benchmarks every rail of an existing fabric, measuring
// through the same fabric primitives the engine uses — on the modeled
// fabric this reproduces the paper's start-up sampling; on a live TCP
// fabric it measures genuine transfer times. It must be called from an
// actor of the fabric's environment; it drives nodes 0 and 1.
func SampleCluster(ctx rt.Ctx, f fabric.Fabric, cfg Config) ([]*RailProfile, error) {
	cfg.defaults()
	if f.NumNodes() < 2 {
		return nil, fmt.Errorf("sampling: need 2 nodes, fabric has %d", f.NumNodes())
	}
	srv := newPingServer(f)
	defer srv.stop(ctx)
	var out []*RailProfile
	for i := 0; i < f.NumRails(); i++ {
		rp, err := srv.sampleRail(ctx, i, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, rp)
	}
	return out, nil
}

// pingServer answers the sampling micro-protocol on both nodes: RTS is
// answered with CTS; eager containers and data chunks fire the completion
// event registered under their message id.
type pingServer struct {
	f    fabric.Fabric
	done [2]rt.Event // fired when the matching serve actor returns

	mu      sync.Mutex
	pending map[uint64]rt.Event
	nextID  uint64
}

func newPingServer(f fabric.Fabric) *pingServer {
	s := &pingServer{f: f, pending: make(map[uint64]rt.Event)}
	for _, node := range []int{0, 1} {
		node := node
		s.done[node] = f.Env().NewEvent()
		f.Env().Go(fmt.Sprintf("sampling-srv-%d", node), func(ctx rt.Ctx) {
			defer s.done[node].Fire()
			s.serve(ctx, node)
		})
	}
	return s
}

// stop nudges both serve actors with a nil item and joins them. Joining
// matters: the nodes' receive queues belong to the caller afterwards
// (multirail starts engines on them), so no serve actor may still be
// parked there and the nil sentinels must have been consumed.
func (s *pingServer) stop(ctx rt.Ctx) {
	s.f.Node(0).RecvQ().Push(nil)
	s.f.Node(1).RecvQ().Push(nil)
	s.done[0].Wait(ctx)
	s.done[1].Wait(ctx)
}

func (s *pingServer) register(id uint64) rt.Event {
	ev := s.f.Env().NewEvent()
	s.mu.Lock()
	s.pending[id] = ev
	s.mu.Unlock()
	return ev
}

func (s *pingServer) fire(id uint64) {
	s.mu.Lock()
	ev := s.pending[id]
	delete(s.pending, id)
	s.mu.Unlock()
	if ev != nil {
		ev.Fire()
	}
}

// serve answers the micro-protocol until it pops the nil stop nudge —
// the only exit, so exactly one nil is consumed per server.
func (s *pingServer) serve(ctx rt.Ctx, node int) {
	for {
		item := s.f.Node(node).RecvQ().Pop(ctx)
		if item == nil {
			return
		}
		d := item.(*fabric.Delivery)
		if d.RecvCPU > 0 {
			ctx.Sleep(d.RecvCPU)
		}
		h, _, err := wire.DecodeHeader(d.Data)
		if err != nil {
			continue
		}
		switch h.Kind {
		case wire.KindRTS:
			// Answer with a clear-to-send on the same rail, as the engine
			// does (a modeled rail charges the handshake itself).
			cts := wire.AppendControl(nil, wire.KindCTS, uint8(d.Rail), h.Origin, h.Tag, h.MsgID, h.TotalLen)
			s.f.Node(node).Rail(d.Rail).SendControl(ctx, d.From, cts)
		case wire.KindCTS, wire.KindEager, wire.KindData:
			s.fire(h.MsgID)
		}
		if d.CopyCPU > 0 {
			ctx.Sleep(d.CopyCPU)
		}
	}
}

func (s *pingServer) id() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	return s.nextID
}

// measureEager returns the one-way duration of one eager send of n bytes
// on rail r from node 0 to node 1.
func (s *pingServer) measureEager(ctx rt.Ctx, r, n int) time.Duration {
	id := s.id()
	done := s.register(id)
	payload := wire.EncodeEager(uint8(r), []wire.Packet{{Tag: 0, MsgID: id, Payload: make([]byte, n)}})
	t0 := ctx.Now()
	s.f.Node(0).Rail(r).SendEager(ctx, 1, payload)
	done.Wait(ctx)
	return ctx.Now() - t0
}

// measureRdv returns the one-way duration of one rendezvous send of
// payload on rail r: RTS, wait CTS, DMA the payload, completion at
// delivery. The timed region holds what the engine does per message and
// nothing else: the payload is the caller's (allocated once per rail)
// and travels head+body, exactly as Engine.sendChunk posts it.
func (s *pingServer) measureRdv(ctx rt.Ctx, r int, payload []byte) time.Duration {
	n := len(payload)
	rail := s.f.Node(0).Rail(r)
	ctsID := s.id()
	dataID := s.id()
	cts := s.register(ctsID)
	done := s.register(dataID)
	t0 := ctx.Now()
	rts := wire.AppendControl(nil, wire.KindRTS, uint8(r), 0, 0, ctsID, uint64(n))
	rail.SendControl(ctx, 1, rts)
	cts.Wait(ctx)
	head := wire.EncodeDataHeader(nil, uint8(r), 0, 0, dataID, 0, n, n)
	rail.SendDataV(ctx, 1, head, payload, nil)
	done.Wait(ctx)
	return ctx.Now() - t0
}

func (s *pingServer) sampleRail(ctx rt.Ctx, r int, cfg Config) (*RailProfile, error) {
	caps := s.f.Node(0).Rail(r).Caps()
	// Cooldown between measurements: the receiver's post-completion eager
	// copy must drain, or it would skew the next point (2 ns/B bounds any
	// realistic copy rate).
	cool := func(n int) { ctx.Sleep(10*time.Microsecond + 2*time.Duration(n)) }
	// Warm the rail up with throwaway round trips before measuring. On a
	// simulated rail this is free (deterministic costs, discarded clock);
	// on a live TCP rail it absorbs the cold-start costs — connection
	// ramp-up, first-touch page faults — that would otherwise inflate the
	// first sampled point and corrupt the derived rendezvous threshold.
	for i := 0; i < 3; i++ {
		s.measureEager(ctx, r, cfg.MinSize)
		cool(cfg.MinSize)
	}
	var eager, rdv []Sample
	payload := make([]byte, cfg.MaxSize)
	for _, n := range cfg.sizes() {
		if caps.EagerMax == 0 || n <= caps.EagerMax {
			best := time.Duration(1<<62 - 1)
			for it := 0; it < cfg.Iters; it++ {
				if d := s.measureEager(ctx, r, n); d < best {
					best = d
				}
				cool(n)
			}
			eager = append(eager, Sample{n, best})
		}
		best := time.Duration(1<<62 - 1)
		for it := 0; it < cfg.Iters; it++ {
			if d := s.measureRdv(ctx, r, payload[:n]); d < best {
				best = d
			}
			cool(n)
		}
		rdv = append(rdv, Sample{n, best})
	}
	rp := &RailProfile{Rail: r, Name: caps.Kind, EagerMax: caps.EagerMax}
	var err error
	if len(eager) >= 2 {
		if rp.Eager, err = NewTable(eager); err != nil {
			return nil, err
		}
	}
	if rp.Rdv, err = NewTable(rdv); err != nil {
		return nil, err
	}
	return rp, nil
}
