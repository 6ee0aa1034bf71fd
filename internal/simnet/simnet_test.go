package simnet

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/rt"
	"repro/internal/wire"
)

func twoNodeSim(t *testing.T, rails []*model.Profile) (*rt.SimEnv, *Cluster) {
	t.Helper()
	env := rt.NewSim()
	c, err := New(env, Config{Nodes: 2, Rails: rails, CoresPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	return env, c
}

// recvOne pops one delivery, charges its receive cost and returns the
// completion time (what an engine handler would observe).
func recvOne(ctx rt.Ctx, n *Node) (*Delivery, time.Duration) {
	d := n.RecvQ().Pop(ctx).(*Delivery)
	ctx.Sleep(d.RecvCPU)
	return d, ctx.Now()
}

// prof returns the analytic profile a modeled rail runs on.
func prof(r fabric.Rail) *model.Profile { return r.(*Rail).prof }

func TestConfigValidation(t *testing.T) {
	env := rt.NewSim()
	cases := []Config{
		{Nodes: 0, Rails: model.PaperTestbed(), CoresPerNode: 1},
		{Nodes: 2, Rails: nil, CoresPerNode: 1},
		{Nodes: 2, Rails: model.PaperTestbed(), CoresPerNode: 0},
		{Nodes: 2, Rails: []*model.Profile{{}}, CoresPerNode: 1},
	}
	for i, cfg := range cases {
		if _, err := New(env, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestClusterShape(t *testing.T) {
	_, c := twoNodeSim(t, model.PaperTestbed())
	if len(c.Nodes) != 2 || c.NumRails() != 2 || c.Nodes[1].Cores() != 4 {
		t.Fatalf("cluster shape: %d nodes, %d rails, %d cores", len(c.Nodes), c.NumRails(), c.Nodes[1].Cores())
	}
	if caps := c.Nodes[1].Rail(0).Caps(); caps != (fabric.Caps{Kind: "Myri-10G", EagerMax: 32 << 10}) {
		t.Fatalf("rail 0 caps %+v, want the Myri-10G profile's name and limits", caps)
	}
	if c.Nodes[0].Rails[1].node.ID() != 0 {
		t.Fatal("rail back-pointer")
	}
}

// The end-to-end eager time over the fabric must equal the analytic model
// exactly: SendOverhead + n/EagerRate + WireLatency + RecvOverhead.
func TestEagerOneWayMatchesModel(t *testing.T) {
	for _, size := range []int{4, 256, 4096, 16384} {
		env, c := twoNodeSim(t, model.PaperTestbed())
		rail := c.Nodes[0].Rail(0)
		var done time.Duration
		env.Go("recv", func(ctx rt.Ctx) {
			_, done = recvOne(ctx, c.Nodes[1])
		})
		env.Go("send", func(ctx rt.Ctx) {
			rail.SendEager(ctx, 1, make([]byte, size))
		})
		env.Run()
		want := prof(rail).EagerOneWay(size)
		if done != want {
			t.Fatalf("size %d: one-way %v, want %v", size, done, want)
		}
	}
}

// Sender-side eager completion: the core is busy for exactly the modeled
// CPU time.
func TestEagerBlocksCoreForCPUTime(t *testing.T) {
	env, c := twoNodeSim(t, model.PaperTestbed())
	rail := c.Nodes[0].Rail(0)
	var coreFree time.Duration
	env.Go("send", func(ctx rt.Ctx) {
		rail.SendEager(ctx, 1, make([]byte, 8192))
		coreFree = ctx.Now()
	})
	env.Go("drain", func(ctx rt.Ctx) { c.Nodes[1].RecvQ().Pop(ctx) })
	env.Run()
	want := prof(rail).SendCPUTime(model.Eager, 8192)
	if coreFree != want {
		t.Fatalf("core freed at %v, want %v", coreFree, want)
	}
}

// Two eager sends from one actor (one core) serialise even on different
// rails — the Fig 3/4a phenomenon.
func TestEagerSerializesOnSingleCore(t *testing.T) {
	env, c := twoNodeSim(t, model.PaperTestbed())
	myri, quad := c.Nodes[0].Rail(0), c.Nodes[0].Rail(1)
	size := 8192
	var last time.Duration
	got := 0
	env.Go("recv", func(ctx rt.Ctx) {
		for got < 2 {
			_, at := recvOne(ctx, c.Nodes[1])
			got++
			if at > last {
				last = at
			}
		}
	})
	env.Go("send", func(ctx rt.Ctx) {
		myri.SendEager(ctx, 1, make([]byte, size))
		quad.SendEager(ctx, 1, make([]byte, size))
	})
	env.Run()
	m, q := prof(myri), prof(quad)
	// Second send starts only after the first PIO copy completes.
	want := m.SendCPUTime(model.Eager, size) + q.EagerOneWay(size)
	if last != want {
		t.Fatalf("serialized completion %v, want %v", last, want)
	}
}

// Two eager sends from two actors (two cores) on different rails overlap:
// the Fig 4c/7 offloading benefit.
func TestEagerParallelOnTwoCores(t *testing.T) {
	env, c := twoNodeSim(t, model.PaperTestbed())
	size := 8192
	var last time.Duration
	got := 0
	env.Go("recv", func(ctx rt.Ctx) {
		for got < 2 {
			_, at := recvOne(ctx, c.Nodes[1])
			got++
			if at > last {
				last = at
			}
		}
	})
	for i := 0; i < 2; i++ {
		rail := c.Nodes[0].Rail(i)
		env.Go("send", func(ctx rt.Ctx) {
			rail.SendEager(ctx, 1, make([]byte, size))
		})
	}
	env.Run()
	m, q := prof(c.Nodes[0].Rail(0)), prof(c.Nodes[0].Rail(1))
	want := m.EagerOneWay(size)
	if w := q.EagerOneWay(size); w > want {
		want = w
	}
	// Receiver costs serialise on the single recv actor; allow the second
	// RecvOverhead.
	slack := m.RecvOverhead + q.RecvOverhead
	if last > want+slack || last < want {
		t.Fatalf("parallel completion %v, want ~%v", last, want)
	}
}

// Two eager sends on the SAME rail serialise on the NIC engine even from
// different cores.
func TestEagerSerializesOnNICEngine(t *testing.T) {
	env, c := twoNodeSim(t, model.PaperTestbed())
	size := 8192
	rail0 := c.Nodes[0].Rail(0)
	var last time.Duration
	got := 0
	env.Go("recv", func(ctx rt.Ctx) {
		for got < 2 {
			_, at := recvOne(ctx, c.Nodes[1])
			got++
			if at > last {
				last = at
			}
		}
	})
	for i := 0; i < 2; i++ {
		env.Go("send", func(ctx rt.Ctx) {
			rail0.SendEager(ctx, 1, make([]byte, size))
		})
	}
	env.Run()
	p := prof(rail0)
	want := 2*p.SendCPUTime(model.Eager, size) + p.WireLatency + p.RecvOverhead
	if last != want {
		t.Fatalf("NIC-serialized completion %v, want %v", last, want)
	}
}

// Rendezvous DMA frees the core after the descriptor post and completes
// the transfer at n/WireBandwidth.
func TestDataDMATiming(t *testing.T) {
	env, c := twoNodeSim(t, model.PaperTestbed())
	rail := c.Nodes[0].Rail(0)
	size := 2 << 20
	done := env.NewEvent()
	var coreFree, dmaDone, arrived time.Duration
	env.Go("recv", func(ctx rt.Ctx) {
		c.Nodes[1].RecvQ().Pop(ctx)
		arrived = ctx.Now()
	})
	env.Go("send", func(ctx rt.Ctx) {
		rail.SendData(ctx, 1, make([]byte, size), done)
		coreFree = ctx.Now()
		done.Wait(ctx)
		dmaDone = ctx.Now()
	})
	env.Run()
	p := prof(rail)
	if coreFree != p.SendOverhead {
		t.Fatalf("core freed at %v, want %v (descriptor post only)", coreFree, p.SendOverhead)
	}
	wantEnd := p.SendOverhead + time.Duration(float64(size)/p.WireBandwidth*1e9)
	if dmaDone != wantEnd {
		t.Fatalf("DMA done at %v, want %v", dmaDone, wantEnd)
	}
	if arrived != wantEnd {
		t.Fatalf("cut-through delivery at %v, want %v", arrived, wantEnd)
	}
}

// Two DMA chunks on the same rail serialise on the NIC engine; on
// different rails they overlap.
func TestDataDMAContention(t *testing.T) {
	env, c := twoNodeSim(t, model.PaperTestbed())
	size := 1 << 20
	d1, d2 := env.NewEvent(), env.NewEvent()
	rail := c.Nodes[0].Rail(0)
	var end time.Duration
	env.Go("recv", func(ctx rt.Ctx) {
		c.Nodes[1].RecvQ().Pop(ctx)
		c.Nodes[1].RecvQ().Pop(ctx)
	})
	env.Go("send", func(ctx rt.Ctx) {
		rail.SendData(ctx, 1, make([]byte, size), d1)
		rail.SendData(ctx, 1, make([]byte, size), d2)
		d1.Wait(ctx)
		d2.Wait(ctx)
		end = ctx.Now()
	})
	env.Run()
	p := prof(rail)
	dma := time.Duration(float64(size) / p.WireBandwidth * 1e9)
	// The second descriptor post overlaps the first DMA; the DMAs
	// themselves serialise on the NIC engine.
	want := p.SendOverhead + 2*dma
	if end != want {
		t.Fatalf("serialized DMAs end at %v, want %v", end, want)
	}
}

// IdleAt reflects posted work and returns to "now" once drained (Fig 2's
// input).
func TestIdleAtPrediction(t *testing.T) {
	env, c := twoNodeSim(t, model.PaperTestbed())
	rail := c.Nodes[0].Rail(0)
	size := 4 << 20
	p := prof(rail)
	dma := time.Duration(float64(size) / p.WireBandwidth * 1e9)
	env.Go("recv", func(ctx rt.Ctx) { c.Nodes[1].RecvQ().Pop(ctx) })
	env.Go("send", func(ctx rt.Ctx) {
		if now := ctx.Now(); rail.IdleAt(now) > now {
			t.Error("fresh rail busy")
		}
		if at := rail.IdleAt(ctx.Now()); at != 0 {
			t.Errorf("fresh rail IdleAt = %v", at)
		}
		rail.SendData(ctx, 1, make([]byte, size), nil)
		// After the descriptor post, the rail must predict the DMA end.
		want := p.SendOverhead + dma
		if got := rail.IdleAt(ctx.Now()); got != want {
			t.Errorf("IdleAt = %v, want %v", got, want)
		}
		if now := ctx.Now(); rail.IdleAt(now) <= now {
			t.Error("rail with queued DMA not busy")
		}
		ctx.Sleep(dma + dma)
		if now := ctx.Now(); rail.IdleAt(now) > now {
			t.Error("rail still busy after drain")
		}
		if got := rail.IdleAt(ctx.Now()); got != ctx.Now() {
			t.Errorf("drained IdleAt = %v, want now %v", got, ctx.Now())
		}
	})
	env.Run()
}

// A control frame costs what its wire kind costs in the protocol: an RTS
// is a message post on each side, a CTS carries half the handshake's CPU
// cost on each side, an ack costs no CPU at all. All three arrive one
// wire latency after the sender's core is free.
func TestControlCosts(t *testing.T) {
	p := model.QsNetII()
	for _, tc := range []struct {
		kind       wire.Kind
		send, recv time.Duration
	}{
		{wire.KindRTS, p.SendOverhead, p.RecvOverhead},
		{wire.KindCTS, p.RdvHandshakeCPU / 2, p.RdvHandshakeCPU / 2},
		{wire.KindAck, 0, 0},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			env, c := twoNodeSim(t, model.PaperTestbed())
			rail := c.Nodes[0].Rail(1)
			var coreFree, handled time.Duration
			env.Go("recv", func(ctx rt.Ctx) {
				d := c.Nodes[1].RecvQ().Pop(ctx).(*Delivery)
				ctx.Sleep(d.RecvCPU)
				handled = ctx.Now()
				if d.RecvCPU != tc.recv {
					t.Errorf("RecvCPU = %v, want %v", d.RecvCPU, tc.recv)
				}
			})
			env.Go("send", func(ctx rt.Ctx) {
				rail.SendControl(ctx, 1, wire.AppendControl(nil, tc.kind, 1, 0, 7, 9, 1<<20))
				coreFree = ctx.Now()
			})
			env.Run()
			if coreFree != tc.send {
				t.Fatalf("control core time %v, want %v", coreFree, tc.send)
			}
			if want := tc.send + p.WireLatency + tc.recv; handled != want {
				t.Fatalf("control handled at %v, want %v", handled, want)
			}
		})
	}
}

func TestStatsCounters(t *testing.T) {
	env, c := twoNodeSim(t, model.PaperTestbed())
	rail := c.Nodes[0].Rail(0)
	env.Go("recv", func(ctx rt.Ctx) {
		c.Nodes[1].RecvQ().Pop(ctx)
		c.Nodes[1].RecvQ().Pop(ctx)
	})
	env.Go("send", func(ctx rt.Ctx) {
		rail.SendEager(ctx, 1, make([]byte, 100))
		rail.SendData(ctx, 1, make([]byte, 1000), nil)
	})
	env.Run()
	st := rail.Stats()
	if st.Messages != 2 || st.Bytes != 1100 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BusyTime <= 0 {
		t.Fatal("no busy time recorded")
	}
}

func TestEagerRejectsOversizedMessage(t *testing.T) {
	env := rt.NewSim()
	prof := model.Myri10G()
	prof.MaxMsg = 1024
	c, err := New(env, Config{Nodes: 2, Rails: []*model.Profile{prof}, CoresPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	panicked := false
	env.Go("send", func(ctx rt.Ctx) {
		defer func() { panicked = recover() != nil }()
		c.Nodes[0].Rail(0).SendEager(ctx, 1, make([]byte, 2048))
	})
	func() {
		defer func() { recover() }() // the proc panic propagates into Run
		env.Run()
	}()
	if !panicked {
		t.Fatal("oversized eager send did not panic")
	}
}

// Property: after posting any sequence of DMA transfers, IdleAt equals
// the sum of their occupancies (FIFO drain), and after that horizon the
// rail reports idle.
func TestPropertyIdleAtAccumulates(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 12 {
			return true
		}
		env, c := func() (*rt.SimEnv, *Cluster) {
			env := rt.NewSim()
			cl, err := New(env, Config{Nodes: 2, Rails: model.PaperTestbed(), CoresPerNode: 2})
			if err != nil {
				t.Fatal(err)
			}
			return env, cl
		}()
		defer env.Close()
		rail := c.Nodes[0].Rail(0)
		p := prof(rail)
		okc := make(chan bool, 1)
		env.Go("post", func(ctx rt.Ctx) {
			var want time.Duration
			for _, r := range raw {
				n := int(r)%(1<<20) + 1
				rail.SendData(ctx, 1, make([]byte, n), nil)
				want += time.Duration(float64(n+0) / p.WireBandwidth * 1e9)
			}
			got := rail.IdleAt(ctx.Now())
			// Posting also slept SendOverhead per message; the horizon is
			// measured from each post, so compare with tolerance of the
			// accumulated overheads.
			lo := want
			hi := want + time.Duration(len(raw))*p.SendOverhead
			okc <- got >= lo && got <= hi
		})
		env.Go("drain", func(ctx rt.Ctx) {
			for range raw {
				c.Nodes[1].RecvQ().Pop(ctx)
			}
		})
		env.Run()
		return <-okc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// FailRail is deterministic in virtual time: a frame in flight on the
// failing rail at the fault instant is lost, frames on the surviving
// rail (and frames that landed before the fault) are not.
func TestFailRailDropsInFlightFrames(t *testing.T) {
	env, c := twoNodeSim(t, model.PaperTestbed())
	// Rail 0 dies 1ns into the run: the eager frame posted at t=0 is
	// still crossing the wire (host copy + latency take microseconds).
	c.FailRail(0, 0, time.Nanosecond)
	var got []*Delivery
	env.Go("recv", func(ctx rt.Ctx) {
		for i := 0; i < 1; i++ {
			d, _ := recvOne(ctx, c.Nodes[1])
			got = append(got, d)
		}
	})
	env.Go("send", func(ctx rt.Ctx) {
		c.Nodes[0].Rails[0].SendEager(ctx, 1, []byte("lost"))
		c.Nodes[0].Rails[1].SendEager(ctx, 1, []byte("kept"))
	})
	env.Run()
	if len(got) != 1 || got[0].Rail != 1 || string(got[0].Data) != "kept" {
		t.Fatalf("deliveries %v", got)
	}
	if st := c.Nodes[0].Rails[0].State(); st != fabric.RailDown {
		t.Fatalf("failed rail state %v", st)
	}
	if st := c.Nodes[1].Rails[0].State(); st != fabric.RailDown {
		t.Fatalf("lane not down on the peer: %v", st)
	}
	if st := c.Nodes[0].Rails[1].State(); st != fabric.RailUp {
		t.Fatalf("surviving rail state %v", st)
	}
}

// Health events flow to subscribers at the fault's virtual time.
func TestFailRailNotifiesSubscribers(t *testing.T) {
	env, c := twoNodeSim(t, model.PaperTestbed())
	q := c.Nodes[0].Health().Subscribe()
	c.FailRail(0, 1, 250*time.Microsecond)
	var ev *fabric.RailEvent
	env.Go("watch", func(ctx rt.Ctx) {
		ev = q.Pop(ctx).(*fabric.RailEvent)
	})
	env.Run()
	if ev == nil || ev.Rail != 1 || ev.State != fabric.RailDown || ev.At != 250*time.Microsecond {
		t.Fatalf("event %+v", ev)
	}
}
