package core

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/rt"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// chaosPair builds a two-node simulated testbed, returning the cluster
// so tests can inject rail faults in virtual time.
func chaosPair(t *testing.T, cfg Config) (*rt.SimEnv, *simnet.Cluster, [2]*Engine) {
	t.Helper()
	env := rt.NewSim()
	c, err := simnet.New(env, simnet.Config{
		Nodes: 2, Rails: model.PaperTestbed(), CoresPerNode: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	profs := paperProfiles(t)
	var engines [2]*Engine
	for i := 0; i < 2; i++ {
		engines[i], err = NewEngine(env, c.Nodes[i], profs, cfg)
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(env.Close)
	return env, c, engines
}

// The chaos scenario of the subsystem: a rail dies in the middle of a
// large striped rendezvous. The chunks lost on the dead rail are
// re-planned onto the survivor and the message completes byte-identical,
// deterministically in virtual time.
func TestChaosRailDiesMidRendezvous(t *testing.T) {
	env, c, eng := chaosPair(t, Config{})
	n := 4 << 20
	payload := make([]byte, n)
	rand.New(rand.NewSource(7)).Read(payload)
	buf := make([]byte, n)
	// A 4 MB hetero-split transfer takes ~2ms of virtual time; kill the
	// fast rail mid-DMA.
	c.FailRail(0, 0, 500*time.Microsecond)
	var got int
	var rerr error
	env.Go("app", func(ctx rt.Ctx) {
		rr := eng[1].Irecv(0, 9, buf)
		sr := eng[0].Isend(1, 9, payload)
		got, rerr = rr.Wait(ctx)
		sr.Wait(ctx)
		sr.RemoteDone().Wait(ctx) // every unit acknowledged despite the loss
	})
	env.Run()
	if rerr != nil || got != n {
		t.Fatalf("recv n=%d err=%v", got, rerr)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("payload corrupted across the failover")
	}
	st := eng[0].Stats()
	if st.FailedOver == 0 {
		t.Fatalf("no units failed over: %+v", st)
	}
	if out := eng[0].OutstandingUnits(); out != 0 {
		t.Fatalf("%d units still outstanding after RemoteDone", out)
	}
	if b := c.Nodes[0].Rail(1).Stats().Bytes; b == 0 {
		t.Fatal("surviving rail moved no bytes")
	}
	if c.Nodes[0].Rail(0).State() != fabric.RailDown {
		t.Fatalf("failed rail state %v", c.Nodes[0].Rail(0).State())
	}
}

// An eager container lost on a dying rail is replayed on a survivor:
// the receiver eventually matches it although the original frame never
// arrived.
func TestEagerContainerFailsOver(t *testing.T) {
	env, c, eng := chaosPair(t, Config{})
	req := &SendRequest{To: 1, Tag: 5, Data: []byte("failover"),
		done: env.NewEvent(), acked: env.NewEvent()}
	cid := eng[0].newID()
	frame := wire.EncodeEagerID(0, cid, 0, []wire.Packet{{Tag: 5, MsgID: cid, Payload: req.Data}})
	// The container is registered as in flight on rail 0 but its frame
	// is "lost": the rail dies before it was ever delivered.
	eng[0].registerContainer(cid, 1, 0, nil, frame, []*SendRequest{req}, env.Now())
	c.FailRail(0, 0, 10*time.Microsecond)
	buf := make([]byte, 16)
	var got int
	env.Go("app", func(ctx rt.Ctx) {
		rr := eng[1].Irecv(0, 5, buf)
		got, _ = rr.Wait(ctx)
		req.RemoteDone().Wait(ctx)
	})
	env.Run()
	if got != len(req.Data) || string(buf[:got]) != "failover" {
		t.Fatalf("recv %q (%d bytes)", buf[:got], got)
	}
	if st := eng[0].Stats(); st.FailedOver == 0 {
		t.Fatalf("container not failed over: %+v", st)
	}
}

// A duplicated eager container (rail died after delivery, before the
// ack crossed) delivers its packets exactly once.
func TestDuplicateEagerContainerIgnored(t *testing.T) {
	env, _, eng := chaosPair(t, Config{})
	frame := wire.EncodeEagerID(0, 0xC1D, 0, []wire.Packet{{Tag: 3, MsgID: 0xC1D, Payload: []byte("once")}})
	env.Go("app", func(ctx rt.Ctx) {
		rr := eng[1].Irecv(0, 3, make([]byte, 8))
		inject(eng[1], 0, frame)
		inject(eng[1], 0, frame) // replay
		if n, err := rr.Wait(ctx); err != nil || n != 4 {
			t.Errorf("first delivery n=%d err=%v", n, err)
		}
		ctx.Sleep(time.Millisecond)
	})
	env.Run()
	if st := eng[1].Stats(); st.Unexpected != 0 {
		t.Fatalf("replayed container delivered twice: %+v", st)
	}
}

// An RTS whose rail dies before the receiver posts its buffer is
// replayed on a survivor; the receiver answers the duplicate
// idempotently and the rendezvous completes over the surviving rail.
func TestRTSReplayedWhenRailDies(t *testing.T) {
	env, c, eng := chaosPair(t, Config{})
	n := 1 << 20
	payload := make([]byte, n)
	rand.New(rand.NewSource(13)).Read(payload)
	buf := make([]byte, n)
	c.FailRail(0, 0, 500*time.Microsecond)
	var got int
	var rerr error
	env.Go("sender", func(ctx rt.Ctx) {
		sr := eng[0].Isend(1, 4, payload)
		sr.Wait(ctx)
	})
	env.Go("receiver", func(ctx rt.Ctx) {
		ctx.Sleep(time.Millisecond) // RTS arrives and parks; then its rail dies
		rr := eng[1].Irecv(0, 4, buf)
		got, rerr = rr.Wait(ctx)
	})
	env.Run()
	if rerr != nil || got != n {
		t.Fatalf("recv n=%d err=%v", got, rerr)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("payload corrupted")
	}
}
