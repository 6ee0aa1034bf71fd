package core

import (
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/rt"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/wire"
)

// simFlows runs the engine's one progression path on the simulator: every
// delivery is dispatched onto the progress workers. Eight flows of sixteen
// numbered messages go from node 0 to node 1 over one rail, so arrival
// order is send order and any reordering would be the engine's. It returns
// the receiver and its requests, per flow in send order.
func simFlows(t *testing.T) (*Engine, [][]*RecvRequest) {
	t.Helper()
	env := rt.NewSim()
	c, err := simnet.New(env, simnet.Config{Nodes: 2, Rails: []*model.Profile{model.Myri10G()}, CoresPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	var eng [2]*Engine
	for i := range eng {
		if eng[i], err = NewEngine(env, c.Nodes[i], paperProfiles(t)[:1], Config{}); err != nil {
			t.Fatal(err)
		}
	}
	const flows, count = 8, 16
	rrs := make([][]*RecvRequest, flows)
	for f := range rrs {
		rrs[f] = make([]*RecvRequest, count)
		for i := range rrs[f] {
			rrs[f][i] = eng[1].Irecv(0, uint32(100+f), make([]byte, 8))
		}
	}
	for f := 0; f < flows; f++ {
		env.Go("flow", func(ctx rt.Ctx) {
			for i := 0; i < count; i++ {
				msg := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, uint32(f)), uint32(i))
				eng[0].Isend(1, uint32(100+f), msg)
				ctx.Sleep(time.Microsecond)
			}
		})
	}
	env.Run()
	for f := range rrs {
		for i, rr := range rrs[f] {
			if !rr.Done().Fired() {
				t.Fatalf("flow %d message %d never arrived", f, i)
			}
		}
	}
	return eng[1], rrs
}

// Each flow is received in order on the simulator, its steps sharing one
// worker even though the flows are spread over several.
func TestSimOrderingPreserved(t *testing.T) {
	_, rrs := simFlows(t)
	for f := range rrs {
		for i, rr := range rrs[f] {
			if gf, gi := binary.LittleEndian.Uint32(rr.Buf), binary.LittleEndian.Uint32(rr.Buf[4:]); gf != uint32(f) || gi != uint32(i) {
				t.Fatalf("flow %d receive %d got flow %d message %d: per-flow order broken", f, i, gf, gi)
			}
		}
	}
}

// On the virtual clock concurrent flows are received on several cores.
func TestSimTwoWorkersProcessInParallel(t *testing.T) {
	eng, _ := simFlows(t)
	busy := 0
	for _, w := range eng.Stats().Workers {
		if w.Tasks > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("receiver ran its deliveries on %d progress workers, want >= 2: %+v", busy, eng.Stats().Workers)
	}
}

// simReceiveCosts lands two 16 KB eager frames of one flow on a simulated
// node, the first over Myri-10G and the second over Quadrics, and returns
// when each receive completed with the two rails' profiles and frame sizes.
func simReceiveCosts(t *testing.T) (doneA, doneB time.Duration, myri, quad *model.Profile, lenA, lenB int) {
	t.Helper()
	env := rt.NewSim()
	rails := model.PaperTestbed()
	c, err := simnet.New(env, simnet.Config{Nodes: 2, Rails: rails, CoresPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	eng, err := NewEngine(env, c.Nodes[1], paperProfiles(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	const size = 16 << 10
	frame := func(id uint64) []byte {
		return wire.EncodeEagerID(0, id, 0, []wire.Packet{{Tag: 9, MsgID: id, Payload: make([]byte, size)}})
	}
	fa, fb := frame(1), frame(2)
	ra := eng.Irecv(0, 9, make([]byte, size))
	rb := eng.Irecv(0, 9, make([]byte, size))
	env.Go("sendA", func(ctx rt.Ctx) { c.Nodes[0].Rail(0).SendEager(ctx, 1, fa) })
	env.Go("sendB", func(ctx rt.Ctx) { c.Nodes[0].Rail(1).SendEager(ctx, 1, fb) })
	env.Go("recv", func(ctx rt.Ctx) {
		ra.Wait(ctx)
		doneA = ctx.Now()
		rb.Wait(ctx)
		doneB = ctx.Now()
	})
	env.Run()
	return doneA, doneB, rails[0], rails[1], len(fa), len(fb)
}

// A modeled delivery charges RecvCPU on its worker before the step: the
// receive completes exactly RecvOverhead after the frame lands.
func TestSimBlockingDeliveryMatchesModel(t *testing.T) {
	doneA, _, myri, _, lenA, _ := simReceiveCosts(t)
	if want := myri.EagerOneWay(lenA); doneA != want {
		t.Fatalf("first receive completed at %v, want %v: RecvCPU is charged before the step", doneA, want)
	}
}

// A modeled delivery charges CopyCPU on its worker after the step, so the
// next delivery of the same flow — same worker — waits for the copy.
func TestSimCopyCPUDelaysNextDelivery(t *testing.T) {
	doneA, doneB, myri, quad, lenA, lenB := simReceiveCosts(t)
	arrivalB := quad.SendCPUTime(model.Eager, lenB) + quad.WireLatency
	copyA := time.Duration(float64(lenA) / myri.RecvCopyRate * 1e9) // the CopyCPU simnet annotates
	if arrivalB >= doneA+copyA {
		t.Fatalf("setup: second frame lands at %v, after the first copy ends (%v)", arrivalB, doneA+copyA)
	}
	if want := doneA + copyA + quad.RecvOverhead; doneB != want {
		t.Fatalf("second receive completed at %v, want %v: CopyCPU delays the next delivery on the worker", doneB, want)
	}
}

// An offloaded chunk of a parallel eager send is posted by another worker
// exactly model.OffloadSyncCost after the strategy decided to split — the
// T_O of the paper's equation (1).
func TestParallelEagerChunkPostsAfterSyncCost(t *testing.T) {
	col := trace.NewCollector()
	env, eng := pair(t, Config{EagerParallel: true, Tracer: col})
	const size = 16 << 10
	env.Go("app", func(ctx rt.Ctx) {
		ctx.Sleep(5 * time.Microsecond)
		rr := eng[1].Irecv(0, 1, make([]byte, size))
		eng[0].Isend(1, 1, make([]byte, size))
		rr.Wait(ctx)
	})
	env.Run()
	if st := eng[0].Stats(); st.EagerParallel != 1 {
		t.Fatalf("message not sent in parallel: %+v", st)
	}
	var decided time.Duration = -1
	for _, ev := range col.Of(trace.Decision) {
		if strings.HasPrefix(ev.Note, "parallel eager") {
			decided = ev.At
		}
	}
	if decided < 0 {
		t.Fatal("no parallel eager decision traced")
	}
	for r := 0; r < eng[0].node.NumRails(); r++ {
		st := eng[0].node.Rail(r).Stats()
		if st.Messages != 1 {
			t.Fatalf("rail %d carried %d chunks, want 1", r, st.Messages)
		}
		if want := decided + model.OffloadSyncCost; st.LastStart != want {
			t.Fatalf("rail %d chunk posted at %v, want %v (decision at %v + %v)", r, st.LastStart, want, decided, model.OffloadSyncCost)
		}
	}
}
