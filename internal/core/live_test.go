package core

import (
	"bytes"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/livenet"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/rt"
	"repro/internal/shmnet"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// liveFabrics are the two-rail live fabrics the allocation ratchets and
// the round-trip bench run over.
var liveFabrics = []struct {
	name  string
	build func(env *rt.LiveEnv) (fabric.Fabric, error)
}{
	{"shm", func(env *rt.LiveEnv) (fabric.Fabric, error) {
		return shmnet.NewHosted(env, shmnet.Config{Rails: 2})
	}},
	{"tcp", func(env *rt.LiveEnv) (fabric.Fabric, error) {
		return livenet.NewLoopback(env, livenet.Config{Rails: 2})
	}},
}

// livePair builds two engines over f with the pinned liveProfiles and
// the production tracing stack — a FlightRecorder installed as Flight,
// the one always-on event sink, plus a metrics registry — so the
// measured path is the one multirail.New runs.
func livePair(tb testing.TB, env rt.Env, f fabric.Fabric) [2]*Engine {
	tb.Helper()
	var eng [2]*Engine
	for i := range eng {
		var err error
		eng[i], err = NewEngine(env, f.Node(i), liveProfiles(tb), Config{
			Metrics: metrics.NewRegistry(),
			Flight:  trace.NewFlightRecorder(0),
		})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(eng[i].Stop)
	}
	return eng
}

// liveRoundTrip returns the probe the live ratchets and the bench share:
// post the receive, send, wait for delivery and for the remote
// completion, on a fresh tag every time. Live events ignore their Ctx,
// so the probe waits inline and adds no goroutine of its own.
func liveRoundTrip(tb testing.TB, eng [2]*Engine, payload, buf []byte) func() {
	tag := uint32(0)
	return func() {
		rr := eng[1].Irecv(0, tag, buf)
		sr := eng[0].Isend(1, tag, payload)
		if n, err := rr.Wait(nil); err != nil || n != len(payload) {
			tb.Errorf("recv: n=%d err=%v", n, err)
		}
		sr.RemoteDone().Wait(nil)
		tag++
	}
}

// BenchmarkLiveEagerRoundTrip is the one-command profile target of the
// live eager path:
//
//	go test -run '^$' -bench LiveEagerRoundTrip/shm/512 -benchtime 100000x \
//	    -memprofile mem.out -memprofilerate 1 ./internal/core
//	go tool pprof -sample_index=alloc_objects -top mem.out
func BenchmarkLiveEagerRoundTrip(b *testing.B) {
	for _, fab := range liveFabrics {
		for _, size := range []int{512, 8 << 10} {
			name := "512"
			if size != 512 {
				name = "8k"
			}
			b.Run(fab.name+"/"+name, func(b *testing.B) {
				env := rt.NewLive()
				f, err := fab.build(env)
				if err != nil {
					b.Fatal(err)
				}
				defer f.Close()
				eng := livePair(b, env, f)
				payload := make([]byte, size)
				rand.New(rand.NewSource(16)).Read(payload)
				buf := make([]byte, size)
				roundTrip := liveRoundTrip(b, eng, payload, buf)
				for i := 0; i < 100; i++ {
					roundTrip() // warm: ring pages, socket buffers, free lists
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					roundTrip()
				}
				b.StopTimer()
				if !bytes.Equal(buf, payload) {
					b.Fatal("payload corrupted")
				}
			})
		}
	}
}

// A rendezvous whose receive is posted late: the RTS parks — visible as
// nm_rdv_queued = 1 and counted as an unexpected arrival — until Irecv
// matches it, and the CTS then leaves from a pool worker (Irecv owns no
// Ctx, so it queues one work item; no goroutine is started for the message
// — the core/rdv_round_trip_1m ratchet is the guard for that). Mutation
// tried: without the workSendCTS case in work.Do the message never moves.
func TestRendezvousCTSFromLatePostedRecv(t *testing.T) {
	for _, fab := range liveFabrics {
		t.Run(fab.name, func(t *testing.T) {
			env := rt.NewLive()
			f, err := fab.build(env)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			eng := livePair(t, env, f)
			queued := func() float64 {
				return eng[1].cfg.Metrics.Snapshot().Find("nm_rdv_queued", metrics.L("node", "1")...).Value
			}
			payload := make([]byte, 256<<10)
			rand.New(rand.NewSource(20)).Read(payload)
			buf := make([]byte, len(payload))

			if queued() != 0 {
				t.Fatal("nm_rdv_queued is not 0 on an idle engine")
			}
			sr := eng[0].Isend(1, 9, payload)
			eventually(t, "the RTS to park", func() bool { return queued() == 1 })
			st := eng[1].Stats()
			parked := 0
			for _, sh := range st.Shards {
				parked += sh.RdvQueued
			}
			if st.Unexpected != 1 || parked != 1 {
				t.Fatalf("a parked RTS counts as %d unexpected arrivals and %d queued announcements, want 1 and 1", st.Unexpected, parked)
			}

			rr := eng[1].Irecv(0, 9, buf)
			if queued() != 0 {
				t.Fatal("nm_rdv_queued still counts an RTS its receive has matched")
			}
			if !rr.Done().WaitTimeout(nil, 10*time.Second) || !sr.RemoteDone().WaitTimeout(nil, 10*time.Second) {
				t.Fatal("the rendezvous of a late-posted receive never completed: no CTS left")
			}
			if rr.Err() != nil || rr.Len() != len(payload) || !bytes.Equal(buf, payload) {
				t.Fatalf("n=%d err=%v intact=%v", rr.Len(), rr.Err(), bytes.Equal(buf, payload))
			}
			if out := eng[0].OutstandingUnits(); out != 0 {
				t.Fatalf("%d units outstanding after remote completion", out)
			}
		})
	}
}

// cappedNode is a live node whose rails report a chunk limit, as a shm
// rail does whose peer may not copy bodies out of this process
// (fabric.ChunkCapper), and record the largest body they are handed.
type cappedNode struct {
	fabric.Node
	max     int
	biggest *atomic.Int64
}

func (n cappedNode) Rail(i int) fabric.Rail { return cappedRail{n.Node.Rail(i), n} }

type cappedRail struct {
	fabric.Rail
	n cappedNode
}

func (r cappedRail) MaxChunk(int) int { return r.n.max }

func (r cappedRail) SendDataV(ctx rt.Ctx, to int, head, body []byte, done fabric.Completion) {
	for b := r.n.biggest.Load(); int64(len(body)) > b && !r.n.biggest.CompareAndSwap(b, int64(len(body))); {
		b = r.n.biggest.Load()
	}
	r.Rail.SendDataV(ctx, to, head, body, done)
}

// A rendezvous over rails that cap their chunks leaves in chunks no larger
// than the cap — the plan's share of each rail split on that rail — and
// arrives whole, acknowledged chunk by chunk. Mutation tried: without the
// capChunks call in onCTS each rail carries its half in one chunk.
func TestRendezvousChunksRespectRailCap(t *testing.T) {
	env := rt.NewLive()
	f, err := shmnet.NewHosted(env, shmnet.Config{Rails: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const max = 64 << 10
	var biggest atomic.Int64
	var eng [2]*Engine
	for i := range eng {
		node := cappedNode{f.Node(i), max, &biggest}
		if eng[i], err = NewEngine(env, node, liveProfiles(t), Config{}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng[i].Stop)
	}
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(27)).Read(payload)
	buf := make([]byte, len(payload))
	rr := eng[1].Irecv(0, 1, buf)
	sr := eng[0].Isend(1, 1, payload)
	if n, err := rr.Wait(nil); err != nil || n != len(payload) || !bytes.Equal(buf, payload) {
		t.Fatalf("recv: n=%d err=%v, or payload corrupted", n, err)
	}
	sr.RemoteDone().Wait(nil)
	if b := biggest.Load(); b == 0 || b > max {
		t.Fatalf("largest chunk body %d bytes, want at most the rails' cap of %d", b, max)
	}
}

// An idle rail is idle at the decision's stamp: over two idle shm rails
// the engine's views count both, and PlanEager stripes a 32 KiB eager
// message across them (k = 2). A rail that answers a later reading of
// its own clock looks busy to every decision, and the parallel eager
// path then never sees an idle rail.
func TestIdleRailsCountAtDecisionStamp(t *testing.T) {
	env := rt.NewLive()
	f, err := shmnet.NewHosted(env, shmnet.Config{Rails: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	eng := livePair(t, env, f)
	now := env.Now()
	time.Sleep(time.Millisecond) // the clock moves on; the decision's stamp does not
	views := eng[0].railViewsFor(1, now)
	idle := 0
	for _, v := range views {
		if v.IdleAt <= now {
			idle++
		}
	}
	if idle != 2 {
		t.Fatalf("%d of %d idle rails idle at the decision's stamp: %+v", idle, len(views), views)
	}
	plan := strategy.PlanEager(32<<10, now, views, 2, model.OffloadSyncCost)
	if !plan.Parallel || len(plan.Chunks) != 2 {
		t.Fatalf("PlanEager over two idle rails: %+v, want a parallel plan of 2 chunks", plan)
	}
}
