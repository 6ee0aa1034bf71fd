package shmnet_test

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/rt"
	"repro/internal/sampling"
	"repro/internal/shmnet"
)

// waitOrFatal bounds a live-mode wait so a wedged transfer fails the
// test instead of hanging it.
func waitOrFatal(t *testing.T, what string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s timed out", what)
	}
}

// shmProfiles builds deterministic sampled profiles under which sizes up
// to eagerMax go eager and larger ones go rendezvous.
func shmProfiles(nrails, eagerMax int) []*sampling.RailProfile {
	eager, err := sampling.NewTable([]sampling.Sample{
		{Size: 4, T: 1 * time.Microsecond},
		{Size: eagerMax, T: 10 * time.Microsecond},
	})
	if err != nil {
		panic(err)
	}
	rdv, err := sampling.NewTable([]sampling.Sample{
		{Size: 4, T: 50 * time.Microsecond},
		{Size: 8 << 20, T: 5 * time.Millisecond},
	})
	if err != nil {
		panic(err)
	}
	out := make([]*sampling.RailProfile, nrails)
	for r := range out {
		out[r] = &sampling.RailProfile{
			Rail: r, Name: "shm", Eager: eager, Rdv: rdv, EagerMax: eagerMax,
		}
	}
	return out
}

func engineOn(t *testing.T, env rt.Env, f fabric.Fabric, node int, profs []*sampling.RailProfile) *core.Engine {
	t.Helper()
	eng, err := core.NewEngine(env, f.Node(node), profs, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Stop)
	return eng
}

// The engine over shm: eager flows and a striped rendezvous arrive
// intact, and every rail moves bytes.
func TestEngineOverShmRails(t *testing.T) {
	env := rt.NewLive()
	f, err := shmnet.NewHosted(env, shmnet.Config{Nodes: 2, Rails: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	profs := shmProfiles(2, 32<<10)
	eng0 := engineOn(t, env, f, 0, profs)
	eng1 := engineOn(t, env, f, 1, profs)

	const flows = 8
	rng := rand.New(rand.NewSource(11))
	payloads := make([][]byte, flows)
	bufs := make([][]byte, flows)
	for i := range payloads {
		payloads[i] = make([]byte, rng.Intn(4<<10)+1)
		rng.Read(payloads[i])
		bufs[i] = make([]byte, len(payloads[i]))
	}
	big := make([]byte, 4<<20)
	rng.Read(big)
	bigBuf := make([]byte, len(big))

	done := make(chan struct{})
	env.Go("app", func(ctx rt.Ctx) {
		defer close(done)
		reqs := make([]*core.RecvRequest, flows)
		for i := range reqs {
			reqs[i] = eng1.Irecv(0, uint32(i), bufs[i])
		}
		bigReq := eng1.Irecv(0, 99, bigBuf)
		for i := range payloads {
			eng0.Isend(1, uint32(i), payloads[i])
		}
		sr := eng0.Isend(1, 99, big)
		for i, r := range reqs {
			if n, err := r.Wait(ctx); err != nil || n != len(payloads[i]) {
				t.Errorf("flow %d: n=%d err=%v", i, n, err)
			}
		}
		if n, err := bigReq.Wait(ctx); err != nil || n != len(big) {
			t.Errorf("big: n=%d err=%v", n, err)
		}
		sr.RemoteDone().Wait(ctx)
	})
	waitOrFatal(t, "shm engine traffic", done)
	for i := range payloads {
		if !bytes.Equal(bufs[i], payloads[i]) {
			t.Fatalf("flow %d corrupted", i)
		}
	}
	if !bytes.Equal(bigBuf, big) {
		t.Fatal("rendezvous payload corrupted")
	}
	st := eng0.Stats()
	if st.EagerSent != flows || st.RdvSent != 1 {
		t.Fatalf("protocol mix: %+v", st)
	}
	moved := 0
	for r := 0; r < 2; r++ {
		if b := f.Node(0).Rail(r).Stats().Bytes; b > 0 {
			moved++
		}
	}
	if moved != 2 {
		t.Fatalf("only %d of 2 shm rails moved bytes", moved)
	}
}

// FailRail mid-rendezvous: the frames in flight on the killed rail are
// lost, the engine fails the unacknowledged chunks over to the surviving
// rail, and the payload still arrives intact. EnableRail then revives
// the lane.
func TestChaosShmRailDiesMidTransfer(t *testing.T) {
	// A buffer recycled while something still reads it shows as a
	// corrupted payload.
	fabric.SetRecyclePoison(true)
	defer fabric.SetRecyclePoison(false)
	env := rt.NewLive()
	f, err := shmnet.NewHosted(env, shmnet.Config{Nodes: 2, Rails: 2, RingBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	profs := shmProfiles(2, 32<<10)
	eng0 := engineOn(t, env, f, 0, profs)
	eng1 := engineOn(t, env, f, 1, profs)

	payload := make([]byte, 8<<20)
	rand.New(rand.NewSource(3)).Read(payload)
	buf := make([]byte, len(payload))

	done := make(chan struct{})
	killed := make(chan struct{})
	var killOnce sync.Once
	env.Go("app", func(ctx rt.Ctx) {
		defer close(done)
		rr := eng1.Irecv(0, 42, buf)
		sr := eng0.Isend(1, 42, payload)
		// Kill rail 0 while chunks are streaming through its small rings.
		go killOnce.Do(func() {
			defer close(killed)
			time.Sleep(2 * time.Millisecond)
			f.FailRail(0, 0)
		})
		if n, err := rr.Wait(ctx); err != nil || n != len(payload) {
			t.Errorf("recv: n=%d err=%v", n, err)
		}
		sr.RemoteDone().Wait(ctx)
	})
	waitOrFatal(t, "chaos transfer", done)
	<-killed // on a loaded host the transfer can beat the killer to the finish
	if !bytes.Equal(buf, payload) {
		t.Fatal("payload corrupted across the failover")
	}
	if st := f.Node(0).Rail(0).State(); st != fabric.RailDown {
		t.Fatalf("killed rail state %v, want down", st)
	}
	// Everything the killed ring swallowed was replayed and acknowledged,
	// and the placements it cut short were aborted, not left claiming
	// their ranges.
	if out := eng0.OutstandingUnits(); out != 0 {
		t.Fatalf("%d units still outstanding", out)
	}
	if c := eng1.InflightClaims(); c != 0 {
		t.Fatalf("%d receive ranges still claimed after the transfer", c)
	}

	// Revive: traffic flows over the lane again.
	f.Node(0).Health().Enable(0)
	f.Node(1).Health().Enable(0)
	done2 := make(chan struct{})
	env.Go("after-revive", func(ctx rt.Ctx) {
		defer close(done2)
		small := []byte("revived lane")
		rr := eng1.Irecv(0, 43, make([]byte, len(small)))
		eng0.Isend(1, 43, small)
		if n, err := rr.Wait(ctx); err != nil || n != len(small) {
			t.Errorf("post-revive recv: n=%d err=%v", n, err)
		}
	})
	waitOrFatal(t, "post-revive traffic", done2)
}

// The mmap-backed distributed shape: two fabrics in one test process,
// each hosting one node, joined by ring files — the examples/tcp2proc
// deployment without the second OS process.
func TestDistributedPairOverMmapRings(t *testing.T) {
	dir := t.TempDir()
	cfg := shmnet.Config{Nodes: 2, Rails: 2, Dir: dir, RingBytes: 32 << 10}

	envA := rt.NewLive()
	envB := rt.NewLive()
	var fa, fb *shmnet.Fabric
	var ea, eb error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); fa, ea = shmnet.NewDistributed(envA, 0, cfg) }()
	go func() { defer wg.Done(); fb, eb = shmnet.NewDistributed(envB, 1, cfg) }()
	wg.Wait()
	if ea != nil || eb != nil {
		t.Fatalf("attach: %v / %v", ea, eb)
	}
	defer fa.Close()
	defer fb.Close()

	profs := shmProfiles(2, 32<<10)
	eng0 := engineOn(t, envA, fa, 0, profs)
	eng1 := engineOn(t, envB, fb, 1, profs)

	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(5)).Read(payload)
	buf := make([]byte, len(payload))
	done := make(chan struct{})
	envB.Go("recv", func(ctx rt.Ctx) {
		defer close(done)
		rr := eng1.Irecv(0, 7, buf)
		if n, err := rr.Wait(ctx); err != nil || n != len(payload) {
			t.Errorf("recv: n=%d err=%v", n, err)
		}
	})
	acked := make(chan struct{})
	envA.Go("send", func(ctx rt.Ctx) {
		defer close(acked)
		sr := eng0.Isend(1, 7, payload)
		sr.RemoteDone().Wait(ctx)
	})
	waitOrFatal(t, "cross-fabric transfer", done)
	if !bytes.Equal(buf, payload) {
		t.Fatal("payload corrupted across the mmap rings")
	}
	// The acks trail the receive; closing the fabrics under them would
	// strand the sender on RemoteDone.
	waitOrFatal(t, "remote completion", acked)
}

// A FailRail in one process must reach the peer process through the
// ring status word: the peer's next send on the lane is dropped AND its
// health tracker reports the rail Down, so its engine replans instead
// of waiting forever for an ack that cannot come.
func TestRemoteFailRailReportsDownOnSender(t *testing.T) {
	dir := t.TempDir()
	cfg := shmnet.Config{Nodes: 2, Rails: 2, Dir: dir, RingBytes: 16 << 10}

	envA := rt.NewLive()
	envB := rt.NewLive()
	var fa, fb *shmnet.Fabric
	var ea, eb error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); fa, ea = shmnet.NewDistributed(envA, 0, cfg) }()
	go func() { defer wg.Done(); fb, eb = shmnet.NewDistributed(envB, 1, cfg) }()
	wg.Wait()
	if ea != nil || eb != nil {
		t.Fatalf("attach: %v / %v", ea, eb)
	}
	defer fa.Close()
	defer fb.Close()

	// Process A kills rail 0. Process B has seen no traffic on it.
	fa.FailRail(0, 0)
	if st := fa.Node(0).Rail(0).State(); st != fabric.RailDown {
		t.Fatalf("killer's rail state %v, want down", st)
	}
	if st := fb.Node(1).Rail(0).State(); st != fabric.RailUp {
		t.Fatalf("peer's rail already %v before touching the lane", st)
	}

	// B's next send on the lane observes the status word.
	done := make(chan struct{})
	envB.Go("send", func(ctx rt.Ctx) {
		defer close(done)
		fb.Node(1).Rail(0).SendEager(ctx, 0, []byte("dropped"))
	})
	waitOrFatal(t, "send on killed lane", done)
	deadline := time.Now().Add(5 * time.Second)
	for fb.Node(1).Rail(0).State() != fabric.RailDown {
		if time.Now().After(deadline) {
			t.Fatalf("peer never reported the remotely killed rail Down (state %v)",
				fb.Node(1).Rail(0).State())
		}
		time.Sleep(time.Millisecond)
	}
	// The surviving rail still works.
	done2 := make(chan struct{})
	var got *fabric.Delivery
	envA.Go("recv", func(ctx rt.Ctx) {
		defer close(done2)
		got = fa.Node(0).RecvQ().Pop(ctx).(*fabric.Delivery)
	})
	envB.Go("send2", func(ctx rt.Ctx) {
		fb.Node(1).Rail(1).SendEager(ctx, 0, []byte("survivor"))
	})
	waitOrFatal(t, "survivor rail", done2)
	if got.Rail != 1 || !bytes.Equal(got.Data, []byte("survivor")) {
		t.Fatalf("survivor delivery %+v", got)
	}

	// Cross-process revive: the killer enables the rail (reopening the
	// rings); the peer — which observed the kill only through its
	// writer — must come back Up when traffic flows to it again.
	fa.Node(0).Health().Enable(0)
	done3 := make(chan struct{})
	envB.Go("recv-revived", func(ctx rt.Ctx) {
		defer close(done3)
		d := fb.Node(1).RecvQ().Pop(ctx).(*fabric.Delivery)
		if d.Rail != 0 || !bytes.Equal(d.Data, []byte("revived")) {
			t.Errorf("revived delivery %+v", d)
		}
	})
	envA.Go("send-revived", func(ctx rt.Ctx) {
		fa.Node(0).Rail(0).SendEager(ctx, 1, []byte("revived"))
	})
	waitOrFatal(t, "revived lane traffic", done3)
	deadline = time.Now().Add(5 * time.Second)
	for fb.Node(1).Rail(0).State() != fabric.RailUp {
		if time.Now().After(deadline) {
			t.Fatalf("peer never reported the revived rail Up (state %v)", fb.Node(1).Rail(0).State())
		}
		time.Sleep(time.Millisecond)
	}
}
