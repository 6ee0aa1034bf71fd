package livenet_test

import (
	"bytes"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/livenet"
	"repro/internal/rt"
	"repro/internal/sampling"
)

// waitOrFatal bounds a live-mode wait so a wedged transfer fails the test
// instead of hanging it.
func waitOrFatal(t *testing.T, what string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s timed out", what)
	}
}

// tcpProfiles builds deterministic sampled profiles under which the
// eager path wins for every size the eager cap admits, so sizes at or
// below EagerMax go eager and larger ones go rendezvous.
func tcpProfiles(nrails, eagerMax int) []*sampling.RailProfile {
	eager, err := sampling.NewTable([]sampling.Sample{
		{Size: 4, T: 5 * time.Microsecond},
		{Size: eagerMax, T: 30 * time.Microsecond},
	})
	if err != nil {
		panic(err)
	}
	rdv, err := sampling.NewTable([]sampling.Sample{
		{Size: 4, T: 100 * time.Microsecond},
		{Size: 8 << 20, T: 10 * time.Millisecond},
	})
	if err != nil {
		panic(err)
	}
	out := make([]*sampling.RailProfile, nrails)
	for r := range out {
		out[r] = &sampling.RailProfile{
			Rail: r, Name: "tcp", Eager: eager, Rdv: rdv, EagerMax: eagerMax,
		}
	}
	return out
}

// engineOn builds a core engine for one hosted node of a live fabric.
func engineOn(t *testing.T, env rt.Env, f fabric.Fabric, node int, profs []*sampling.RailProfile) *core.Engine {
	t.Helper()
	// Deliveries feed the engine's per-core workers straight from the
	// connection readers, so the chaos tests exercise the multicore
	// progression path.
	eng, err := core.NewEngine(env, f.Node(node), profs, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Stop)
	return eng
}

// The eager path: small messages to one destination ride the engine's
// aggregation over the TCP rails and arrive intact.
func TestEngineEagerOverTCP(t *testing.T) {
	env := rt.NewLive()
	f, err := livenet.NewLoopback(env, livenet.Config{Nodes: 2, Rails: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	profs := tcpProfiles(2, 32<<10)
	eng0 := engineOn(t, env, f, 0, profs)
	eng1 := engineOn(t, env, f, 1, profs)

	const flows = 8
	payloads := make([][]byte, flows)
	bufs := make([][]byte, flows)
	rng := rand.New(rand.NewSource(11))
	for i := range payloads {
		payloads[i] = make([]byte, rng.Intn(4<<10)+1)
		rng.Read(payloads[i])
		bufs[i] = make([]byte, len(payloads[i]))
	}
	done := make(chan struct{})
	env.Go("app", func(ctx rt.Ctx) {
		defer close(done)
		reqs := make([]*core.RecvRequest, flows)
		for i := range reqs {
			reqs[i] = eng1.Irecv(0, uint32(i), bufs[i])
		}
		for i := range payloads {
			eng0.Isend(1, uint32(i), payloads[i])
		}
		for i, r := range reqs {
			if n, err := r.Wait(ctx); err != nil || n != len(payloads[i]) {
				t.Errorf("flow %d: n=%d err=%v", i, n, err)
			}
		}
	})
	waitOrFatal(t, "eager flows", done)
	for i := range payloads {
		if !bytes.Equal(bufs[i], payloads[i]) {
			t.Fatalf("flow %d corrupted", i)
		}
	}
	st := eng0.Stats()
	if st.EagerSent != flows || st.RdvSent != 0 {
		t.Fatalf("expected all-eager traffic: %+v", st)
	}
}

// The rendezvous path: a large message handshakes, is striped by the
// splitter, and every configured rail moves real bytes.
func TestEngineRendezvousStripesBothRails(t *testing.T) {
	env := rt.NewLive()
	f, err := livenet.NewLoopback(env, livenet.Config{Nodes: 2, Rails: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	profs := tcpProfiles(2, 32<<10)
	eng0 := engineOn(t, env, f, 0, profs)
	eng1 := engineOn(t, env, f, 1, profs)

	n := 4 << 20
	payload := make([]byte, n)
	rand.New(rand.NewSource(42)).Read(payload)
	buf := make([]byte, n)
	done := make(chan struct{})
	env.Go("app", func(ctx rt.Ctx) {
		defer close(done)
		rr := eng1.Irecv(0, 9, buf)
		sr := eng0.Isend(1, 9, payload)
		if got, err := rr.Wait(ctx); err != nil || got != n {
			t.Errorf("recv n=%d err=%v", got, err)
		}
		sr.Wait(ctx)
	})
	waitOrFatal(t, "rendezvous", done)
	if !bytes.Equal(buf, payload) {
		t.Fatal("payload corrupted across striped TCP rails")
	}
	st := eng0.Stats()
	if st.RdvSent != 1 || st.ChunksSent < 2 {
		t.Fatalf("stats %+v, want 1 rendezvous striped into >=2 chunks", st)
	}
	for r := 0; r < 2; r++ {
		if b := f.Node(0).Rail(r).Stats().Bytes; b == 0 {
			t.Fatalf("rail %d moved no bytes; striping should use both rails", r)
		}
	}
}

// Start-up sampling runs on the live fabric itself and yields usable
// estimator tables measured from genuine TCP transfers.
func TestSampleLiveMeasuresRealRails(t *testing.T) {
	env := rt.NewLive()
	f, err := livenet.NewLoopback(env, livenet.Config{Nodes: 2, Rails: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	profs, err := sampling.SampleLive(f, sampling.Config{MinSize: 64, MaxSize: 64 << 10, Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != 2 {
		t.Fatalf("%d profiles", len(profs))
	}
	for r, p := range profs {
		if p.EagerMax != 32<<10 {
			t.Fatalf("rail %d EagerMax %d", r, p.EagerMax)
		}
		if est := p.Estimate(4 << 10); est <= 0 {
			t.Fatalf("rail %d estimate %v", r, est)
		}
		if thr := p.Threshold(); thr <= 0 {
			t.Fatalf("rail %d threshold %d", r, thr)
		}
	}
}

// Two fabrics connected like two processes: node 0 listens, node 1
// dials; eager and rendezvous traffic flows both ways.
func TestDistributedPairExchanges(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	env0, env1 := rt.NewLive(), rt.NewLive()
	f0c := make(chan *livenet.Fabric, 1)
	go func() {
		f, err := livenet.NewDistributed(env0, 0, livenet.Config{Nodes: 2, Rails: 2, Listener: ln})
		if err != nil {
			t.Error(err)
			f0c <- nil
			return
		}
		f0c <- f
	}()
	f1, err := livenet.NewDistributed(env1, 1, livenet.Config{
		Nodes: 2, Rails: 2, Peers: map[int]string{0: ln.Addr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f1.Close()
	f0 := <-f0c
	if f0 == nil {
		t.FailNow()
	}
	defer f0.Close()

	profs := tcpProfiles(2, 32<<10)
	eng0 := engineOn(t, env0, f0, 0, profs)
	eng1 := engineOn(t, env1, f1, 1, profs)

	big := make([]byte, 1<<20)
	rand.New(rand.NewSource(3)).Read(big)
	bigBuf := make([]byte, len(big))
	smallBuf := make([]byte, 64)
	done0, done1 := make(chan struct{}), make(chan struct{})
	env0.Go("node0", func(ctx rt.Ctx) {
		defer close(done0)
		rr := eng0.Irecv(1, 2, smallBuf)
		eng0.Isend(1, 1, big)
		if n, err := rr.Wait(ctx); err != nil || n != 5 {
			t.Errorf("node0 recv n=%d err=%v", n, err)
		}
	})
	env1.Go("node1", func(ctx rt.Ctx) {
		defer close(done1)
		rr := eng1.Irecv(0, 1, bigBuf)
		eng1.Isend(0, 2, []byte("hello"))
		if n, err := rr.Wait(ctx); err != nil || n != len(big) {
			t.Errorf("node1 recv n=%d err=%v", n, err)
		}
	})
	waitOrFatal(t, "node0 exchange", done0)
	waitOrFatal(t, "node1 exchange", done1)
	if !bytes.Equal(bigBuf, big) {
		t.Fatal("distributed rendezvous payload corrupted")
	}
	if string(smallBuf[:5]) != "hello" {
		t.Fatalf("distributed eager payload %q", smallBuf[:5])
	}
	// Remote stubs guard against misuse.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("remote node rail access did not panic")
			}
		}()
		f1.Node(0).Rail(0)
	}()
}

// A peer dying without the goodbye handshake IS recorded, so a hung run
// has a diagnostic in Err.
func TestPeerDeathRecordsErr(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f0c := make(chan *livenet.Fabric, 1)
	go func() {
		f, err := livenet.NewDistributed(rt.NewLive(), 0, livenet.Config{Nodes: 2, Rails: 1, Listener: ln})
		if err != nil {
			t.Error(err)
			f0c <- nil
			return
		}
		f0c <- f
	}()
	// A raw "process" that handshakes rail 0 and then dies abruptly.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	hello := []byte{'N', 'M', 'T', 'R', 1, 0, 0, 0, 0}
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	f0 := <-f0c
	if f0 == nil {
		t.FailNow()
	}
	defer f0.Close()
	conn.Close() // abrupt death: no goodbye
	deadline := time.Now().Add(5 * time.Second)
	for f0.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if f0.Err() == nil {
		t.Fatal("peer death left Err nil")
	}
}
