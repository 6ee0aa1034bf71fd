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
	// DirectProgress matches what multirail configures on the TCP
	// fabric: deliveries feed the engine's per-core workers straight
	// from the connection readers, so the chaos tests exercise the
	// multicore progression path.
	eng, err := core.NewEngine(env, f.Node(node), profs, core.Config{DirectProgress: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Stop)
	return eng
}

// Raw fabric: a frame pushed on a rail arrives at the peer's receive
// queue with the right origin, rail and bytes.
func TestRawFrameCrossesTCP(t *testing.T) {
	env := rt.NewLive()
	f, err := livenet.NewLoopback(env, livenet.Config{Nodes: 2, Rails: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	payload := []byte("real bytes over real TCP")
	done := make(chan struct{})
	var got *fabric.Delivery
	env.Go("recv", func(ctx rt.Ctx) {
		defer close(done)
		got = f.Node(1).RecvQ().Pop(ctx).(*fabric.Delivery)
	})
	sent := env.NewEvent()
	env.Go("send", func(ctx rt.Ctx) {
		f.Node(0).Rail(1).SendData(ctx, 1, payload, sent)
	})
	waitOrFatal(t, "raw frame", done)
	if got.From != 0 || got.Rail != 1 || !bytes.Equal(got.Data, payload) {
		t.Fatalf("delivery %+v", got)
	}
	// The writer accounts the frame after handing it over — the receiver
	// can win that race; sent fires once the counters are in.
	sent.Wait(nil)
	st := f.Node(0).Rail(1).Stats()
	if st.Messages != 1 || st.Bytes != uint64(len(payload)) {
		t.Fatalf("sender stats %+v", st)
	}
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

// IdleAt reports a horizon while bytes are queued and returns to "now"
// once the writer drains.
func TestIdleAtDrains(t *testing.T) {
	env := rt.NewLive()
	f, err := livenet.NewLoopback(env, livenet.Config{Nodes: 2, Rails: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rail := f.Node(0).Rail(0)
	done := make(chan struct{})
	env.Go("drain", func(ctx rt.Ctx) {
		defer close(done)
		for i := 0; i < 4; i++ {
			f.Node(1).RecvQ().Pop(ctx)
		}
	})
	env.Go("send", func(ctx rt.Ctx) {
		for i := 0; i < 4; i++ {
			rail.SendData(ctx, 1, make([]byte, 1<<20), nil)
		}
	})
	waitOrFatal(t, "drain", done)
	deadline := time.Now().Add(5 * time.Second)
	for rail.Busy() {
		if time.Now().After(deadline) {
			t.Fatal("rail never drained")
		}
		time.Sleep(time.Millisecond)
	}
	if at, now := rail.IdleAt(), env.Now(); at > now+time.Millisecond {
		t.Fatalf("idle rail predicts horizon %v past now %v", at, now)
	}
}

// Close is idempotent and leaves no goroutine blocked on a send.
func TestCloseReleasesSenders(t *testing.T) {
	env := rt.NewLive()
	f, err := livenet.NewLoopback(env, livenet.Config{Nodes: 2, Rails: 1})
	if err != nil {
		t.Fatal(err)
	}
	ev := env.NewEvent()
	done := make(chan struct{})
	env.Go("send", func(ctx rt.Ctx) {
		defer close(done)
		f.Node(0).Rail(0).SendData(ctx, 1, make([]byte, 1024), ev)
		ev.Wait(ctx)
	})
	waitOrFatal(t, "send before close", done)
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// A peer's graceful Close is not a transport error: the goodbye
// sentinel tells the survivor this was a shutdown, not a death.
func TestGracefulPeerCloseIsNotAnError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f0c := make(chan *livenet.Fabric, 1)
	go func() {
		f, err := livenet.NewDistributed(rt.NewLive(), 0, livenet.Config{Nodes: 2, Rails: 2, Listener: ln})
		if err != nil {
			t.Error(err)
			f0c <- nil
			return
		}
		f0c <- f
	}()
	f1, err := livenet.NewDistributed(rt.NewLive(), 1, livenet.Config{
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
	f0.Close()
	time.Sleep(200 * time.Millisecond) // let f1's readers observe the goodbye
	if err := f1.Err(); err != nil {
		t.Fatalf("graceful peer close reported as error: %v", err)
	}
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

// Frames above the wire limit are refused at the source instead of
// desyncing the stream.
func TestOversizedFramePanics(t *testing.T) {
	env := rt.NewLive()
	f, err := livenet.NewLoopback(env, livenet.Config{Nodes: 2, Rails: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("oversized frame did not panic")
		}
	}()
	huge := make([]byte, (1<<30)+1)
	f.Node(0).Rail(0).SendData(nil, 1, huge, nil)
}

// SetSink (fabric.DirectNode) hands deliveries to the consumer on the
// reader goroutine, bypassing RecvQ; SetSink(nil) restores queue
// delivery. This is how the engine's progress workers are fed directly.
func TestDirectSinkBypassesRecvQ(t *testing.T) {
	env := rt.NewLive()
	f, err := livenet.NewLoopback(env, livenet.Config{Nodes: 2, Rails: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dn, ok := f.Node(1).(fabric.DirectNode)
	if !ok {
		t.Fatal("livenet node does not implement fabric.DirectNode")
	}
	got := make(chan *fabric.Delivery, 1)
	dn.SetSink(func(d *fabric.Delivery) { got <- d })
	env.Go("send", func(ctx rt.Ctx) {
		f.Node(0).Rail(0).SendEager(ctx, 1, []byte("direct"))
	})
	select {
	case d := <-got:
		if string(d.Data) != "direct" || d.From != 0 {
			t.Fatalf("sink delivery %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sink never fed")
	}
	if n := f.Node(1).RecvQ().Len(); n != 0 {
		t.Fatalf("%d deliveries leaked into RecvQ while sink installed", n)
	}
	// Restore queue delivery.
	dn.SetSink(nil)
	env.Go("send2", func(ctx rt.Ctx) {
		f.Node(0).Rail(0).SendEager(ctx, 1, []byte("queued"))
	})
	deadline := time.Now().Add(5 * time.Second)
	for f.Node(1).RecvQ().Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("delivery never reached RecvQ after SetSink(nil)")
		}
		time.Sleep(time.Millisecond)
	}
}
