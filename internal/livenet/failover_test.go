package livenet_test

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/livenet"
	"repro/internal/rt"
	"repro/internal/trace"
)

// waitState polls until the rail reaches the wanted state or the
// deadline passes.
func waitState(t *testing.T, f *livenet.Fabric, node, rail int, want fabric.RailState) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if got := f.Node(node).Rail(rail).State(); got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %d rail %d never reached %v (now %v)",
				node, rail, want, f.Node(node).Rail(rail).State())
		}
		time.Sleep(time.Millisecond)
	}
}

// The live chaos scenario: one of three TCP rails is hard-killed (no
// goodbye, connections severed) while a large striped rendezvous is in
// flight. The transfer completes byte-identical on the survivors, and
// the rail counters show the remaining traffic moved there.
//
// The kill fires from an event, not from a poll: the sender's tracer
// signals the first chunk posted on the victim, and the victim runs ten
// times slower than its siblings, so its stripe is still on the wire when
// the kill lands.
func TestChaosTCPRailDiesMidTransfer(t *testing.T) {
	env := rt.NewLive()
	f, err := livenet.NewLoopback(env, livenet.Config{Nodes: 2, Rails: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const victim = 1
	posted := &chunkSignal{rail: victim, posted: make(chan struct{})}
	profs := tcpProfiles(3, 32<<10)
	eng0, err := core.NewEngine(env, f.Node(0), profs, core.Config{Tracer: posted})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng0.Stop)
	eng1 := engineOn(t, env, f, 1, profs)
	f.ThrottleRail(victim, 10)

	n := 32 << 20
	payload := make([]byte, n)
	rand.New(rand.NewSource(99)).Read(payload)
	buf := make([]byte, n)

	done := make(chan struct{})
	var got int
	var rerr error
	var sr *core.SendRequest
	env.Go("app", func(ctx rt.Ctx) {
		defer close(done)
		rr := eng1.Irecv(0, 21, buf)
		sr = eng0.Isend(1, 21, payload)
		got, rerr = rr.Wait(ctx)
	})

	// Kill the victim rail once its stripe is posted: mid-message, with
	// the chunk queued or on the (throttled) wire.
	select {
	case <-posted.posted:
	case <-time.After(15 * time.Second):
		t.Fatal("no chunk posted on the victim rail; striping broken?")
	}
	f.FailRail(0, victim)

	waitOrFatal(t, "failover transfer", done)
	if rerr != nil || got != n {
		t.Fatalf("recv n=%d err=%v", got, rerr)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("payload corrupted across TCP rail failover")
	}
	if st := eng0.Stats(); st.FailedOver == 0 {
		t.Fatalf("no units failed over: %+v", st)
	}
	if f.Node(0).Rail(victim).State() != fabric.RailDown {
		t.Fatalf("victim state %v", f.Node(0).Rail(victim).State())
	}
	// The remaining bytes moved on the survivors. A writer accounts its
	// frame after handing it to the socket, so the receiver can finish
	// first: wait for the counters to catch up.
	var survivors, lost uint64
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		survivors, lost = 0, f.Node(0).Rail(victim).Stats().Bytes
		for r := 0; r < 3; r++ {
			if r != victim {
				survivors += f.Node(0).Rail(r).Stats().Bytes
			}
		}
		if survivors+lost >= uint64(n) || time.Now().After(deadline) {
			break
		}
	}
	if survivors+lost < uint64(n) {
		t.Fatalf("rails carried %d+%d bytes of a %d-byte message", survivors, lost, n)
	}
	if survivors == 0 {
		t.Fatal("survivors moved no bytes")
	}
	// The dead rail kept none of the message to itself: everything it
	// may have dropped was re-sent, so the sender's remote completion
	// fires and nothing stays outstanding.
	waited := make(chan struct{})
	env.Go("acks", func(ctx rt.Ctx) {
		defer close(waited)
		sr.RemoteDone().Wait(ctx)
	})
	waitOrFatal(t, "remote completion", waited)
	if out := eng0.OutstandingUnits(); out != 0 {
		t.Fatalf("%d units still outstanding", out)
	}
	// The placement the dead connection cut short was aborted, not left
	// claiming its range.
	if c := eng1.InflightClaims(); c != 0 {
		t.Fatalf("%d receive ranges still claimed after the transfer", c)
	}
}

// A stream of eager messages survives a rail kill mid-stream: lost
// containers are replayed on survivors and none delivers twice.
func TestChaosTCPRailDiesMidEagerStream(t *testing.T) {
	// Containers lost with the rail are replayed while their originals may
	// still be acknowledged: a frame recycled under a replay, or a receive
	// frame reused under a queued packet, shows as a corrupted flow.
	fabric.SetRecyclePoison(true)
	defer fabric.SetRecyclePoison(false)
	env := rt.NewLive()
	f, err := livenet.NewLoopback(env, livenet.Config{Nodes: 2, Rails: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	profs := tcpProfiles(2, 32<<10)
	eng0 := engineOn(t, env, f, 0, profs)
	eng1 := engineOn(t, env, f, 1, profs)

	const flows = 64
	payloads := make([][]byte, flows)
	bufs := make([][]byte, flows)
	rng := rand.New(rand.NewSource(5))
	for i := range payloads {
		payloads[i] = make([]byte, 8<<10)
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
		sends := make([]*core.SendRequest, flows)
		for i := range payloads {
			sends[i] = eng0.Isend(1, uint32(i), payloads[i])
			if i == flows/2 {
				f.FailRail(0, 0) // mid-stream
			}
		}
		for i, r := range reqs {
			if n, err := r.Wait(ctx); err != nil || n != len(payloads[i]) {
				t.Errorf("flow %d: n=%d err=%v", i, n, err)
			}
		}
		for _, s := range sends {
			s.RemoteDone().Wait(ctx)
		}
	})
	waitOrFatal(t, "eager stream failover", done)
	for i := range payloads {
		if !bytes.Equal(bufs[i], payloads[i]) {
			t.Fatalf("flow %d corrupted", i)
		}
	}
	// Quiescent: every container was acknowledged or replayed exactly once.
	if out := eng0.OutstandingUnits(); out != 0 {
		t.Fatalf("%d units still outstanding", out)
	}
	if c := eng1.InflightClaims(); c != 0 {
		t.Fatalf("%d receive ranges still claimed", c)
	}
}

// A severed connection (no kill flag) recovers: the rail turns Suspect,
// the dialing side re-establishes the link within the reconnect budget,
// and the rail comes back Up and carries traffic again.
func TestDroppedLinkReconnects(t *testing.T) {
	env := rt.NewLive()
	f, err := livenet.NewLoopback(env, livenet.Config{
		Nodes: 2, Rails: 2, ReconnectAttempts: 5, ReconnectDelay: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Sever node 1's rail-1 endpoint: node 1 is the dialing side of the
	// pair, so it re-dials through the persistent accept loop. Wait for
	// the readers to notice (Err turns non-nil) before waiting for Up:
	// polling for Up right away can observe the original Up state before
	// the drop was even detected.
	f.DropLink(1, 0, 1)
	deadline := time.Now().Add(15 * time.Second)
	for f.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("severed connection left no diagnostic in Err")
		}
		time.Sleep(time.Millisecond)
	}
	// Err may have been set by node 0's reader while node 1 still shows
	// the original Up: wait for node 1's own re-dial before trusting Up.
	for f.Node(1).Rail(1).Stats().Reconnects == 0 {
		if time.Now().After(deadline) {
			t.Fatal("severed connection was never re-dialed")
		}
		time.Sleep(time.Millisecond)
	}
	waitState(t, f, 1, 1, fabric.RailUp)
	// The reconnected rail moves real bytes again.
	payload := []byte("back from the dead")
	done := make(chan struct{})
	var got *fabric.Delivery
	env.Go("recv", func(ctx rt.Ctx) {
		defer close(done)
		got = f.Node(0).RecvQ().Pop(ctx).(*fabric.Delivery)
	})
	env.Go("send", func(ctx rt.Ctx) {
		f.Node(1).Rail(1).SendEager(ctx, 0, payload)
	})
	waitOrFatal(t, "post-reconnect frame", done)
	if got.Rail != 1 || !bytes.Equal(got.Data, payload) {
		t.Fatalf("delivery %+v", got)
	}
}

// Reconnection is bounded: when the peer is gone for good the rail
// passes through Suspect and settles Down.
func TestReconnectExhaustionGoesDown(t *testing.T) {
	env := rt.NewLive()
	f, err := livenet.NewLoopback(env, livenet.Config{
		Nodes: 2, Rails: 2, ReconnectAttempts: 2, ReconnectDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Node 0 owns the accepting side of the pair: it cannot re-dial, so
	// severing ITS endpoint while suppressing the peer's own recovery
	// (kill flag on node 1 only would heal it; instead sever node 0 and
	// keep node 1 from re-dialing by killing the lane) must end Down.
	f.FailRail(1, 0)
	waitState(t, f, 0, 0, fabric.RailDown)
	waitState(t, f, 1, 0, fabric.RailDown)
}

// chunkSignal is a tracer that closes posted at the first rendezvous
// chunk posted on rail. Record runs on engine goroutines and never blocks.
type chunkSignal struct {
	rail   int
	once   sync.Once
	posted chan struct{}
}

func (s *chunkSignal) Record(ev trace.Event) {
	if ev.Kind == trace.ChunkPosted && ev.Rail == s.rail {
		s.once.Do(func() { close(s.posted) })
	}
}
