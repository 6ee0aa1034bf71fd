// Package railcoretest is the rail core's contract suite: what every live
// transport over internal/railcore does, written once. Each transport's
// own tests run every suite function on it (livenet on TCP, shmnet on its
// rings, internal/railcore on the two joined) under their own test names,
// and internal/railcore's tests range over Transports. Like testing/fstest
// it is imported by tests only.
//
// Transport-specific behaviour — reconnection, mmap pairs, the ring's wait
// policy — is tested in the transport's package.
package railcoretest

import (
	"bytes"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/livenet"
	"repro/internal/railcore"
	"repro/internal/rt"
	"repro/internal/shmnet"
)

// Fabric is what the suite needs of a live fabric beyond fabric.Fabric.
type Fabric interface {
	fabric.Fabric
	Err() error
	// FailRail kills rail r on every hosted node (the transports' chaos
	// hook).
	FailRail(node, r int)
}

// Transport builds the suite's fabrics of one live transport.
type Transport struct {
	Name string
	// hosted builds a fabric hosting two nodes joined by `rails` rails;
	// ringBytes sizes shm's rings (0: the default) and means nothing to TCP.
	hosted func(env *rt.LiveEnv, rails, ringBytes int) (Fabric, error)
	// pair builds two fabrics hosting one node each, joined like two
	// processes, on the environments given.
	pair func(t *testing.T, env0, env1 *rt.LiveEnv) (f0, f1 Fabric)
}

var (
	// SHM is shmnet: a pair of shared-memory rings per link.
	SHM = Transport{"shm", func(env *rt.LiveEnv, rails, ringBytes int) (Fabric, error) {
		return live(shmnet.NewHosted(env, shmnet.Config{Nodes: 2, Rails: rails, RingBytes: ringBytes}))
	}, shmPair}
	// TCP is livenet: a loopback TCP connection per link.
	TCP = Transport{"tcp", func(env *rt.LiveEnv, rails, _ int) (Fabric, error) {
		return live(livenet.NewLoopback(env, livenet.Config{Nodes: 2, Rails: rails}))
	}, tcpPair}
	// Joined is both, joined by fabric.NewMix into one rail set: hosted, one
	// shm rail (rail 0, rings of ringBytes) and one TCP rail (rail 1),
	// whatever the rail count asked for; as a pair, each side's two
	// distributed fabrics joined.
	Joined = Transport{"joined", joinedHosted, joinedPair}
	// Transports is every live transport.
	Transports = []Transport{SHM, TCP, Joined}
)

// live keeps a failed constructor's nil pointer out of the interface.
func live[F Fabric](f F, err error) (Fabric, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Open builds a fabric of the transport hosting two nodes joined by
// `rails` rails (ringBytes as for the rings; 0 for the default), closed
// when the test ends.
func (tr Transport) Open(tb testing.TB, rails, ringBytes int) (*rt.LiveEnv, Fabric) {
	tb.Helper()
	env := rt.NewLive()
	f, err := tr.hosted(env, rails, ringBytes)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { f.Close() })
	return env, f
}

// Pair builds two fabrics of the transport hosting one node each, joined
// like two processes, on env0 and env1; they close when the test ends.
func (tr Transport) Pair(t *testing.T, env0, env1 *rt.LiveEnv) (f0, f1 Fabric) {
	t.Helper()
	f0, f1 = tr.pair(t, env0, env1)
	t.Cleanup(func() { f0.Close(); f1.Close() })
	return f0, f1
}

func joinedHosted(env *rt.LiveEnv, _, ringBytes int) (Fabric, error) {
	shm, err := shmnet.NewHosted(env, shmnet.Config{Nodes: 2, Rails: 1, RingBytes: ringBytes})
	if err != nil {
		return nil, err
	}
	tcp, err := livenet.NewLoopback(env, livenet.Config{Nodes: 2, Rails: 1})
	if err != nil {
		shm.Close()
		return nil, err
	}
	return join(-1, shm, tcp)
}

func joinedPair(t *testing.T, env0, env1 *rt.LiveEnv) (Fabric, Fabric) {
	s0, s1 := shmPair(t, env0, env1)
	t.Cleanup(func() { s0.Close(); s1.Close() })
	t0, t1 := tcpPair(t, env0, env1)
	t.Cleanup(func() { t0.Close(); t1.Close() })
	f0, err0 := join(0, s0, t0)
	f1, err1 := join(1, s1, t1)
	if err0 != nil || err1 != nil {
		t.Fatalf("join: %v / %v", err0, err1)
	}
	return f0, f1
}

// join is fabric.NewMix for the suite's fabrics; it closes them if it fails.
func join(local int, parts ...Fabric) (Fabric, error) {
	subs := make([]fabric.Fabric, len(parts))
	for i, p := range parts {
		subs[i] = p
	}
	f, err := fabric.NewMix(local, subs...)
	if err != nil {
		for _, p := range parts {
			p.Close()
		}
		return nil, err
	}
	return joinedFabric{f.(joinedCore), parts}, nil
}

// joinedCore is what fabric.NewMix returns for live fabrics.
type joinedCore interface {
	fabric.Fabric
	Err() error
}

// joinedFabric is a joined core that keeps its parts' chaos hook: the
// core's rails are the parts' rails, in part order.
type joinedFabric struct {
	joinedCore
	parts []Fabric
}

// FailRail kills the joined rail r through the part that owns it.
func (j joinedFabric) FailRail(node, r int) {
	for _, p := range j.parts {
		if r < p.NumRails() {
			p.FailRail(node, r)
			return
		}
		r -= p.NumRails()
	}
}

func shmPair(t *testing.T, env0, env1 *rt.LiveEnv) (Fabric, Fabric) {
	cfg := shmnet.Config{Nodes: 2, Rails: 2, Dir: t.TempDir(), RingBytes: 32 << 10}
	envs := [2]*rt.LiveEnv{env0, env1}
	var fs [2]*shmnet.Fabric
	var errs [2]error
	var wg sync.WaitGroup
	for i := range fs {
		wg.Add(1)
		go func() { defer wg.Done(); fs[i], errs[i] = shmnet.NewDistributed(envs[i], i, cfg) }()
	}
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		for _, f := range fs {
			if f != nil {
				f.Close()
			}
		}
		t.Fatalf("attach: %v / %v", errs[0], errs[1])
	}
	return fs[0], fs[1]
}

func tcpPair(t *testing.T, env0, env1 *rt.LiveEnv) (Fabric, Fabric) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f0c := make(chan Fabric, 1)
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
	f0 := <-f0c
	if f0 == nil {
		f1.Close()
		t.FailNow()
	}
	return f0, f1
}

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

// RawFrameCrosses: a frame pushed on a rail arrives at the peer's receive
// queue with the right origin, rail and bytes.
func RawFrameCrosses(t *testing.T, tr Transport) {
	env, f := tr.Open(t, 2, 0)
	payload := []byte("real bytes over a live rail")
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

// LargeFrameStreams: a frame larger than the transport's buffering (an
// 8 KiB ring; the socket buffers) streams through in pieces.
func LargeFrameStreams(t *testing.T, tr Transport) {
	env, f := tr.Open(t, 1, 8<<10)
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(7)).Read(payload)
	done := make(chan struct{})
	var got *fabric.Delivery
	env.Go("recv", func(ctx rt.Ctx) {
		defer close(done)
		got = f.Node(1).RecvQ().Pop(ctx).(*fabric.Delivery)
	})
	env.Go("send", func(ctx rt.Ctx) {
		ev := env.NewEvent()
		f.Node(0).Rail(0).SendData(ctx, 1, payload, ev)
		ev.Wait(ctx)
	})
	waitOrFatal(t, "oversized frame", done)
	if !bytes.Equal(got.Data, payload) {
		t.Fatal("payload corrupted while streaming through the transport")
	}
}

// IdleAtDrains: IdleAt reports a horizon while bytes are queued, and once
// the writer drains it answers the caller's stamp — not a later reading
// of the rail's own clock: every rail a decision compares is measured
// against one now, or idle rails look busy.
func IdleAtDrains(t *testing.T, tr Transport) {
	env, f := tr.Open(t, 1, 0)
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
	for busy(rail) {
		if time.Now().After(deadline) {
			t.Fatal("rail never drained")
		}
		time.Sleep(time.Millisecond)
	}
	now := env.Now()
	time.Sleep(time.Millisecond) // the clock moves on; the stamp must not
	if at := rail.IdleAt(now); at != now {
		t.Fatalf("drained rail: IdleAt(%v) = %v, want the caller's stamp", now, at)
	}
}

// busy reports whether a rail of the core has posted unwritten bytes.
func busy(r fabric.Rail) bool { return r.(*railcore.Rail).Busy() }

// CloseReleasesSenders: Close is idempotent and leaves no goroutine
// blocked on a send.
func CloseReleasesSenders(t *testing.T, tr Transport) {
	env, f := tr.Open(t, 1, 0)
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

// OversizedFramePanics: frames above the wire limit are refused at the
// source instead of desyncing the stream.
func OversizedFramePanics(t *testing.T, tr Transport) {
	_, f := tr.Open(t, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized frame did not panic")
		}
	}()
	huge := make([]byte, (1<<30)+1) // never touched: the send refuses it first
	f.Node(0).Rail(0).SendData(nil, 1, huge, nil)
}

// DirectSinkBypassesRecvQ: SetSink (fabric.DirectNode) hands deliveries
// to the consumer on the reader goroutine, bypassing RecvQ; SetSink(nil)
// restores queue delivery. This is how the engine's progress workers are
// fed directly.
func DirectSinkBypassesRecvQ(t *testing.T, tr Transport) {
	env, f := tr.Open(t, 1, 0)
	dn, ok := f.Node(1).(fabric.DirectNode)
	if !ok {
		t.Fatal("node does not implement fabric.DirectNode")
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

// GracefulPeerCloseIsNotAnError: a peer's graceful Close is not a
// transport error: the goodbye tells the survivor this was a shutdown,
// not a death.
func GracefulPeerCloseIsNotAnError(t *testing.T, tr Transport) {
	f0, f1 := tr.pair(t, rt.NewLive(), rt.NewLive())
	defer f1.Close()
	f0.Close()
	time.Sleep(200 * time.Millisecond) // let f1's readers observe the goodbye
	if err := f1.Err(); err != nil {
		t.Fatalf("graceful peer close reported as error: %v", err)
	}
}

// ThrottleRailSlowsLane: ThrottleRail slows a lane without killing it: a
// throttled frame takes measurably longer end to end, and the rail stays
// Up.
func ThrottleRailSlowsLane(t *testing.T, tr Transport) {
	env, f := tr.Open(t, 1, 0)
	payload := make([]byte, 64<<10)
	oneWay := func() time.Duration {
		done := make(chan struct{})
		var took time.Duration
		start := time.Now()
		env.Go("recv", func(ctx rt.Ctx) {
			defer close(done)
			f.Node(1).RecvQ().Pop(ctx)
			took = time.Since(start)
		})
		env.Go("send", func(ctx rt.Ctx) {
			f.Node(0).Rail(0).SendEager(ctx, 1, payload)
		})
		waitOrFatal(t, "throttled frame", done)
		return took
	}
	base := oneWay()
	f.ThrottleRail(0, 50)
	slow := oneWay()
	f.ThrottleRail(0, 1)
	if slow < base+2*time.Millisecond && slow < 10*base {
		t.Fatalf("throttle 50x: %v -> %v, want a clear slowdown", base, slow)
	}
	if st := f.Node(0).Rail(0).State(); st != fabric.RailUp {
		t.Fatalf("throttled rail state %v, want up", st)
	}
}
