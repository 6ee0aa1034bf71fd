package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/rt"
	"repro/internal/sampling"
	"repro/internal/simnet"
	"repro/internal/strategy"
)

var (
	profilesOnce sync.Once
	testProfiles []*sampling.RailProfile
)

// paperProfiles samples the paper testbed once for all engine tests.
func paperProfiles(t *testing.T) []*sampling.RailProfile {
	t.Helper()
	profilesOnce.Do(func() {
		var err error
		testProfiles, err = sampling.SampleProfiles(model.PaperTestbed(),
			sampling.Config{MinSize: 4, MaxSize: 8 << 20})
		if err != nil {
			panic(err)
		}
	})
	return testProfiles
}

// pair builds a two-node simulated testbed with one engine per node.
func pair(t *testing.T, cfg Config) (*rt.SimEnv, [2]*Engine) {
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
	return env, engines
}

func TestNewEngineValidatesProfiles(t *testing.T) {
	env := rt.NewSim()
	c, _ := simnet.New(env, simnet.Config{Nodes: 1, Rails: model.PaperTestbed(), CoresPerNode: 1})
	if _, err := NewEngine(env, c.Nodes[0], paperProfiles(t)[:1], Config{}); err == nil {
		t.Fatal("profile count mismatch accepted")
	}
	env.Close()
}

func TestEagerRoundTrip(t *testing.T) {
	env, eng := pair(t, Config{})
	payload := []byte("hello, rails")
	var got []byte
	var n int
	env.Go("app", func(ctx rt.Ctx) {
		buf := make([]byte, 64)
		rr := eng[1].Irecv(0, 7, buf)
		sr := eng[0].Isend(1, 7, payload)
		sr.Wait(ctx)
		var err error
		n, err = rr.Wait(ctx)
		if err != nil {
			t.Error(err)
		}
		got = buf[:n]
	})
	env.Run()
	if !bytes.Equal(got, payload) {
		t.Fatalf("received %q, want %q", got, payload)
	}
	st := eng[0].Stats()
	if st.EagerSent != 1 || st.RdvSent != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// A tiny eager message travels on the low-latency rail (QsNetII) and
// arrives in about its modeled one-way time.
func TestEagerLatencyNearModel(t *testing.T) {
	env, eng := pair(t, Config{})
	var arrived time.Duration
	env.Go("app", func(ctx rt.Ctx) {
		rr := eng[1].Irecv(0, 1, make([]byte, 16))
		eng[0].Isend(1, 1, make([]byte, 4))
		rr.Wait(ctx)
		arrived = ctx.Now()
	})
	env.Run()
	q := model.QsNetII()
	// Framing: container header + one entry descriptor.
	lo := q.EagerOneWay(4)
	hi := q.EagerOneWay(4+128) + 2*time.Microsecond
	if arrived < lo || arrived > hi {
		t.Fatalf("4B one-way %v, want within [%v, %v]", arrived, lo, hi)
	}
	if st := eng[1].Stats(); st.Unexpected != 0 {
		t.Fatalf("posted receive went unexpected: %+v", st)
	}
}

func TestUnexpectedEagerMatchesLateIrecv(t *testing.T) {
	env, eng := pair(t, Config{})
	var got []byte
	env.Go("app", func(ctx rt.Ctx) {
		sr := eng[0].Isend(1, 3, []byte("early"))
		sr.Wait(ctx)
		ctx.Sleep(time.Millisecond) // message arrives, no receive posted
		buf := make([]byte, 16)
		rr := eng[1].Irecv(0, 3, buf)
		n, err := rr.Wait(ctx)
		if err != nil {
			t.Error(err)
		}
		got = buf[:n]
	})
	env.Run()
	if string(got) != "early" {
		t.Fatalf("got %q", got)
	}
	if st := eng[1].Stats(); st.Unexpected != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// The rendezvous path stripes a 4MB message over both rails, hitting the
// paper's hetero-split timing.
func TestRendezvousHeteroSplit4MB(t *testing.T) {
	env, eng := pair(t, Config{})
	n := 4 << 20
	payload := make([]byte, n)
	rand.New(rand.NewSource(42)).Read(payload)
	buf := make([]byte, n)
	var arrived time.Duration
	env.Go("app", func(ctx rt.Ctx) {
		rr := eng[1].Irecv(0, 9, buf)
		sr := eng[0].Isend(1, 9, payload)
		if _, err := rr.Wait(ctx); err != nil {
			t.Error(err)
		}
		arrived = ctx.Now()
		sr.Wait(ctx)
	})
	env.Run()
	if !bytes.Equal(buf, payload) {
		t.Fatal("payload corrupted across striped rails")
	}
	st := eng[0].Stats()
	if st.RdvSent != 1 || st.ChunksSent != 2 {
		t.Fatalf("stats %+v, want 1 rendezvous in 2 chunks", st)
	}
	// Paper checkpoint: both chunks land just after ~2000µs; handshake
	// adds ~8µs.
	us := arrived.Seconds() * 1e6
	if us < 1990 || us > 2030 {
		t.Fatalf("4MB one-way %.1fµs, want ~2000-2020µs (paper hetero-split)", us)
	}
}

func TestRendezvousBeforeIrecvQueuesRTS(t *testing.T) {
	env, eng := pair(t, Config{})
	n := 256 << 10
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i)
	}
	buf := make([]byte, n)
	env.Go("app", func(ctx rt.Ctx) {
		eng[0].Isend(1, 4, payload)
		ctx.Sleep(time.Millisecond) // RTS arrives and must wait
		rr := eng[1].Irecv(0, 4, buf)
		if _, err := rr.Wait(ctx); err != nil {
			t.Error(err)
		}
	})
	env.Run()
	if !bytes.Equal(buf, payload) {
		t.Fatal("payload corrupted")
	}
}

func TestRecvBufferTooSmallFails(t *testing.T) {
	env, eng := pair(t, Config{})
	var rerr error
	env.Go("app", func(ctx rt.Ctx) {
		rr := eng[1].Irecv(0, 5, make([]byte, 8))
		eng[0].Isend(1, 5, make([]byte, 100<<10)) // rendezvous, too big
		_, rerr = rr.Wait(ctx)
	})
	env.Run()
	if rerr == nil {
		t.Fatal("oversized rendezvous into small buffer did not error")
	}
}

func TestEagerIntoSmallBufferFails(t *testing.T) {
	env, eng := pair(t, Config{})
	var rerr error
	env.Go("app", func(ctx rt.Ctx) {
		rr := eng[1].Irecv(0, 5, make([]byte, 2))
		eng[0].Isend(1, 5, []byte("too big for buffer"))
		_, rerr = rr.Wait(ctx)
	})
	env.Run()
	if rerr == nil {
		t.Fatal("oversized eager into small buffer did not error")
	}
}

func TestZeroLengthMessage(t *testing.T) {
	env, eng := pair(t, Config{})
	ok := false
	env.Go("app", func(ctx rt.Ctx) {
		rr := eng[1].Irecv(0, 6, nil)
		eng[0].Isend(1, 6, nil)
		n, err := rr.Wait(ctx)
		ok = n == 0 && err == nil
	})
	env.Run()
	if !ok {
		t.Fatal("zero-length roundtrip failed")
	}
}

// Two packets submitted back-to-back to one destination share a container
// (the optimizer's aggregation) and both arrive intact.
func TestAggregationPacksPendingPackets(t *testing.T) {
	env, eng := pair(t, Config{})
	var got1, got2 []byte
	env.Go("app", func(ctx rt.Ctx) {
		b1 := make([]byte, 16)
		b2 := make([]byte, 16)
		r1 := eng[1].Irecv(0, 1, b1)
		r2 := eng[1].Irecv(0, 2, b2)
		eng[0].Isend(1, 1, []byte("first"))
		eng[0].Isend(1, 2, []byte("second"))
		n1, _ := r1.Wait(ctx)
		n2, _ := r2.Wait(ctx)
		got1, got2 = b1[:n1], b2[:n2]
	})
	env.Run()
	if string(got1) != "first" || string(got2) != "second" {
		t.Fatalf("got %q, %q", got1, got2)
	}
	st := eng[0].Stats()
	if st.EagerAggregated < 2 {
		t.Fatalf("no aggregation: %+v", st)
	}
}

// The greedy policy spreads packets over rails instead of aggregating —
// and loses, reproducing Fig 3's conclusion.
func TestGreedyPolicySlowerThanAggregate(t *testing.T) {
	run := func(policy EagerPolicy) time.Duration {
		env, eng := pair(t, Config{Eager: policy})
		size := 8 << 10
		var done time.Duration
		env.Go("app", func(ctx rt.Ctx) {
			r1 := eng[1].Irecv(0, 1, make([]byte, size))
			r2 := eng[1].Irecv(0, 2, make([]byte, size))
			eng[0].Isend(1, 1, make([]byte, size))
			eng[0].Isend(1, 2, make([]byte, size))
			r1.Wait(ctx)
			r2.Wait(ctx)
			done = ctx.Now()
		})
		env.Run()
		return done
	}
	greedy := run(PolicyGreedy)
	agg := run(PolicyAggregate)
	if agg >= greedy {
		t.Fatalf("aggregate %v not faster than greedy %v (Fig 3)", agg, greedy)
	}
}

// With EagerParallel and idle cores, a single medium eager packet is
// split and submitted from several cores, beating the single-rail time
// (Fig 7 / Fig 9's estimation made real).
func TestEagerParallelBeatsSingleRail(t *testing.T) {
	run := func(parallel bool) (time.Duration, Stats) {
		env, eng := pair(t, Config{EagerParallel: parallel})
		size := 16 << 10
		var done time.Duration
		env.Go("app", func(ctx rt.Ctx) {
			rr := eng[1].Irecv(0, 1, make([]byte, size))
			eng[0].Isend(1, 1, make([]byte, size))
			rr.Wait(ctx)
			done = ctx.Now()
		})
		env.Run()
		return done, eng[0].Stats()
	}
	single, sst := run(false)
	par, pst := run(true)
	if sst.EagerParallel != 0 {
		t.Fatalf("parallel path used while disabled: %+v", sst)
	}
	if pst.EagerParallel != 1 {
		t.Fatalf("parallel path not used: %+v", pst)
	}
	if par >= single {
		t.Fatalf("parallel %v not faster than single %v", par, single)
	}
	gain := 1 - float64(par)/float64(single)
	if gain < 0.10 || gain > 0.45 {
		t.Fatalf("parallel gain %.0f%%, want 10-45%% (paper: up to 30%%)", gain*100)
	}
}

// Tiny messages must not use the parallel path even when enabled: the
// offload cost dominates (Fig 9 below 4KB).
func TestEagerParallelSkipsTinyMessages(t *testing.T) {
	env, eng := pair(t, Config{EagerParallel: true})
	env.Go("app", func(ctx rt.Ctx) {
		rr := eng[1].Irecv(0, 1, make([]byte, 8))
		eng[0].Isend(1, 1, []byte("tiny"))
		rr.Wait(ctx)
	})
	env.Run()
	if st := eng[0].Stats(); st.EagerParallel != 0 {
		t.Fatalf("tiny message split: %+v", st)
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	env, eng := pair(t, Config{})
	okA, okB := false, false
	env.Go("nodeA", func(ctx rt.Ctx) {
		buf := make([]byte, 1<<20)
		rr := eng[0].Irecv(1, 2, buf)
		eng[0].Isend(1, 1, make([]byte, 1<<20))
		n, err := rr.Wait(ctx)
		okA = n == 1<<20 && err == nil
	})
	env.Go("nodeB", func(ctx rt.Ctx) {
		buf := make([]byte, 1<<20)
		rr := eng[1].Irecv(0, 1, buf)
		eng[1].Isend(0, 2, make([]byte, 1<<20))
		n, err := rr.Wait(ctx)
		okB = n == 1<<20 && err == nil
	})
	env.Run()
	if !okA || !okB {
		t.Fatalf("bidirectional exchange failed: %v %v", okA, okB)
	}
}

func TestManyFlowsIntegrity(t *testing.T) {
	env, eng := pair(t, Config{EagerParallel: true})
	rng := rand.New(rand.NewSource(7))
	const flows = 12
	payloads := make([][]byte, flows)
	bufs := make([][]byte, flows)
	for i := range payloads {
		n := rng.Intn(1<<20) + 1
		payloads[i] = make([]byte, n)
		rng.Read(payloads[i])
		bufs[i] = make([]byte, n)
	}
	failed := -1
	env.Go("recv", func(ctx rt.Ctx) {
		reqs := make([]*RecvRequest, flows)
		for i := 0; i < flows; i++ {
			reqs[i] = eng[1].Irecv(0, uint32(i), bufs[i])
		}
		for i, r := range reqs {
			if n, err := r.Wait(ctx); err != nil || n != len(payloads[i]) {
				failed = i
			}
		}
	})
	env.Go("send", func(ctx rt.Ctx) {
		for i := 0; i < flows; i++ {
			eng[0].Isend(1, uint32(i), payloads[i])
		}
	})
	env.Run()
	if failed >= 0 {
		t.Fatalf("flow %d failed", failed)
	}
	for i := range payloads {
		if !bytes.Equal(bufs[i], payloads[i]) {
			t.Fatalf("flow %d corrupted", i)
		}
	}
}

// The splitter is pluggable: iso-split shows the Fig 8 gap at 4MB.
func TestPluggableSplitterIsoSlower(t *testing.T) {
	run := func(s strategy.Splitter) time.Duration {
		env, eng := pair(t, Config{Splitter: s})
		n := 4 << 20
		var done time.Duration
		env.Go("app", func(ctx rt.Ctx) {
			rr := eng[1].Irecv(0, 1, make([]byte, n))
			eng[0].Isend(1, 1, make([]byte, n))
			rr.Wait(ctx)
			done = ctx.Now()
		})
		env.Run()
		return done
	}
	iso := run(strategy.IsoSplit{})
	hetero := run(strategy.HeteroSplit{})
	// Paper: 2MB over Quadrics takes 2400µs vs equalised ~2000µs.
	if hetero >= iso {
		t.Fatalf("hetero %v not faster than iso %v", hetero, iso)
	}
	gap := iso - hetero
	if gap < 300*time.Microsecond || gap > 500*time.Microsecond {
		t.Fatalf("iso-hetero gap %v, want ~400µs (paper: 670µs idle gap at 4MB, minus handshake overlap)", gap)
	}
}

func TestEagerPolicyString(t *testing.T) {
	if PolicyAggregate.String() != "aggregate" || PolicyGreedy.String() != "greedy" {
		t.Fatal("policy names")
	}
	if EagerPolicy(9).String() == "" {
		t.Fatal("unknown policy must format")
	}
}
