package multirail_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/multirail"
)

func TestDefaultsArePaperTestbed(t *testing.T) {
	c, err := multirail.New(multirail.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Nodes() != 2 || c.Rails() != 2 {
		t.Fatalf("%d nodes, %d rails", c.Nodes(), c.Rails())
	}
	// Thresholds derived from sampling must be positive and below the
	// 32KB eager cap.
	for r := 0; r < c.Rails(); r++ {
		thr := c.Threshold(r)
		if thr <= 0 || thr > 32<<10 {
			t.Fatalf("rail %d threshold %d", r, thr)
		}
	}
}

func TestQuickstartFlow(t *testing.T) {
	c, err := multirail.New(multirail.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(payload)
	buf := make([]byte, len(payload))
	var n int
	c.Go("app", func(ctx multirail.Ctx) {
		recv := c.Node(1).Irecv(0, 42, buf)
		c.Node(0).Isend(1, 42, payload)
		n, _ = recv.Wait(ctx)
	})
	c.Run()
	if n != len(payload) || !bytes.Equal(buf, payload) {
		t.Fatal("quickstart transfer failed")
	}
	st := c.EngineStats(0)
	if st.RdvSent != 1 {
		t.Fatalf("1MB should use rendezvous: %+v", st)
	}
	if rs := c.RailStats(0)[0]; rs.Bytes == 0 {
		t.Fatal("rail 0 carried nothing: hetero-split should use both rails")
	}
	if rs := c.RailStats(0)[1]; rs.Bytes == 0 {
		t.Fatal("rail 1 carried nothing: hetero-split should use both rails")
	}
}

func TestBlockingConvenienceAPI(t *testing.T) {
	c, err := multirail.New(multirail.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got string
	c.Go("sender", func(ctx multirail.Ctx) {
		c.Node(0).Send(ctx, 1, 1, []byte("ping"))
	})
	c.Go("receiver", func(ctx multirail.Ctx) {
		buf := make([]byte, 8)
		n, err := c.Node(1).Recv(ctx, 0, 1, buf)
		if err != nil {
			t.Error(err)
		}
		got = string(buf[:n])
	})
	c.Run()
	if got != "ping" {
		t.Fatalf("got %q", got)
	}
}

func TestFourNodesThreeRails(t *testing.T) {
	c, err := multirail.New(multirail.Config{
		Nodes: 4,
		Rails: []*multirail.Profile{multirail.Myri10G(), multirail.QsNetII(), multirail.IBVerbs()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Ring exchange: i sends 64KB to (i+1)%4.
	n := 64 << 10
	ok := make([]bool, 4)
	for i := 0; i < 4; i++ {
		i := i
		c.Go("node", func(ctx multirail.Ctx) {
			buf := make([]byte, n)
			prev := (i + 3) % 4
			rr := c.Node(i).Irecv(prev, 1, buf)
			c.Node(i).Isend((i+1)%4, 1, make([]byte, n))
			got, err := rr.Wait(ctx)
			ok[i] = got == n && err == nil
		})
	}
	c.Run()
	for i, v := range ok {
		if !v {
			t.Fatalf("node %d ring exchange failed", i)
		}
	}
}

func TestSamplingSaveAndReload(t *testing.T) {
	c, err := multirail.New(multirail.Config{SamplingMax: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.SaveSampling(&buf); err != nil {
		t.Fatal(err)
	}
	c.Close()
	saved := buf.String()
	if !strings.Contains(saved, "Myri-10G") {
		t.Fatal("sampling file missing rail name")
	}
	c2, err := multirail.New(multirail.Config{SamplingFrom: strings.NewReader(saved)})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Estimate(0, 4096) != c.Estimate(0, 4096) {
		t.Fatal("reloaded sampling differs")
	}
}

func TestSamplingFileRailCountMismatch(t *testing.T) {
	c, err := multirail.New(multirail.Config{SamplingMax: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	c.SaveSampling(&buf)
	c.Close()
	_, err = multirail.New(multirail.Config{
		Rails:        []*multirail.Profile{multirail.Myri10G()},
		SamplingFrom: &buf,
	})
	if err == nil {
		t.Fatal("rail-count mismatch accepted")
	}
}

func TestLiveClusterRuns(t *testing.T) {
	c, err := multirail.New(multirail.Config{Live: true})
	if err != nil {
		t.Fatal(err)
	}
	// A live node has the host's cores, so a default engine runs one
	// progress worker per core the Go scheduler uses.
	for n := 0; n < 2; n++ {
		if w := len(c.EngineStats(n).Workers); w != runtime.GOMAXPROCS(0) {
			t.Errorf("node %d: %d progress workers, want GOMAXPROCS %d", n, w, runtime.GOMAXPROCS(0))
		}
	}
	payload := []byte("wall-clock bytes")
	var got []byte
	c.Go("app", func(ctx multirail.Ctx) {
		buf := make([]byte, 64)
		rr := c.Node(1).Irecv(0, 9, buf)
		c.Node(0).Isend(1, 9, payload)
		n, err := rr.Wait(ctx)
		if err != nil {
			t.Error(err)
		}
		got = append([]byte(nil), buf[:n]...)
	})
	done := make(chan struct{})
	go func() { c.Run(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("live run timed out")
	}
	c.Close()
	if string(got) != string(payload) {
		t.Fatalf("got %q", got)
	}
}

// The modeled fabric runs on virtual time only: asking for it on the wall
// clock is refused rather than silently run unpaced.
func TestLiveSimFabricRefused(t *testing.T) {
	if c, err := multirail.New(multirail.Config{Live: true, Fabric: multirail.FabricSim}); err == nil {
		c.Close()
		t.Fatal("a live cluster on the simulated fabric was accepted")
	}
}

func TestIsoSplitterConfigurable(t *testing.T) {
	run := func(s multirail.Splitter) time.Duration {
		c, err := multirail.New(multirail.Config{Splitter: s})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var done time.Duration
		c.Go("app", func(ctx multirail.Ctx) {
			buf := make([]byte, 4<<20)
			rr := c.Node(1).Irecv(0, 1, buf)
			c.Node(0).Isend(1, 1, make([]byte, 4<<20))
			rr.Wait(ctx)
			done = c.Now()
		})
		c.Run()
		return done
	}
	if hetero, iso := run(multirail.HeteroSplit()), run(multirail.IsoSplit()); hetero >= iso {
		t.Fatalf("hetero %v not faster than iso %v", hetero, iso)
	}
}

func TestDeterministicSimulation(t *testing.T) {
	run := func() time.Duration {
		c, err := multirail.New(multirail.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var done time.Duration
		c.Go("app", func(ctx multirail.Ctx) {
			for i := 0; i < 5; i++ {
				buf := make([]byte, 128<<10)
				rr := c.Node(1).Irecv(0, uint32(i), buf)
				c.Node(0).Isend(1, uint32(i), make([]byte, 128<<10))
				rr.Wait(ctx)
			}
			done = c.Now()
		})
		c.Run()
		return done
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("simulation not deterministic: %v vs %v", a, b)
	}
}

func TestIsendVGatherVector(t *testing.T) {
	c, err := multirail.New(multirail.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v := multirail.IOVec{[]byte("multi"), nil, []byte("rail"), []byte("!")}
	var got []byte
	c.Go("app", func(ctx multirail.Ctx) {
		buf := make([]byte, 32)
		rr := c.Node(1).Irecv(0, 3, buf)
		c.Node(0).IsendV(1, 3, v)
		n, err := rr.Wait(ctx)
		if err != nil {
			t.Error(err)
		}
		got = append([]byte(nil), buf[:n]...)
	})
	c.Run()
	if string(got) != "multirail!" {
		t.Fatalf("got %q", got)
	}
}

func TestIsendVSingleSegmentAndEmpty(t *testing.T) {
	c, err := multirail.New(multirail.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var n1, n2 int
	c.Go("app", func(ctx multirail.Ctx) {
		b1 := make([]byte, 8)
		r1 := c.Node(1).Irecv(0, 1, b1)
		c.Node(0).IsendV(1, 1, multirail.IOVec{[]byte("solo")})
		n1, _ = r1.Wait(ctx)
		r2 := c.Node(1).Irecv(0, 2, nil)
		c.Node(0).IsendV(1, 2, nil)
		n2, _ = r2.Wait(ctx)
	})
	c.Run()
	if n1 != 4 || n2 != 0 {
		t.Fatalf("lengths %d/%d", n1, n2)
	}
}

func TestTracerThroughPublicAPI(t *testing.T) {
	col := multirail.NewTraceCollector()
	c, err := multirail.New(multirail.Config{Tracer: col})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Go("app", func(ctx multirail.Ctx) {
		buf := make([]byte, 4<<20)
		rr := c.Node(1).Irecv(0, 1, buf)
		c.Node(0).Isend(1, 1, make([]byte, 4<<20))
		rr.Wait(ctx)
	})
	c.Run()
	if col.Len() == 0 {
		t.Fatal("no trace events through the public API")
	}
	var b strings.Builder
	col.Dump(&b)
	for _, want := range []string{"submit", "rts", "cts", "chunk", "delivered"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("trace dump missing %q", want)
		}
	}
}

// Planned hot-unplug through the public API: DisableRail takes the rail
// out of every strategy decision (it carries nothing), OnRailDown fires
// for every hosted node, and EnableRail brings the rail back into the
// stripe.
func TestHotUnplugAndReplug(t *testing.T) {
	var mu sync.Mutex
	var downs []string
	c, err := multirail.New(multirail.Config{
		OnRailDown: func(node, rail int, reason string) {
			mu.Lock()
			downs = append(downs, fmt.Sprintf("n%d/r%d", node, rail))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for node := 0; node < 2; node++ {
		for r, s := range c.RailStates(node) {
			if s != multirail.RailUp {
				t.Fatalf("node %d rail %d starts %v", node, r, s)
			}
		}
	}
	n := 4 << 20
	payload := make([]byte, n)
	rand.New(rand.NewSource(21)).Read(payload)
	buf := make([]byte, n)
	c.Go("app", func(ctx multirail.Ctx) {
		c.DisableRail(1)
		if got := c.RailStates(0)[1]; got != multirail.RailDown {
			t.Errorf("disabled rail state %v", got)
		}
		rr := c.Node(1).Irecv(0, 1, buf)
		c.Node(0).Isend(1, 1, payload)
		if got, err := rr.Wait(ctx); err != nil || got != n {
			t.Errorf("unplugged recv n=%d err=%v", got, err)
		}
		if b := c.RailStats(0)[1].Bytes; b != 0 {
			t.Errorf("disabled rail carried %d bytes", b)
		}
		c.EnableRail(1)
		if got := c.RailStates(0)[1]; got != multirail.RailUp {
			t.Errorf("re-enabled rail state %v", got)
		}
		rr = c.Node(1).Irecv(0, 2, buf)
		c.Node(0).Isend(1, 2, payload)
		if got, err := rr.Wait(ctx); err != nil || got != n {
			t.Errorf("replugged recv n=%d err=%v", got, err)
		}
	})
	c.Run()
	if !bytes.Equal(buf, payload) {
		t.Fatal("payload corrupted")
	}
	if b := c.RailStats(0)[1].Bytes; b == 0 {
		t.Fatal("re-enabled rail carried nothing; striping should resume")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(downs) != 2 {
		t.Fatalf("OnRailDown calls %v, want one per node", downs)
	}
}
