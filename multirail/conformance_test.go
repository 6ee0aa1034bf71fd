package multirail_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/wire"
	"repro/multirail"
)

// The cross-fabric conformance suite: every byte-moving backend — the
// modeled simulator, live TCP, shared-memory rings, and the mixed
// shm+TCP heterogeneous rail set — must satisfy the same engine-visible
// contract. Each test below runs over every backend, under -race in CI,
// so a future fabric only has to join this table to inherit the suite.
//
// The mixed entry is the acceptance shape of the shm-rail work: a
// three-node hosted cluster with 1 shm rail and 2 TCP rails.
var conformanceFabrics = []struct {
	name string
	cfg  func() multirail.Config
}{
	{"sim", func() multirail.Config {
		return multirail.Config{}
	}},
	{"tcp", func() multirail.Config {
		return multirail.Config{Live: true, TCPRails: 2, SamplingMax: 256 << 10}
	}},
	{"shm", func() multirail.Config {
		return multirail.Config{Fabric: multirail.FabricShm, ShmRails: 2, SamplingMax: 256 << 10}
	}},
	{"shm+tcp", func() multirail.Config {
		return multirail.Config{Live: true, Nodes: 3, ShmRails: 1, TCPRails: 2, SamplingMax: 256 << 10}
	}},
}

// forEachFabric runs fn once per backend as a subtest, with recycled
// buffers poisoned: the suite verifies every payload, so a buffer reused
// while something still reads it fails here as a corrupted message.
func forEachFabric(t *testing.T, fn func(t *testing.T, c *multirail.Cluster)) {
	fabric.SetRecyclePoison(true)
	defer fabric.SetRecyclePoison(false)
	for _, fab := range conformanceFabrics {
		t.Run(fab.name, func(t *testing.T) {
			c, err := multirail.New(fab.cfg())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			fn(t, c)
			if err := c.Err(); err != nil {
				t.Fatalf("fabric error after suite: %v", err)
			}
		})
	}
}

// exchange moves one random n-byte message src -> dst under tag and
// verifies the bytes, waiting for remote completion so every transfer
// unit is accounted before the caller proceeds.
func exchange(t *testing.T, c *multirail.Cluster, src, dst int, tag uint32, n int, seed int64) {
	t.Helper()
	payload := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(payload)
	buf := make([]byte, n)
	fail := make(chan string, 1)
	c.Go("conf-exchange", func(ctx multirail.Ctx) {
		rr := c.Node(dst).Irecv(src, tag, buf)
		sr := c.Node(src).Isend(dst, tag, payload)
		if got, err := rr.Wait(ctx); err != nil || got != n {
			fail <- fmt.Sprintf("recv: n=%d err=%v", got, err)
			return
		}
		sr.RemoteDone().Wait(ctx)
		fail <- ""
	})
	c.Run()
	if msg := <-fail; msg != "" {
		t.Fatal(msg)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatalf("%d-byte payload %d->%d corrupted", n, src, dst)
	}
}

// Send/recv integrity across the eager and rendezvous regimes, between
// every hosted pair the cluster has.
func TestConformanceSendRecvIntegrity(t *testing.T) {
	forEachFabric(t, func(t *testing.T, c *multirail.Cluster) {
		sizes := []int{1, 1 << 10, 64 << 10, 1 << 20}
		for i, n := range sizes {
			exchange(t, c, 0, 1, uint32(0x6100+i), n, int64(i+1))
		}
		if c.Nodes() > 2 {
			// The 3-node mixed shape: pairs beyond (0,1) use the same
			// heterogeneous rail set.
			exchange(t, c, 0, 2, 0x6180, 128<<10, 91)
			exchange(t, c, 2, 1, 0x6181, 128<<10, 92)
		}
	})
}

// Direct placement of rendezvous chunks (live fabrics: the transport
// reader fills the posted buffer; simulator: contiguous frames) keeps
// the payload intact, and so does every way a placement can be refused.
// The refusals are provoked with hand-built head+body chunk frames
// injected below the engine, from node 0's rails to node 1:
//
//   - a chunk of a message nobody announced finds no partial (declined,
//     contiguous fallback, reassembled as an unexpected striped message)
//     while its sibling finds the partial the first one created;
//   - a replay overlapping an already received range is declined as
//     partially covered and copies only the missing bytes;
//   - a replay of a completed message is dropped.
//
// An unannounced message is an eager one, so the injected message stays
// within every fabric's eager limit (32 KiB on the simulator and TCP).
func TestConformanceRendezvousPlacement(t *testing.T) {
	forEachFabric(t, func(t *testing.T, c *multirail.Cluster) {
		exchange(t, c, 0, 1, 0x6400, 1<<20, 31)
		exchange(t, c, 1, 0, 0x6401, 3<<20, 32)

		const n, tag, msgID = 24 << 10, 0x6402, 1 << 40
		payload := make([]byte, n)
		rand.New(rand.NewSource(33)).Read(payload)
		buf := make([]byte, n)
		rails := c.Rails()
		inject := func(ctx multirail.Ctx, i, off, end int) {
			rail := i % rails
			head := wire.EncodeDataHeader(nil, uint8(rail), 0, tag, msgID, off, end-off, n)
			c.FabricForTest().Node(0).Rail(rail).SendDataV(ctx, 1, head, payload[off:end], nil)
		}
		fail := make(chan string, 1)
		c.Go("conf-place", func(ctx multirail.Ctx) {
			inject(ctx, 0, 0, 8<<10)      // unknown message
			inject(ctx, 1, 16<<10, n)     // sibling
			inject(ctx, 2, 4<<10, 20<<10) // replay: overlaps both, completes the message
			rr := c.Node(1).Irecv(0, tag, buf)
			if got, err := rr.Wait(ctx); err != nil || got != n {
				fail <- fmt.Sprintf("recv of injected chunks: n=%d err=%v", got, err)
				return
			}
			inject(ctx, 0, 0, 8<<10) // late replay of the completed message
			fail <- ""
		})
		c.Run()
		if msg := <-fail; msg != "" {
			t.Fatal(msg)
		}
		if !bytes.Equal(buf, payload) {
			t.Fatal("payload reassembled from placed, declined and replayed chunks is corrupted")
		}
		// The late replay must not surface as a message of its own, and
		// the flow keeps working.
		exchange(t, c, 0, 1, tag, 1<<20, 34)
	})
}

// Sequential request/wait traffic on one (source, tag) flow matches in
// FIFO order on every backend.
func TestConformanceSequentialOrdering(t *testing.T) {
	forEachFabric(t, func(t *testing.T, c *multirail.Cluster) {
		const msgs = 16
		fail := make(chan string, 1)
		c.Go("conf-seq", func(ctx multirail.Ctx) {
			buf := make([]byte, 8)
			for i := 0; i < msgs; i++ {
				rr := c.Node(1).Irecv(0, 7, buf)
				sr := c.Node(0).Isend(1, 7, []byte(fmt.Sprintf("msg-%03d", i)))
				if _, err := rr.Wait(ctx); err != nil {
					fail <- err.Error()
					return
				}
				if got, want := string(buf[:7]), fmt.Sprintf("msg-%03d", i)[:7]; got != want {
					fail <- fmt.Sprintf("message %d arrived as %q", i, got)
					return
				}
				sr.Wait(ctx)
			}
			fail <- ""
		})
		c.Run()
		if msg := <-fail; msg != "" {
			t.Fatal(msg)
		}
	})
}

// Failover and replay idempotence: a rail hot-unplugged mid-transfer
// loses its unacknowledged units to the replan machinery; the message
// still arrives exactly once, intact, and the revived rail carries
// traffic again. Any duplicates the replay produces must be invisible.
func TestConformanceFailoverMidTransfer(t *testing.T) {
	forEachFabric(t, func(t *testing.T, c *multirail.Cluster) {
		const n = 8 << 20
		payload := make([]byte, n)
		rand.New(rand.NewSource(77)).Read(payload)
		buf := make([]byte, n)
		fail := make(chan string, 1)
		c.Go("conf-fail-app", func(ctx multirail.Ctx) {
			rr := c.Node(1).Irecv(0, 0x6200, buf)
			sr := c.Node(0).Isend(1, 0x6200, payload)
			if got, err := rr.Wait(ctx); err != nil || got != n {
				fail <- fmt.Sprintf("recv across failover: n=%d err=%v", got, err)
				return
			}
			sr.RemoteDone().Wait(ctx)
			fail <- ""
		})
		c.Go("conf-fail-chaos", func(ctx multirail.Ctx) {
			// Unplug rail 0 while chunks are in flight (best effort on
			// the wall clock; deterministic in virtual time).
			ctx.Sleep(500 * time.Microsecond)
			c.DisableRail(0)
		})
		c.Run()
		if msg := <-fail; msg != "" {
			t.Fatal(msg)
		}
		if !bytes.Equal(buf, payload) {
			t.Fatal("payload corrupted across the failover")
		}
		if states := c.RailStates(0); states[0] != multirail.RailDown {
			t.Fatalf("unplugged rail is %v, want down", states[0])
		}
		// Replug and prove the lane carries traffic again.
		c.EnableRail(0)
		exchange(t, c, 0, 1, 0x6201, 32<<10, 78)
	})
}

// Telemetry observation: with the adaptive loop on, every backend feeds
// the tracker — transfer measurements arrive and live estimates exist.
func TestConformanceTelemetryObservation(t *testing.T) {
	for _, fab := range conformanceFabrics {
		t.Run(fab.name, func(t *testing.T) {
			cfg := fab.cfg()
			cfg.AdaptiveTelemetry = true
			c, err := multirail.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			exchange(t, c, 0, 1, 0x6300, 1<<20, 13)
			exchange(t, c, 0, 1, 0x6301, 4<<10, 14)
			st := c.EngineStats(0)
			if st.TelemetryObs == 0 {
				t.Fatalf("no telemetry observations after traffic: %+v", st)
			}
			for r := 0; r < c.Rails(); r++ {
				if est := c.LiveEstimate(0, 1, r, 64<<10); est <= 0 {
					t.Fatalf("rail %d (%s) live estimate %v", r, c.RailKind(r), est)
				}
			}
		})
	}
}
