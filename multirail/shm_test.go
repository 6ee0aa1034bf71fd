package multirail_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/multirail"
)

// TestAdaptiveRoutesSmallMessagesOntoShmRail is the heterogeneous-rail
// acceptance check: on a 3-node cluster with 1 shm rail and 2 TCP rails
// and the adaptive loop on, small intra-host messages must concentrate
// on the shared-memory rail — its ring round trip is microseconds while
// loopback TCP pays syscalls both ways, and both the sampled priors and
// the live estimates must see that.
func TestAdaptiveRoutesSmallMessagesOntoShmRail(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock adaptive routing")
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		// An oversubscribed scheduler drowns the µs-class ring latency
		// in goroutine queueing (same guard as the adaptive TCP test).
		t.Skip("GOMAXPROCS exceeds physical CPUs: wall-clock telemetry too noisy")
	}
	retryLive(t, adaptiveRoutesSmallMessagesOntoShmRail)
}

func adaptiveRoutesSmallMessagesOntoShmRail(t testing.TB) {
	c, err := multirail.New(multirail.Config{
		Live:              true,
		Nodes:             3,
		ShmRails:          1,
		TCPRails:          2,
		SamplingMax:       256 << 10,
		AdaptiveTelemetry: true,
		// Probe aggressively: even when a noisy start-up sample or a
		// large-transfer-extrapolated fit starts out disliking the shm
		// rail, the eager rail probes keep measuring it at small sizes
		// and the estimates converge to its real µs-class latency.
		TelemetryProbeEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.RailKind(0) != "shm" || c.RailKind(1) != "tcp" || c.RailKind(2) != "tcp" {
		t.Fatalf("rail kinds %s/%s/%s, want shm/tcp/tcp", c.RailKind(0), c.RailKind(1), c.RailKind(2))
	}

	// Warm the live estimators with striped rendezvous traffic first:
	// chunk acks measure every rail, so even a rail whose start-up
	// sample came out noisy (the eager path alone never explores a rail
	// its prior dislikes) gets measured before small messages route by
	// those estimates.
	for i := 0; i < 8; i++ {
		sendOne(t, c, uint32(0x7000+i), 256<<10)
	}

	// Convergence phase, unasserted: small traffic plus the eager rail
	// probes drive the per-rail small-size estimates to their real
	// values — how many sends that takes depends on where the estimates
	// started (chunk-era extrapolations can favour either kind).
	const size = 2 << 10
	for i := 0; i < 60; i++ {
		sendOne(t, c, uint32(0x7100+i), size)
	}

	// Measured phase: once converged, small intra-host traffic must
	// concentrate on the shm rail.
	base := c.RailStats(0)
	const sends = 30
	for i := 0; i < sends; i++ {
		sendOne(t, c, uint32(0x7180+i), size)
	}

	stats := c.RailStats(0)
	delta := func(r int) uint64 { return stats[r].Messages - base[r].Messages }
	t.Logf("small-message traffic: shm=%d msgs, tcp0=%d, tcp1=%d (plan for %dB: %s)",
		delta(0), delta(1), delta(2), size, c.DescribePlan(0, 1, size))
	for r := 1; r < 3; r++ {
		if delta(0) <= delta(r) {
			t.Fatalf("shm rail carried %d messages, tcp rail %d carried %d — small intra-host traffic not routed onto shm",
				delta(0), r, delta(r))
		}
	}
	// The live estimates must agree with where the bytes went.
	shmEst := c.LiveEstimate(0, 1, 0, size)
	for r := 1; r < 3; r++ {
		if tcpEst := c.LiveEstimate(0, 1, r, size); shmEst >= tcpEst {
			t.Fatalf("live estimate ranks shm (%v) at or above tcp rail %d (%v) for %dB",
				shmEst, r, tcpEst, size)
		}
	}
	if err := c.Err(); err != nil {
		t.Fatalf("fabric error: %v", err)
	}
}

// thresholdSampling writes a deterministic sampling file for two rails
// whose rendezvous thresholds differ by 4x: rail 0 crosses over at
// ~4 KiB, rail 1 at ~16 KiB. The eager curve is ~1 ns/B on both; the
// rendezvous curve is flat at the crossover cost.
func thresholdSampling() *strings.Reader {
	var b strings.Builder
	b.WriteString("# nmad-go sampling v1\n")
	for rail, cross := range []int{4096, 16384} {
		fmt.Fprintf(&b, "rail %d thr-test eagermax 32768\n", rail)
		fmt.Fprintf(&b, "eager 4 4\neager 32768 32768\n")
		fmt.Fprintf(&b, "rdv 4 %d\nrdv 32768 %d\n", cross, cross)
	}
	return strings.NewReader(b.String())
}

// protocolDelta sends one n-byte message 0 -> 1 and reports how many
// eager sends and rendezvous the engine of node 0 added for it.
func protocolDelta(t testing.TB, c *multirail.Cluster, tag uint32, n int) (eager, rdv uint64) {
	t.Helper()
	before := c.EngineStats(0)
	sendOne(t, c, tag, n)
	after := c.EngineStats(0)
	return after.EagerSent - before.EagerSent, after.RdvSent - before.RdvSent
}

// TestEagerThresholdIgnoresDownRails is the regression test for the
// health-blind threshold: with rail 1 (threshold 16 KiB) hot-unplugged,
// an 8 KiB message must follow the surviving rail 0's 4 KiB threshold
// and take the rendezvous path — the dead rail's profile must not keep
// forcing the eager protocol it would have preferred. Run on both the
// modeled and the TCP fabric from one deterministic sampling file.
func TestEagerThresholdIgnoresDownRails(t *testing.T) {
	fabrics := []struct {
		name string
		cfg  func() multirail.Config
	}{
		{"sim", func() multirail.Config {
			return multirail.Config{SamplingFrom: thresholdSampling()}
		}},
		{"tcp", func() multirail.Config {
			return multirail.Config{Live: true, TCPRails: 2, SamplingFrom: thresholdSampling()}
		}},
	}
	for _, fab := range fabrics {
		t.Run(fab.name, func(t *testing.T) {
			c, err := multirail.New(fab.cfg())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			const size = 8 << 10 // between rail 0's and rail 1's threshold
			if thr := c.EagerThreshold(0, 1); thr < size {
				t.Fatalf("both rails up: threshold %d should admit %d eagerly", thr, size)
			}
			if eager, rdv := protocolDelta(t, c, 0x7200, size); eager != 1 || rdv != 0 {
				t.Fatalf("both rails up: %dB went eager=%d rdv=%d, want 1/0", size, eager, rdv)
			}

			c.DisableRail(1)
			if thr := c.EagerThreshold(0, 1); thr >= size {
				t.Fatalf("rail 1 down: threshold %d still admits %d — the dead rail's profile is deciding", thr, size)
			}
			if eager, rdv := protocolDelta(t, c, 0x7201, size); eager != 0 || rdv != 1 {
				t.Fatalf("rail 1 down: %dB went eager=%d rdv=%d, want 0/1 (surviving rail's threshold)", size, eager, rdv)
			}

			// Replug: the higher threshold governs again.
			c.EnableRail(1)
			if eager, rdv := protocolDelta(t, c, 0x7202, size); eager != 1 || rdv != 0 {
				t.Fatalf("rail 1 replugged: %dB went eager=%d rdv=%d, want 1/0", size, eager, rdv)
			}
		})
	}
}

// TestTelemetryDerivedThresholdTracksWire covers the adaptive half of
// the threshold fix: under AdaptiveTelemetry the eager/rendezvous
// crossover is re-derived per (peer, rail) from the live regime fits.
// When every rail's transfer cost is stretched 10x (congestion) while
// the handshake stays fixed, the crossover must fall — rendezvous
// amortises its handshake much earlier on a slow wire — and the engine
// must start handshaking for sizes it previously sent eagerly. The
// simulator's deterministic costs make the drift exact.
func TestTelemetryDerivedThresholdTracksWire(t *testing.T) {
	c, err := multirail.New(multirail.Config{
		// One rail: the derived threshold is the max over usable rails,
		// and a rail the eager traffic never picks would keep its cold
		// (static) crossover in that max — a second rail would mask the
		// drift this test is about, not cause it.
		Rails:             []*multirail.Profile{multirail.GigE()},
		AdaptiveTelemetry: true,
		// Long half-life: this test drives few transfers and virtual
		// time barely advances; nothing should decay away mid-test.
		TelemetryHalfLife: 10 * time.Second,
		// Every rendezvous must be attributable to one rail to feed the
		// rdv regime plane: the single-rail splitter says so outright
		// (with one rail, any splitter's plan is one chunk anyway).
		Splitter: multirail.SingleRail(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	static := c.EagerThreshold(0, 1)
	if static == 0 {
		t.Fatal("sampled threshold is zero — the test needs an eager regime")
	}
	// Two sizes per regime, in distinct size classes, so the planes fit
	// genuine slopes instead of level-shifting around one point.
	eagerSizes := []int{static / 8, static / 2}
	rdvSizes := []int{2 * static, 8 * static}
	t.Logf("static threshold %d; driving eager at %v, rendezvous at %v", static, eagerSizes, rdvSizes)

	drive := func(base uint32, rounds int) {
		for i := 0; i < rounds; i++ {
			for j, n := range eagerSizes {
				sendOne(t, c, base+uint32(i*4+j), n)
			}
			for j, n := range rdvSizes {
				sendOne(t, c, base+uint32(i*4+2+j), n)
			}
		}
	}
	// Warm both regime planes at the unthrottled costs.
	drive(0x7300, 12)
	warm := c.EagerThreshold(0, 1)
	if warm < static/4 || warm > static*4 {
		t.Fatalf("warm threshold %d drifted far from static %d under unchanged conditions", warm, static)
	}

	// Congest the rail 10x: transfer terms stretch, handshakes do not.
	// The long phase lets throttled observations dominate the decayed
	// cells (virtual time advances too little for the half-life to
	// retire the warm era).
	c.ThrottleRail(0, 10)
	drive(0x7380, 48)
	throttled := c.EagerThreshold(0, 1)
	t.Logf("threshold: static %d, warm %d, throttled %d", static, warm, throttled)
	if throttled >= warm {
		t.Fatalf("10x-throttled threshold %d did not fall below warm %d — the frozen table is still deciding", throttled, warm)
	}
	if throttled > warm/2 {
		t.Fatalf("throttled threshold %d fell only marginally from %d", throttled, warm)
	}
	// Protocol proof: a size the warm threshold sent eagerly now
	// handshakes when the derived threshold excludes it.
	probe := (throttled + warm) / 2
	if eager, rdv := protocolDelta(t, c, 0x7500, probe); rdv != 1 || eager != 0 {
		t.Fatalf("%dB after congestion went eager=%d rdv=%d, want rendezvous (derived threshold %d)",
			probe, eager, rdv, throttled)
	}
}

// heteroEagerSampling crafts two rails where the overall eager decision
// admits 8 KiB (rail 1's threshold is ~30 KiB) but rail 0's own eager
// limit is 4 KiB — and rail 0 nonetheless has the lowest 8 KiB estimate
// (via its rendezvous curve), so a limit-blind argmin would pick it.
func heteroEagerSampling() *strings.Reader {
	var b strings.Builder
	b.WriteString("# nmad-go sampling v1\n")
	b.WriteString("rail 0 small-pio eagermax 4096\n")
	b.WriteString("eager 4 4\neager 4096 4096\n")
	b.WriteString("rdv 4 10000\nrdv 4096 10000\n")
	b.WriteString("rail 1 big-pio eagermax 32768\n")
	b.WriteString("eager 4 8\neager 32768 65536\n")
	b.WriteString("rdv 4 60000\nrdv 32768 60000\n")
	return strings.NewReader(b.String())
}

// TestEagerRailRespectsPerRailEagerMax: on a heterogeneous rail set the
// flush threshold is the max over usable rails, so a payload can be
// eager-eligible overall yet oversized for an individual rail's PIO
// regime. The rail pick must exclude rails whose EagerMax the payload
// exceeds, even when their estimate is lowest.
func TestEagerRailRespectsPerRailEagerMax(t *testing.T) {
	c, err := multirail.New(multirail.Config{SamplingFrom: heteroEagerSampling()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const size = 8 << 10 // above rail 0's EagerMax, below rail 1's threshold
	if eager, rdv := protocolDelta(t, c, 0x7600, size); eager != 1 || rdv != 0 {
		t.Fatalf("%dB went eager=%d rdv=%d, want the eager path", size, eager, rdv)
	}
	stats := c.RailStats(0)
	if stats[0].Messages != 0 {
		t.Fatalf("rail 0 (EagerMax 4096) carried %d messages of an %dB eager send", stats[0].Messages, size)
	}
	if stats[1].Messages == 0 || stats[1].Bytes < size {
		t.Fatalf("rail 1 should have carried the container: %+v", stats[1])
	}
}
