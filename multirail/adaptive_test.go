package multirail_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/multirail"
)

// sendOne moves one n-byte message node 0 -> node 1 and waits for both
// local and remote completion, so every transfer unit has produced its
// telemetry observation before the caller inspects plans.
func sendOne(t testing.TB, c *multirail.Cluster, tag uint32, n int) {
	t.Helper()
	payload := make([]byte, n)
	buf := make([]byte, n)
	c.Go("adaptive-send", func(ctx multirail.Ctx) {
		rr := c.Node(1).Irecv(0, tag, buf)
		sr := c.Node(0).Isend(1, tag, payload)
		if _, err := rr.Wait(ctx); err != nil {
			panic(fmt.Sprintf("adaptive send: %v", err))
		}
		sr.RemoteDone().Wait(ctx)
	})
	c.Run()
}

// attempt is the testing surface of one try of a wall-clock leg: a Fatal
// ends the try, not the test.
type attempt struct {
	testing.TB
	failure string
}

func (a *attempt) Fatalf(format string, args ...any) {
	a.failure = fmt.Sprintf(format, args...)
	runtime.Goexit()
}

func (a *attempt) Fatal(args ...any) {
	a.failure = fmt.Sprint(args...)
	runtime.Goexit()
}

// retryLive runs a leg that asserts the convergence of a statistical
// feedback loop on the wall clock of a shared host: up to three tries,
// each building its own fresh cluster, every failed try logged with its
// message (the legs put plans and estimates in theirs), and the test
// fails only if all three do. The deterministic simulator legs assert
// the same loop exactly and are not retried.
func retryLive(t *testing.T, leg func(t testing.TB)) {
	t.Helper()
	const tries = 3
	for i := 1; i <= tries; i++ {
		a := &attempt{TB: t}
		done := make(chan struct{})
		go func() {
			defer close(done)
			leg(a)
		}()
		<-done
		if a.failure == "" {
			return
		}
		t.Logf("try %d of %d failed: %s", i, tries, a.failure)
	}
	t.Fatalf("all %d tries failed", tries)
}

// railShare returns the fraction of plan bytes placed on `rail`.
func railShare(chunks []multirail.Chunk, rail int) float64 {
	total, on := 0, 0
	for _, c := range chunks {
		total += c.Size
		if c.Rail == rail {
			on += c.Size
		}
	}
	if total == 0 {
		return 0
	}
	return float64(on) / float64(total)
}

// driveUntilShare sends size-byte messages until the current plan's
// share of `rail` satisfies ok(), failing the test after maxSends.
// It returns the number of sends it took.
func driveUntilShare(t testing.TB, c *multirail.Cluster, rail, size, maxSends int,
	ok func(float64) bool, what string) int {
	t.Helper()
	var share float64
	for i := 1; i <= maxSends; i++ {
		sendOne(t, c, uint32(0x5A00+i), size)
		share = railShare(c.PlanFor(0, 1, size), rail)
		if ok(share) {
			return i
		}
	}
	t.Fatalf("%s: rail %d share still %.2f after %d transfers (plan %s)",
		what, rail, share, maxSends, c.DescribePlan(0, 1, size))
	return 0
}

// TestAdaptiveReplansOffThrottledRailSim is the deterministic feedback
// regression: with one of three rails artificially slowed 10x, the
// drift detector must re-fit that rail's cost model from live
// observations and new plans must migrate off it — without any health
// transition or restart — then return once the rail recovers.
func TestAdaptiveReplansOffThrottledRailSim(t *testing.T) {
	c, err := multirail.New(multirail.Config{
		Rails:             []*multirail.Profile{multirail.GigE(), multirail.GigE(), multirail.GigE()},
		AdaptiveTelemetry: true,
		// The half-life is measured on the cluster clock, which in
		// simulation advances only by modeled transfer time (~5ms per
		// 1MB message here): 25ms keeps throttle-era observations from
		// outliving the recovery phase. Probing every 6th plan bounds
		// how long a throttle-era mode verdict or starved-rail estimate
		// can persist within this test's transfer budget.
		TelemetryHalfLife:   25 * time.Millisecond,
		TelemetryProbeEvery: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const size = 1 << 20
	// Warm the live estimates up: with three equal rails the plan
	// should stripe roughly evenly.
	for i := 0; i < 8; i++ {
		sendOne(t, c, uint32(0x5100+i), size)
	}
	if share := railShare(c.PlanFor(0, 1, size), 0); share < 0.2 || share > 0.5 {
		t.Fatalf("warm 3-equal-rail plan gives rail 0 share %.2f, want about 1/3 (%s)",
			share, c.DescribePlan(0, 1, size))
	}

	// Congest rail 0: 10x slower, still Up.
	c.ThrottleRail(0, 10)
	migrated := driveUntilShare(t, c, 0, size, 40,
		func(s float64) bool { return s < 0.15 }, "after 10x throttle")
	t.Logf("plans migrated off the throttled rail after %d transfers", migrated)
	if states := c.RailStates(0); states[0] != multirail.RailUp {
		t.Fatalf("throttled rail should stay Up, is %v", states[0])
	}

	// Recovery: the rail speeds back up; its (small) plan share and the
	// periodic iso probes keep feeding observations, so the estimates
	// re-fit and the plans return.
	c.ThrottleRail(0, 1)
	recovered := driveUntilShare(t, c, 0, size, 60,
		func(s float64) bool { return s > 0.22 }, "after recovery")
	t.Logf("plans returned to the recovered rail after %d transfers", recovered)

	st := c.EngineStats(0)
	if st.TelemetryObs == 0 || st.TelemetryRefits == 0 {
		t.Fatalf("telemetry saw obs=%d refits=%d, want both > 0", st.TelemetryObs, st.TelemetryRefits)
	}
}

// throttledPhases drives the throttled-rail scenario with fixed phase
// lengths — 8 warm 1 MiB sends over three simulated GigE rails, 40 with
// rail 0 throttled 10x, 60 after it recovers — at the given probe
// cadence (0: the default), and returns each phase's virtual duration.
func throttledPhases(t testing.TB, probeEvery int) (warm, throttled, recovered time.Duration) {
	c, err := multirail.New(multirail.Config{
		Rails:               []*multirail.Profile{multirail.GigE(), multirail.GigE(), multirail.GigE()},
		AdaptiveTelemetry:   true,
		TelemetryHalfLife:   25 * time.Millisecond,
		TelemetryProbeEvery: probeEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const size = 1 << 20
	phase := func(tag0 uint32, sends int) time.Duration {
		start := c.Now()
		for i := 0; i < sends; i++ {
			sendOne(t, c, tag0+uint32(i), size)
		}
		return c.Now() - start
	}
	warm = phase(0x5600, 8)
	c.ThrottleRail(0, 10)
	throttled = phase(0x5700, 40)
	c.ThrottleRail(0, 1)
	recovered = phase(0x5800, 60)
	st := c.EngineStats(0)
	t.Logf("probe every %d: warm %v, throttled %v, recovered %v, total %v; plan cache %d hits / %d misses",
		probeEvery, warm, throttled, recovered, warm+throttled+recovered, st.PlanHits, st.PlanMisses)
	return warm, throttled, recovered
}

// goodput is n 1 MiB messages over d, in MB/s.
func goodput(n int, d time.Duration) float64 {
	return float64(n<<20) / d.Seconds() / 1e6
}

// TestAdaptiveThrottledGoodputSim is the default-cadence leg of the
// throttled-rail scenario, on fixed phase lengths: while rail 0 crawls,
// the plans must still deliver at least one healthy rail's worth — the
// warm three-rail goodput over three. Striping onto the slow rail in
// proportion to its live estimate (or leaving it) does; a plan stuck on
// a stale verdict does not.
func TestAdaptiveThrottledGoodputSim(t *testing.T) {
	warm, throttled, _ := throttledPhases(t, 0)
	floor := goodput(8, warm) / 3
	if got := goodput(40, throttled); got < floor {
		t.Fatalf("throttled phase ran at %.1f MB/s, below one healthy rail (%.1f MB/s)", got, floor)
	}
	// The README's A/B table lists the cadence-6 run too: logged, not
	// asserted (its throttled phase probes the slow rail every 6th plan).
	throttledPhases(t, 6)
}

// TestAdaptiveReplansOffThrottledRailTCP runs the feedback loop over
// real TCP rails on the wall clock: the throttle stretches actual
// socket writes, the telemetry measures them, and the striping plans
// migrate off the slow rail, then return after it recovers.
func TestAdaptiveReplansOffThrottledRailTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock adaptive loop")
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		// Oversubscribed schedulers make goroutine queueing dominate the
		// measured wall-clock durations, drowning the 10x throttle
		// signal this test watches for. The sim leg covers the feedback
		// loop deterministically on any configuration.
		t.Skip("GOMAXPROCS exceeds physical CPUs: wall-clock telemetry too noisy")
	}
	retryLive(t, adaptiveReplansOffThrottledRailTCP)
}

func adaptiveReplansOffThrottledRailTCP(t testing.TB) {
	c, err := multirail.New(multirail.Config{
		Live:              true,
		TCPRails:          3,
		SamplingMax:       256 << 10,
		AdaptiveTelemetry: true,
		TelemetryHalfLife: 100 * time.Millisecond,
		// Probe aggressively: after migration the throttled rail sees
		// almost no traffic, so probes are what lets its recovery be
		// noticed within a bounded number of transfers.
		TelemetryProbeEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const size = 512 << 10
	for i := 0; i < 8; i++ {
		sendOne(t, c, uint32(0x5200+i), size)
	}

	c.ThrottleRail(0, 10)
	migrated := driveUntilShare(t, c, 0, size, 80,
		func(s float64) bool { return s < 0.18 }, "after 10x throttle (tcp)")
	t.Logf("tcp: plans migrated off the throttled rail after %d transfers", migrated)
	if states := c.RailStates(0); states[0] != multirail.RailUp {
		t.Fatalf("throttled rail should stay Up, is %v", states[0])
	}
	// Let the throttled state settle so the recovery baseline is stable.
	for i := 0; i < 10; i++ {
		sendOne(t, c, uint32(0x5260+i), size)
	}
	estAt := c.LiveEstimate(0, 1, 0, size)
	bytesAt := c.RailStats(0)[0].Bytes

	// Recovery. Loopback rails share one kernel path, so raw per-rail
	// measurements under striping are correlated; the telemetry
	// observer's overlap-aware contention attribution (PathGroup)
	// subtracts the time a transfer spent overlapping its group-mates,
	// which is what lets these bounds be tighter than the plain
	// wall-clock noise would allow: the recovered rail must win back a
	// real plan share (not just a token probe) while its estimate
	// clearly improves from the throttled level. The sim leg asserts
	// the exact 1/3 return.
	c.ThrottleRail(0, 1)
	recovered := 0
	streak := 0
	for i := 1; i <= 120; i++ {
		sendOne(t, c, uint32(0x5280+i), size)
		if c.LiveEstimate(0, 1, 0, size) < estAt*7/10 {
			// The probes alone collapsed the estimate decisively.
			recovered = i
			break
		}
		if c.LiveEstimate(0, 1, 0, size) < estAt*9/10 &&
			railShare(c.PlanFor(0, 1, size), 0) >= 0.08 {
			// Or the plans are already striping real bytes back onto it
			// while the estimate improves.
			streak++
			if streak >= 3 {
				recovered = i
				break
			}
		} else {
			streak = 0
		}
	}
	if recovered == 0 {
		t.Fatalf("rail 0 never recovered: estimate %v (was %v at unthrottle), plan %s",
			c.LiveEstimate(0, 1, 0, size), estAt, c.DescribePlan(0, 1, size))
	}
	if moved := c.RailStats(0)[0].Bytes - bytesAt; moved < 256<<10 {
		t.Fatalf("rail 0 moved only %d fresh bytes through recovery", moved)
	}
	t.Logf("tcp: rail 0 re-adopted after %d transfers (estimate %v -> %v, plan %s)",
		recovered, estAt, c.LiveEstimate(0, 1, 0, size), c.DescribePlan(0, 1, size))

	if err := c.Err(); err != nil {
		t.Fatalf("fabric error during throttled run: %v", err)
	}
}

// TestPlanCacheHitsOnRepeatedSizes is the hot-plan-cache acceptance
// check: a repeated same-size workload must hit the cache (skipping
// re-planning) more often than it misses.
func TestPlanCacheHitsOnRepeatedSizes(t *testing.T) {
	c, err := multirail.New(multirail.Config{AdaptiveTelemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const size = 1 << 20
	for i := 0; i < 30; i++ {
		sendOne(t, c, uint32(0x5300+i), size)
	}
	st := c.EngineStats(0)
	if st.PlanHits == 0 {
		t.Fatalf("plan cache never hit on a repeated-size workload: %d misses, %d entries",
			st.PlanMisses, st.PlanEntries)
	}
	if st.PlanMisses == 0 {
		t.Fatal("plan cache never missed — planning cannot have happened at all")
	}
	if st.PlanHits <= st.PlanMisses {
		t.Fatalf("plan cache hit %d times and missed %d: re-planning outweighs reuse on a repeated size",
			st.PlanHits, st.PlanMisses)
	}
	t.Logf("plan cache: %d hits / %d misses, %d entries, %d refits",
		st.PlanHits, st.PlanMisses, st.PlanEntries, st.TelemetryRefits)
}

// TestTelemetryOffByDefault guards the paper's figures: without
// AdaptiveTelemetry nothing may be observed, cached or re-fit — the
// static sampling tables alone drive every decision.
func TestTelemetryOffByDefault(t *testing.T) {
	c, err := multirail.New(multirail.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sendOne(t, c, 0x5400, 1<<20)
	st := c.EngineStats(0)
	if st.TelemetryObs != 0 || st.PlanHits+st.PlanMisses != 0 || st.TelemetryRefits != 0 {
		t.Fatalf("telemetry active by default: %+v", st)
	}
}

// thresholdLadderPhases drives the two-plane threshold scenario: over
// `rails` with AdaptiveTelemetry (half-life 25 ms), a size ladder around
// the start-up eager threshold s — s/8, s/4, s/2, 3s/4, s, 3s/2, 2s, 4s,
// one sendOne each per round — for 8 warm rounds, then 40 rounds with
// every rail throttled 10x. It logs both phases and returns the
// throttled phase's virtual duration.
func thresholdLadderPhases(t testing.TB, rails []*multirail.Profile) time.Duration {
	c, err := multirail.New(multirail.Config{
		Rails:             rails,
		AdaptiveTelemetry: true,
		TelemetryHalfLife: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.EagerThreshold(0, 1)
	ladder := []int{s / 8, s / 4, s / 2, 3 * s / 4, s, 3 * s / 2, 2 * s, 4 * s}
	tag := uint32(1)
	phase := func(rounds int) time.Duration {
		start := c.Now()
		for i := 0; i < rounds; i++ {
			for _, n := range ladder {
				sendOne(t, c, tag, n)
				tag++
			}
		}
		return c.Now() - start
	}
	warm := phase(8)
	for r := range rails {
		c.ThrottleRail(r, 10)
	}
	throttled := phase(40)
	t.Logf("%d rails, start-up threshold %d B: warm %v, throttled %v; derived threshold after %d B",
		len(rails), s, warm, throttled, c.EagerThreshold(0, 1))
	return throttled
}

// TestAdaptiveThresholdLadderSim pins the ablation that keeps the live
// two-plane threshold (core/threshold.go): when every rail congests 10x,
// copies stretch more than handshakes and the derived crossover moves,
// so sizes around the start-up threshold change protocol. The same
// scenario with the threshold frozen at its sampled value (the deriver
// ablated) runs its throttled phase in 1186.1 ms over three GigE rails;
// the deriver must stay under that. On the default two rails the
// figures are 42.0 ms against 54.6 ms ablated, logged here.
func TestAdaptiveThresholdLadderSim(t *testing.T) {
	const ablated = 1186100 * time.Microsecond
	gige := []*multirail.Profile{multirail.GigE(), multirail.GigE(), multirail.GigE()}
	if throttled := thresholdLadderPhases(t, gige); throttled >= ablated {
		t.Fatalf("throttled phase took %v, not under the static-threshold ablation's %v", throttled, ablated)
	}
	thresholdLadderPhases(t, []*multirail.Profile{multirail.Myri10G(), multirail.QsNetII()})
}
