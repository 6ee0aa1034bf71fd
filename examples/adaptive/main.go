// Adaptive demonstrates the online telemetry feedback loop: three real
// TCP rails carry repeated 1 MB sends while one rail is throttled 10x
// mid-run, and the printed plans show the engine migrating bytes off
// the congested rail from live measurements alone — no restart, no
// health transition — then re-adopting it after it recovers.
//
// Run: go run ./examples/adaptive
package main

import (
	"fmt"
	"os"
	"time"

	"repro/multirail"
)

const size = 1 << 20

func send(c *multirail.Cluster, tag uint32) {
	payload := make([]byte, size)
	buf := make([]byte, size)
	c.Go("send", func(ctx multirail.Ctx) {
		rr := c.Node(1).Irecv(0, tag, buf)
		sr := c.Node(0).Isend(1, tag, payload)
		if _, err := rr.Wait(ctx); err != nil {
			panic(err)
		}
		sr.RemoteDone().Wait(ctx)
	})
	c.Run()
}

func phase(c *multirail.Cluster, name string, sends int, tag0 uint32) {
	for i := 0; i < sends; i++ {
		send(c, tag0+uint32(i))
	}
	st := c.EngineStats(0)
	fmt.Printf("%-22s plan: %-44s  est r0/r1/r2: %v/%v/%v  (epoch %d, %d refits)\n",
		name, c.DescribePlan(0, 1, size),
		c.LiveEstimate(0, 1, 0, size).Round(10*time.Microsecond),
		c.LiveEstimate(0, 1, 1, size).Round(10*time.Microsecond),
		c.LiveEstimate(0, 1, 2, size).Round(10*time.Microsecond),
		st.TelemetryEpoch, st.TelemetryRefits)
}

func main() {
	c, err := multirail.New(multirail.Config{
		Live:                true,
		TCPRails:            3,
		SamplingMax:         256 << 10,
		AdaptiveTelemetry:   true,
		TelemetryHalfLife:   50 * time.Millisecond,
		TelemetryProbeEvery: 4,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer c.Close()

	fmt.Printf("adaptive telemetry demo: 3 TCP rails, repeated %d-byte sends\n", size)
	phase(c, "warm (all rails fast):", 10, 0x100)

	fmt.Println("\n--- throttling rail 0 by 10x (rail stays Up) ---")
	c.ThrottleRail(0, 10)
	phase(c, "after 10 sends:", 10, 0x200)
	phase(c, "after 20 more:", 20, 0x300)

	fmt.Println("\n--- rail 0 recovers ---")
	c.ThrottleRail(0, 1)
	phase(c, "after 20 sends:", 20, 0x400)
	phase(c, "after 60 more:", 60, 0x500)

	st := c.EngineStats(0)
	hit := 0.0
	if total := st.PlanHits + st.PlanMisses; total > 0 {
		hit = float64(st.PlanHits) / float64(total) * 100
	}
	fmt.Printf("\ntelemetry: %d observations, %d refits, epoch %d; plan cache %.0f%% hit (%d/%d)\n",
		st.TelemetryObs, st.TelemetryRefits, st.TelemetryEpoch,
		hit, st.PlanHits, st.PlanHits+st.PlanMisses)
}
