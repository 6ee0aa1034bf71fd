// Multiflow exercises many concurrent flows of small messages and
// compares the engine's eager policies: the paper's aggregation versus
// the greedy balancing of Fig 3, and the multicore parallel path for
// medium packets.
package main

import (
	"fmt"

	"repro/internal/workload"
	"repro/multirail"
)

func run(name string, cfg multirail.Config) {
	c, err := multirail.New(cfg)
	if err != nil {
		panic(err)
	}
	defer c.Close()
	rate := workload.MessageRate(c, 512, 400, 8)
	fmt.Printf("%-22s 400x512B over 8 flows: %8.0f msg/s (%v total)\n",
		name, rate.PerSecond, rate.Elapsed)
	st := c.EngineStats(0)
	fmt.Printf("%-22s eager=%d aggregated=%d parallel=%d\n",
		"", st.EagerSent, st.EagerAggregated, st.EagerParallel)
}

func main() {
	fmt.Println("== Eager scheduling policies under multi-flow load ==")
	run("aggregate (paper)", multirail.Config{})
	run("greedy (Fig 3)", multirail.Config{GreedyEager: true})
	run("aggregate+offload", multirail.Config{EagerParallel: true})

	fmt.Println("\n== Concurrent flows of mixed sizes ==")
	c, err := multirail.New(multirail.Config{})
	if err != nil {
		panic(err)
	}
	defer c.Close()
	res := workload.MultiFlow(c, []int{1 << 10, 64 << 10, 1 << 20, 4 << 20})
	for _, r := range res {
		fmt.Printf("  flow %d (%7d B) finished at %v\n", r.Flow, r.Size, r.Finished)
	}
	for rail := 0; rail < c.Rails(); rail++ {
		st := c.RailStats(0)[rail]
		fmt.Printf("  rail %d carried %d bytes in %d messages\n", rail, st.Bytes, st.Messages)
	}
}
