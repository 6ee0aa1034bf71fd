// Shmtcp demonstrates the mixed heterogeneous rail set: one
// shared-memory rail (lock-free rings, the paper's PIO regime) riding
// alongside two real TCP rails behind one engine. Start-up sampling
// profiles all three; with adaptive telemetry on, the live estimates
// then route small messages onto the µs-class shm rail while large
// rendezvous transfers stripe over every rail the estimators think can
// contribute — single-vs-split selection with real stakes.
//
// Run it:
//
//	go run ./examples/shmtcp
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/stats"
	"repro/multirail"
)

func main() {
	c, err := multirail.New(multirail.Config{
		Live:              true,
		ShmRails:          1,
		TCPRails:          2,
		SamplingMax:       1 << 20,
		AdaptiveTelemetry: true,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer c.Close()

	fmt.Printf("# mixed fabric %q with %d rails:\n", c.FabricKind(), c.Rails())
	for r := 0; r < c.Rails(); r++ {
		fmt.Printf("#   rail %d (%s): sampled estimate 2KiB=%v 1MiB=%v, threshold %s\n",
			r, c.RailKind(r), c.Estimate(r, 2<<10), c.Estimate(r, 1<<20),
			stats.SizeLabel(c.Threshold(r)))
	}

	base := c.RailStats(0)
	const smalls, smallSz, bigSz = 32, 2 << 10, 4 << 20
	c.Go("app", func(ctx multirail.Ctx) {
		// A burst of small messages: eager path, best rail per message.
		small := make([]byte, smallSz)
		for i := 0; i < smalls; i++ {
			rr := c.Node(1).Irecv(0, uint32(100+i), small)
			sr := c.Node(0).Isend(1, uint32(100+i), make([]byte, smallSz))
			if _, err := rr.Wait(ctx); err != nil {
				panic(err)
			}
			sr.RemoteDone().Wait(ctx)
		}
		// One large rendezvous: striped by the live estimates.
		big := make([]byte, bigSz)
		buf := make([]byte, bigSz)
		rr := c.Node(1).Irecv(0, 7, buf)
		sr := c.Node(0).Isend(1, 7, big)
		if _, err := rr.Wait(ctx); err != nil {
			panic(err)
		}
		sr.RemoteDone().Wait(ctx)
	})
	c.Run()

	fmt.Printf("# traffic (node 0, sampling excluded):\n")
	after := c.RailStats(0)
	for r := range after {
		fmt.Printf("#   rail %d (%s): %d msgs, %s\n", r, c.RailKind(r),
			after[r].Messages-base[r].Messages,
			stats.SizeLabel(int(after[r].Bytes-base[r].Bytes)))
	}
	fmt.Printf("# plan for a %s rendezvous now: %s\n",
		stats.SizeLabel(bigSz), c.DescribePlan(0, 1, bigSz))
	fmt.Printf("# live 2KiB estimates: shm=%v tcp=%v/%v — small intra-host traffic goes where these are lowest\n",
		c.LiveEstimate(0, 1, 0, smallSz).Round(time.Microsecond/10),
		c.LiveEstimate(0, 1, 1, smallSz).Round(time.Microsecond/10),
		c.LiveEstimate(0, 1, 2, smallSz).Round(time.Microsecond/10))
}
