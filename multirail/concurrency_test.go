package multirail_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/multirail"
)

// Matching-order semantics under concurrency, on both fabrics: distinct
// (source, tag) pairs are independent flows. They live in separate
// engine shards and progress on separate workers, so (a) every flow's
// messages land in that flow's receives and nowhere else, and (b) a
// flow whose receiver is absent — its messages pile up unexpected —
// must not delay any other flow. Within one (source, tag) pair
// concurrent messages may overtake each other (the documented
// semantics); across pairs there is no coupling at all.
func TestDistinctFlowsCompleteIndependently(t *testing.T) {
	fabrics := []struct {
		name string
		cfg  multirail.Config
	}{
		{"sim", multirail.Config{Nodes: 3}},
		// Pinned thresholds (4 and 16 KiB): the 2 KiB messages below must
		// go eager, and live sampling puts the crossover under 2 KiB on
		// some hosts — the stalled flow then parks as queued RTS, which
		// Unexpected never counts.
		{"tcp", multirail.Config{Nodes: 3, Live: true, SamplingFrom: thresholdSampling(), Workers: 4}},
	}
	for _, fab := range fabrics {
		t.Run(fab.name, func(t *testing.T) {
			c, err := multirail.New(fab.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			const (
				tags    = 6
				msgs    = 8
				size    = 2 << 10
				stalled = uint32(999) // flow whose receives are posted late
			)
			// Flows: (source 0, tag t) and (source 2, tag t) for each tag,
			// all into node 1. Every message of a flow carries the flow's
			// fingerprint so cross-flow leakage is detectable regardless
			// of intra-flow ordering.
			fingerprint := func(src int, tag uint32) []byte {
				p := make([]byte, size)
				for i := range p {
					p[i] = byte(src*31 + int(tag)*7 + i&0xFF)
				}
				return p
			}
			type flow struct {
				src int
				tag uint32
			}
			var flows []flow
			for tag := uint32(0); tag < tags; tag++ {
				flows = append(flows, flow{0, tag}, flow{2, tag})
			}

			// The stalled flow sends first: its messages sit unexpected at
			// node 1 the whole time and must not block anyone.
			c.Go("stalled-send", func(ctx multirail.Ctx) {
				p := fingerprint(0, stalled)
				for i := 0; i < msgs; i++ {
					c.Node(0).Isend(1, stalled, p)
				}
			})

			errs := make(chan string, len(flows)+1)
			for _, fl := range flows {
				fl := fl
				want := fingerprint(fl.src, fl.tag)
				c.Go(fmt.Sprintf("send-%d-%d", fl.src, fl.tag), func(ctx multirail.Ctx) {
					for i := 0; i < msgs; i++ {
						c.Node(fl.src).Isend(1, fl.tag, want)
					}
				})
				c.Go(fmt.Sprintf("recv-%d-%d", fl.src, fl.tag), func(ctx multirail.Ctx) {
					buf := make([]byte, size)
					for i := 0; i < msgs; i++ {
						n, err := c.Node(1).Irecv(fl.src, fl.tag, buf).Wait(ctx)
						if err != nil || n != size {
							errs <- fmt.Sprintf("flow (%d,%d) msg %d: n=%d err=%v", fl.src, fl.tag, i, n, err)
							return
						}
						if !bytes.Equal(buf, want) {
							errs <- fmt.Sprintf("flow (%d,%d) msg %d: foreign payload leaked in", fl.src, fl.tag, i)
							return
						}
					}
				})
			}
			// Drain the stalled flow only after every other flow finished
			// (Run below joins them all); posting its receives last proves
			// unexpected-queue buildup in one shard never wedged the rest.
			c.Run()
			select {
			case msg := <-errs:
				t.Fatal(msg)
			default:
			}

			// The stalled sends are asynchronous: on the live fabric their
			// frames can still be in flight when Run returns (the other
			// flows' completion does not order them). Wait until they have
			// landed — and been counted unexpected — before posting their
			// receives, or the final assertion races the wire. In
			// simulation Run already quiesced, so this returns at once.
			deadline := time.Now().Add(10 * time.Second)
			for c.EngineStats(1).Unexpected == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}

			done := make(chan string, 1)
			c.Go("stalled-recv", func(ctx multirail.Ctx) {
				buf := make([]byte, size)
				want := fingerprint(0, stalled)
				for i := 0; i < msgs; i++ {
					n, err := c.Node(1).Irecv(0, stalled, buf).Wait(ctx)
					if err != nil || n != size || !bytes.Equal(buf, want) {
						done <- fmt.Sprintf("stalled flow msg %d: n=%d err=%v", i, n, err)
						return
					}
				}
				done <- ""
			})
			c.Run()
			select {
			case msg := <-done:
				if msg != "" {
					t.Fatal(msg)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("stalled flow never drained")
			}
			if st := c.EngineStats(1); st.Unexpected == 0 {
				t.Fatalf("stalled flow never went unexpected: %+v", st)
			}
		})
	}
}

// Sequential request/wait traffic on one flow keeps FIFO matching under
// the sharded tables: message i lands in receive i on both fabrics.
func TestSequentialFlowKeepsOrder(t *testing.T) {
	fabrics := []struct {
		name string
		cfg  multirail.Config
	}{
		{"sim", multirail.Config{}},
		{"tcp", multirail.Config{Live: true, SamplingMax: 256 << 10}},
	}
	for _, fab := range fabrics {
		t.Run(fab.name, func(t *testing.T) {
			c, err := multirail.New(fab.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			const msgs = 16
			fail := make(chan string, 1)
			c.Go("seq", func(ctx multirail.Ctx) {
				buf := make([]byte, 8)
				for i := 0; i < msgs; i++ {
					rr := c.Node(1).Irecv(0, 7, buf)
					sr := c.Node(0).Isend(1, 7, []byte(fmt.Sprintf("msg-%03d", i)))
					if _, err := rr.Wait(ctx); err != nil {
						fail <- err.Error()
						return
					}
					if got, want := string(buf[:7]), fmt.Sprintf("msg-%03d", i)[:7]; got != want {
						fail <- fmt.Sprintf("message %d: got %q", i, got)
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
}
