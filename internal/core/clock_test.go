package core

import (
	"bytes"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/progress"
	"repro/internal/ratchet"
	"repro/internal/rt"
)

// countingEnv is a live environment that counts the engine's clock
// reads. The fabric keeps the bare environment, so only the engine and
// its progress pool are counted.
type countingEnv struct {
	*rt.LiveEnv
	reads atomic.Uint64
}

func (c *countingEnv) Now() time.Duration {
	c.reads.Add(1)
	return c.LiveEnv.Now()
}

// TestLiveClockReadsPerRoundTrip ratchets how often the engine reads its
// clock per warmed round trip (Irecv, Isend, Wait, RemoteDone) with the
// production stack, on both live fabrics: each message boundary is
// stamped once, and the event, the stage histogram and the unit's send
// stamp share that instant. A 512 B eager round trip reads 5 times in
// the engine (submit, before and after the container's send, the
// delivery, the ack) plus up to 4 busy-time stamps of the progress pool's
// inline steps; a 1 MiB rendezvous reads 10 times plus up to 4. Entries
// "core/clock_reads_{eager_512,rdv_1m}_{shm,tcp}".
//
// The count is exact: the window opens and closes with no read of an
// earlier or later message in flight. Each round trip also waits for
// the sender's local completion (a chunk's may come after the ack), the
// engine records a completion before firing it, and quiesce waits out
// the pool's stamp after an inline step.
func TestLiveClockReadsPerRoundTrip(t *testing.T) {
	for _, fab := range liveFabrics {
		for _, c := range []struct {
			name       string
			size, runs int
		}{
			{"eager_512", 512, 500},
			{"rdv_1m", 1 << 20, 50},
		} {
			t.Run(fab.name+"/"+c.name, func(t *testing.T) {
				live := rt.NewLive()
				f, err := fab.build(live)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				env := &countingEnv{LiveEnv: live}
				eng := livePair(t, env, f)
				payload := make([]byte, c.size)
				rand.New(rand.NewSource(30)).Read(payload)
				buf := make([]byte, len(payload))
				tag := uint32(0)
				roundTrip := func() {
					rr := eng[1].Irecv(0, tag, buf)
					sr := eng[0].Isend(1, tag, payload)
					if n, err := rr.Wait(nil); err != nil || n != len(payload) {
						t.Fatalf("recv: n=%d err=%v", n, err)
					}
					sr.Done().Wait(nil)
					sr.RemoteDone().Wait(nil)
					tag++
				}
				for i := 0; i < 20; i++ {
					roundTrip() // warm: ring pages, socket buffers, free lists
				}
				quiesce(eng)
				before := env.reads.Load()
				for i := 0; i < c.runs; i++ {
					roundTrip()
				}
				quiesce(eng)
				perRoundTrip := float64(env.reads.Load()-before) / float64(c.runs)
				if !bytes.Equal(buf, payload) {
					t.Fatal("payload corrupted")
				}
				ratchet.Check(t, "core/clock_reads_"+c.name+"_"+fab.name, perRoundTrip)
			})
		}
	}
}

// quiesce returns once every progress worker of both engines has
// finished what it was running: a step a reader ran inline holds its
// worker's turn until the pool has stamped its busy time, so a task
// queued behind it runs after that stamp.
func quiesce(eng [2]*Engine) {
	done := make(chan struct{})
	n := 0
	for _, e := range eng {
		for i := 0; i < e.pool.Size(); i++ {
			e.pool.Submit(uint32(i), progress.Task{Name: "quiesce", Run: func(rt.Ctx) { done <- struct{}{} }})
			n++
		}
	}
	for ; n > 0; n-- {
		<-done
	}
}
