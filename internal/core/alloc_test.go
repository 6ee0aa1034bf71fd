package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/metrics"
	"repro/internal/ratchet"
	"repro/internal/rt"
	"repro/internal/trace"
)

// TestEagerSendAllocs is a regression ratchet on the eager send path
// as the simulator runs it: one complete Isend/Irecv round trip of a
// small message, engine to engine over the simulated fabric — most of
// the count is the simulator's own events, queues and actors, so it
// cannot see the live path (TestLiveEagerRoundTripAllocs does). The
// ceiling lives in ratchets.json ("core/eager_round_trip_sim") with ~8%
// slack above the last measurement —
// it exists to catch a new per-message heap escape (a closure capture,
// a slice that stopped being reused, a map rebuilt per send), not to be
// a tight benchmark. When the real cost drops, `railvet -ratchet`
// lowers the ceiling automatically; loosening it is a hand-written,
// reviewed diff.
// The engines run with a metrics registry installed: observability must
// not move the ceiling (the ISSUE 7 acceptance bar). Func instruments
// cost nothing until scraped and histogram Observe is allocation-free,
// so the measured figure should match the bare-engine one.
// They also run with the production tracing stack — a FlightRecorder
// installed as Flight, the one always-on event sink — so the recorder is
// held to the same bar.
func TestEagerSendAllocs(t *testing.T) {
	env, eng := pair(t, Config{
		Metrics: metrics.NewRegistry(),
		Flight:  trace.NewFlightRecorder(0),
	})
	payload := []byte("alloc-guard")
	buf := make([]byte, 64)
	tag := uint32(0)

	roundTrip := func() {
		rr := eng[1].Irecv(0, tag, buf)
		sr := eng[0].Isend(1, tag, payload)
		env.Go("allocprobe", func(ctx rt.Ctx) {
			sr.Wait(ctx)
			if _, err := rr.Wait(ctx); err != nil {
				t.Error(err)
			}
		})
		env.Run()
		tag++
	}
	roundTrip() // warm the plan cache and telemetry before measuring

	allocs := testing.AllocsPerRun(50, roundTrip)
	ratchet.Check(t, "core/eager_round_trip_sim", allocs)
}

// TestLiveEagerRoundTripAllocs ratchets what a message costs on the path
// applications run: a warmed 512 B round trip (Irecv, Isend, Wait,
// RemoteDone) between two engines over hosted shm rings and over
// loopback TCP, two rails, production tracing stack. The budget is one
// heap object per request — the SendRequest and the RecvRequest;
// completions, the container's unit, work items, headers, frames and
// every slice are embedded, borrowed or recycled (work.go). Entries
// "core/eager_round_trip_shm" and "core/eager_round_trip_tcp".
func TestLiveEagerRoundTripAllocs(t *testing.T) {
	for _, fab := range liveFabrics {
		t.Run(fab.name, func(t *testing.T) {
			env := rt.NewLive()
			f, err := fab.build(env)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			eng := livePair(t, env, f)
			payload := make([]byte, 512)
			rand.New(rand.NewSource(16)).Read(payload)
			buf := make([]byte, len(payload))
			roundTrip := liveRoundTrip(t, eng, payload, buf)
			for i := 0; i < 200; i++ {
				roundTrip() // warm: ring pages, socket buffers, free lists, map buckets
			}
			allocs := testing.AllocsPerRun(2000, roundTrip)
			if !bytes.Equal(buf, payload) {
				t.Fatal("payload corrupted")
			}
			ratchet.Check(t, "core/eager_round_trip_"+fab.name, allocs)
		})
	}
}
