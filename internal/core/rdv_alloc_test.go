package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/ratchet"
	"repro/internal/rt"
	"repro/internal/sampling"
)

// liveProfiles pins the regime split the way the benchmark does: sizes
// up to 32 KiB go eager, larger ones rendezvous, identical on both
// rails so a large message stripes into two chunks.
func liveProfiles(t testing.TB) []*sampling.RailProfile {
	t.Helper()
	eager, err := sampling.NewTable([]sampling.Sample{
		{Size: 4, T: time.Microsecond}, {Size: 32 << 10, T: 10 * time.Microsecond}})
	if err != nil {
		t.Fatal(err)
	}
	rdv, err := sampling.NewTable([]sampling.Sample{
		{Size: 4, T: 50 * time.Microsecond}, {Size: 8 << 20, T: 5 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*sampling.RailProfile, 2)
	for r := range out {
		out[r] = &sampling.RailProfile{Rail: r, Name: "live", Eager: eager, Rdv: rdv, EagerMax: 32 << 10}
	}
	return out
}

// TestRdvRoundTripAllocs is the executable definition of "no
// payload-sized allocation on the rendezvous path": one warmed 1 MiB
// rendezvous between two engines on a live two-rail fabric — production
// tracing stack installed, as in TestEagerSendAllocs — may allocate a
// few dozen small objects (requests, events, headers, closures) but
// under 64 KiB in total, on shared-memory rings and on TCP alike: one
// frame-sized buffer per chunk, on either side, is 1 MiB per message
// and fails it by a wide margin. The shm count is ratcheted as
// "core/rdv_round_trip_1m".
func TestRdvRoundTripAllocs(t *testing.T) {
	for _, fab := range liveFabrics {
		t.Run(fab.name, func(t *testing.T) {
			env := rt.NewLive()
			f, err := fab.build(env)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			eng := livePair(t, env, f)
			payload := make([]byte, 1<<20)
			rand.New(rand.NewSource(12)).Read(payload)
			buf := make([]byte, len(payload))
			roundTrip := liveRoundTrip(t, eng, payload, buf)
			roundTrip() // warm: ring pages, socket buffers, lazily grown queues
			if !bytes.Equal(buf, payload) {
				t.Fatal("payload corrupted")
			}
			if st := eng[0].Stats(); st.RdvSent != 1 || st.ChunksSent != 2 {
				t.Fatalf("stats %+v, want 1 rendezvous in 2 chunks", st)
			}

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			roundTrip()
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
				t.Errorf("a warmed 1 MiB rendezvous allocated %d bytes, want < 64 KiB: a payload-sized buffer is back on the path", got)
			}
			if fab.name == "shm" {
				ratchet.Check(t, "core/rdv_round_trip_1m", testing.AllocsPerRun(20, roundTrip))
			}
		})
	}
}
