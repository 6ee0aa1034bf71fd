package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/livenet"
	"repro/internal/metrics"
	"repro/internal/ratchet"
	"repro/internal/rt"
	"repro/internal/sampling"
	"repro/internal/shmnet"
	"repro/internal/trace"
)

// liveProfiles pins the regime split the way the benchmark does: sizes
// up to 32 KiB go eager, larger ones rendezvous, identical on both
// rails so a large message stripes into two chunks.
func liveProfiles(t *testing.T) []*sampling.RailProfile {
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
	fabrics := []struct {
		name  string
		build func(env *rt.LiveEnv) (fabric.Fabric, error)
	}{
		{"shm", func(env *rt.LiveEnv) (fabric.Fabric, error) {
			return shmnet.NewHosted(env, shmnet.Config{Rails: 2})
		}},
		{"tcp", func(env *rt.LiveEnv) (fabric.Fabric, error) {
			return livenet.NewLoopback(env, livenet.Config{Rails: 2})
		}},
	}
	for _, fab := range fabrics {
		t.Run(fab.name, func(t *testing.T) {
			env := rt.NewLive()
			f, err := fab.build(env)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var eng [2]*Engine
			for i := range eng {
				flight := trace.NewFlightRecorder(0)
				eng[i], err = NewEngine(env, f.Node(i), liveProfiles(t), Config{
					DirectProgress: true,
					Metrics:        metrics.NewRegistry(),
					Tracer:         trace.Tee(trace.NewCounts(), flight),
					Flight:         flight,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer eng[i].Stop()
			}
			payload := make([]byte, 1<<20)
			rand.New(rand.NewSource(12)).Read(payload)
			buf := make([]byte, len(payload))
			tag := uint32(0)
			// Live events ignore their Ctx, so the probe waits inline and
			// adds no goroutine or channel of its own to the count.
			roundTrip := func() {
				rr := eng[1].Irecv(0, tag, buf)
				sr := eng[0].Isend(1, tag, payload)
				if n, err := rr.Wait(nil); err != nil || n != len(payload) {
					t.Errorf("recv: n=%d err=%v", n, err)
				}
				sr.RemoteDone().Wait(nil)
				tag++
			}
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
