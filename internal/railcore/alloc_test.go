package railcore_test

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/railcore/railcoretest"
)

// frameRoundTrip wires node 1's sink to hand each frame back on a
// channel, released, and returns a function that sends one 512 B eager
// frame from node 0 on rail r and waits for it: the link layer alone, no
// engine.
func frameRoundTrip(f railcoretest.Fabric, r int) func() {
	got := make(chan struct{}, 1)
	f.Node(1).(fabric.DirectNode).SetSink(func(d *fabric.Delivery) {
		d.Release()
		got <- struct{}{}
	})
	rail, frame := f.Node(0).Rail(r), make([]byte, 512)
	return func() {
		rail.SendEager(nil, 1, frame)
		<-got
	}
}

// placedRoundTrip installs on node 1 a placer that takes every body into
// one buffer, and returns a function that sends one frame of a chunk-sized
// head and a 64 KiB body from node 0 on rail r and waits for its commit:
// on a rail with a Mover the body moves.
func placedRoundTrip(f railcoretest.Fabric, r int) func() {
	got := make(chan struct{}, 1)
	dst := make([]byte, 64<<10)
	commit := fabric.PlacedFunc(func(bool) { got <- struct{}{} })
	f.Node(1).(fabric.DirectNode).SetPlacer(func(int, int, []byte, int) ([]byte, fabric.Placed) { return dst, commit })
	rail, head, body := f.Node(0).Rail(r), make([]byte, 40), make([]byte, len(dst))
	return func() {
		rail.SendDataV(nil, 1, head, body, nil)
		<-got
	}
}

// A warmed frame allocates nothing on either transport, nor on either
// kind of rail of the joined core: the sender's write (inline or queued),
// the writer, the reader and the pooled receive frame all reuse storage
// the link or the node owns. Neither does a placed body — on shm a moved
// one, whose descriptor takes a slot of the lane's own table.
func TestFrameRoundTripAllocs(t *testing.T) {
	for _, tr := range railcoretest.Transports {
		t.Run(tr.Name, func(t *testing.T) {
			_, f := tr.Open(t, 1, 0)
			for r := 0; r < f.NumRails(); r++ {
				for _, c := range []struct {
					what      string
					roundTrip func() func()
				}{
					{"512 B frame", func() func() { return frameRoundTrip(f, r) }},
					{"placed 64 KiB body", func() func() { return placedRoundTrip(f, r) }},
				} {
					roundTrip := c.roundTrip()
					for i := 0; i < 100; i++ {
						roundTrip()
					}
					if allocs := testing.AllocsPerRun(1000, roundTrip); allocs > 0 {
						t.Fatalf("rail %d (%s): %.2f allocations per %s, want 0",
							r, f.Node(0).Rail(r).Caps().Kind, allocs, c.what)
					}
				}
				if tr.Name != "tcp" && r == 0 && f.Node(0).Rail(r).Stats().Moved == 0 {
					t.Fatalf("rail %d: no body moved", r)
				}
			}
		})
	}
}

// BenchmarkDevelLinkFrame is the one-way cost of a 512 B frame through the
// rail core on each transport — sender to sink, no engine — the floor
// under BenchmarkLiveEagerRoundTrip (internal/core).
func BenchmarkDevelLinkFrame(b *testing.B) {
	for _, tr := range railcoretest.Transports {
		b.Run(tr.Name, func(b *testing.B) {
			_, f := tr.Open(b, 1, 0)
			roundTrip := frameRoundTrip(f, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				roundTrip()
			}
		})
	}
}
