package shmnet

import (
	"testing"

	"repro/internal/ratchet"
)

// TestRingFrameAllocs pins the shm ring frame path at zero allocations
// per frame: the ring is the PIO lane of the intra-host rail, and an
// allocation per frame would put a GC tax on exactly the path whose
// reason to exist is being a bare memcpy. If this test starts failing,
// something on the write/read path grew a heap escape.
func TestRingFrameAllocs(t *testing.T) {
	region := make([]byte, ringRegionSize(1<<16))
	r := newRing(region, true)
	frame := make([]byte, 4096)
	out := make([]byte, 4096)
	abort := func() bool { return false }

	allocs := testing.AllocsPerRun(200, func() {
		if !r.write(frame, abort) {
			t.Fatal("write aborted")
		}
		if !r.read(out, frameBoundary, abort) {
			t.Fatal("read aborted")
		}
	})
	ratchet.Check(t, "shmnet/ring_frame", allocs)
}

// TestRingWrapAllocs exercises the wrap-around split copy, which must
// also stay allocation-free.
func TestRingWrapAllocs(t *testing.T) {
	region := make([]byte, ringRegionSize(1<<12))
	r := newRing(region, true)
	frame := make([]byte, 3000) // ~3/4 of the ring: every other frame wraps
	out := make([]byte, 3000)
	abort := func() bool { return false }

	allocs := testing.AllocsPerRun(200, func() {
		if !r.write(frame, abort) || !r.read(out, frameBoundary, abort) {
			t.Fatal("ring aborted")
		}
	})
	ratchet.Check(t, "shmnet/ring_wrap", allocs)
}
