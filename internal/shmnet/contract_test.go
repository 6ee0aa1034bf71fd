package shmnet_test

import (
	"testing"

	"repro/internal/railcore/railcoretest"
)

// The rail core's contract suite (internal/railcore/railcoretest) on the
// rings.

var shm = railcoretest.SHM

func TestRawFrameCrossesRing(t *testing.T)        { railcoretest.RawFrameCrosses(t, shm) }
func TestFrameLargerThanRingStreams(t *testing.T) { railcoretest.LargeFrameStreams(t, shm) }
func TestIdleAtDrains(t *testing.T)               { railcoretest.IdleAtDrains(t, shm) }
func TestCloseReleasesSenders(t *testing.T)       { railcoretest.CloseReleasesSenders(t, shm) }
func TestOversizedFramePanics(t *testing.T)       { railcoretest.OversizedFramePanics(t, shm) }
func TestDirectSinkBypassesRecvQ(t *testing.T)    { railcoretest.DirectSinkBypassesRecvQ(t, shm) }
func TestThrottleRailSlowsLane(t *testing.T)      { railcoretest.ThrottleRailSlowsLane(t, shm) }
func TestGracefulPeerCloseIsNotAnError(t *testing.T) {
	railcoretest.GracefulPeerCloseIsNotAnError(t, shm)
}

func TestMovePlaced(t *testing.T)      { railcoretest.MovePlaced(t, shm) }
func TestMoveDeclined(t *testing.T)    { railcoretest.MoveDeclined(t, shm) }
func TestMoveRailKilled(t *testing.T)  { railcoretest.MoveRailKilled(t, shm) }
func TestMoveCloseSweeps(t *testing.T) { railcoretest.MoveCloseSweeps(t, shm) }
func TestMoveFloor(t *testing.T)       { railcoretest.MoveFloor(t, shm) }
func TestMoveSlotsFull(t *testing.T)   { railcoretest.MoveSlotsFull(t, shm) }
