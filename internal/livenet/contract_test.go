package livenet_test

import (
	"testing"

	"repro/internal/railcore/railcoretest"
)

// The rail core's contract suite (internal/railcore/railcoretest) on TCP.

var tcp = railcoretest.TCP

func TestRawFrameCrossesTCP(t *testing.T)      { railcoretest.RawFrameCrosses(t, tcp) }
func TestLargeFrameStreams(t *testing.T)       { railcoretest.LargeFrameStreams(t, tcp) }
func TestIdleAtDrains(t *testing.T)            { railcoretest.IdleAtDrains(t, tcp) }
func TestCloseReleasesSenders(t *testing.T)    { railcoretest.CloseReleasesSenders(t, tcp) }
func TestOversizedFramePanics(t *testing.T)    { railcoretest.OversizedFramePanics(t, tcp) }
func TestDirectSinkBypassesRecvQ(t *testing.T) { railcoretest.DirectSinkBypassesRecvQ(t, tcp) }
func TestThrottleRailSlowsLane(t *testing.T)   { railcoretest.ThrottleRailSlowsLane(t, tcp) }
func TestGracefulPeerCloseIsNotAnError(t *testing.T) {
	railcoretest.GracefulPeerCloseIsNotAnError(t, tcp)
}
