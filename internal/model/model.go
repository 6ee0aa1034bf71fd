// Package model defines analytic performance models of network interface
// cards (NICs).
//
// The paper's evaluation runs on real Myri-10G (MX) and QsNetII (Elan)
// rails; we have neither, so the rails are replaced by calibrated analytic
// profiles (see DESIGN.md §2). A Profile captures the two protocol regimes
// of a high-performance NIC circa 2008:
//
//   - Eager/PIO: the host CPU programs the payload into the NIC; the copy
//     is CPU-bound and serialises on the submitting core. One-way time is
//     SendOverhead + n/EagerRate + WireLatency + RecvOverhead.
//   - Rendezvous/DMA: an RTS/CTS handshake, then the NIC DMAs the payload
//     at wire rate without consuming CPU. One-way time is
//     RdvSetup + n/WireBandwidth.
//
// Calibration (asserted by tests in this package and internal/calib):
// the paper's 4 MB hetero-split checkpoint (2437 KB over Myri-10G in
// 1999 µs, 1757 KB over Quadrics in 2001 µs) pins the wire rates at
// ≈1228 MB/s and ≈878 MB/s; the reported peak ping-pong bandwidths
// (1170 and 837 "MB/s", i.e. MiB/s) pin the rendezvous setup costs.
package model

import (
	"fmt"
	"math"
	"time"
)

// Protocol identifies which transfer regime a message uses.
type Protocol int

const (
	// Eager sends the payload immediately; CPU-bound PIO copy.
	Eager Protocol = iota
	// Rendezvous handshakes first, then DMAs at wire rate.
	Rendezvous
)

func (p Protocol) String() string {
	switch p {
	case Eager:
		return "eager"
	case Rendezvous:
		return "rendezvous"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Profile is the analytic performance model of one NIC technology.
// All rates are bytes per second; all durations are one-way costs.
type Profile struct {
	// Name identifies the technology ("Myri-10G", "QsNetII", ...).
	Name string

	// SendOverhead is the fixed per-message host cost to post a send.
	SendOverhead time.Duration
	// RecvOverhead is the fixed per-message host cost on the receiver.
	RecvOverhead time.Duration
	// WireLatency is the one-way propagation latency of a minimal packet.
	WireLatency time.Duration

	// EagerRate is the end-to-end per-byte rate of the PIO path. It folds
	// the host-side programmed-I/O copy and the receiver-side copy into a
	// single CPU-bound slope, which is what a ping-pong measures. The
	// submitting core is busy for SendOverhead + n/EagerRate.
	EagerRate float64

	// RecvCopyRate is the receiver-side copy rate for eager packets. The
	// receiving core is busy for RecvOverhead + n/RecvCopyRate; its
	// contribution to one-way latency is already folded into EagerRate.
	RecvCopyRate float64

	// WireBandwidth is the sustained DMA rate of the rendezvous path.
	WireBandwidth float64
	// RdvHandshakeCPU is the extra host cost of the RTS/CTS exchange on
	// top of the two wire latencies and the per-message overheads.
	RdvHandshakeCPU time.Duration

	// EagerMax is the largest payload the eager path accepts. Above it the
	// rendezvous path is mandatory regardless of predicted cost.
	EagerMax int

	// MaxMsg is the largest single message the NIC accepts (0 = unlimited).
	MaxMsg int
}

// durPerByte converts a byte count and a rate into a duration.
func durPerByte(n int, rate float64) time.Duration {
	if n <= 0 || rate <= 0 {
		return 0
	}
	return time.Duration(math.Round(float64(n) / rate * 1e9))
}

// SendCPUTime returns how long the submitting core is busy posting an
// n-byte message with the given protocol. Eager sends are copy-bound;
// rendezvous sends only post descriptors.
func (p *Profile) SendCPUTime(proto Protocol, n int) time.Duration {
	if proto == Eager {
		return p.SendOverhead + durPerByte(n, p.EagerRate)
	}
	return p.SendOverhead
}

// RdvSetup returns the fixed cost of a rendezvous: the RTS post, the
// RTS/CTS round trip, the handshake CPU cost, and the data-descriptor
// post (hence two SendOverheads: one for the RTS, one for the DMA post).
func (p *Profile) RdvSetup() time.Duration {
	return 2*p.SendOverhead + p.RecvOverhead + 2*p.WireLatency + p.RdvHandshakeCPU
}

// EagerOneWay returns the modeled one-way latency of an n-byte eager send.
func (p *Profile) EagerOneWay(n int) time.Duration {
	return p.SendOverhead + durPerByte(n, p.EagerRate) + p.WireLatency + p.RecvOverhead
}

// RdvOneWay returns the modeled one-way latency of an n-byte rendezvous
// send.
func (p *Profile) RdvOneWay(n int) time.Duration {
	return p.RdvSetup() + durPerByte(n, p.WireBandwidth)
}

// OneWay returns the modeled one-way latency with the protocol the driver
// would pick (eager below Threshold, rendezvous above).
func (p *Profile) OneWay(n int) time.Duration {
	if proto := p.Choose(n); proto == Eager {
		return p.EagerOneWay(n)
	}
	return p.RdvOneWay(n)
}

// Choose returns the protocol the driver picks for an n-byte payload:
// whichever is predicted faster, except that payloads above EagerMax must
// use rendezvous.
func (p *Profile) Choose(n int) Protocol {
	if p.EagerMax > 0 && n > p.EagerMax {
		return Rendezvous
	}
	if p.EagerOneWay(n) <= p.RdvOneWay(n) {
		return Eager
	}
	return Rendezvous
}

// Threshold returns the payload size at which the rendezvous path becomes
// faster than the eager path (the model's natural rendezvous threshold),
// capped at EagerMax.
func (p *Profile) Threshold() int {
	// Eager:      a1 + n*s1  with a1 = SendOv+WireLat+RecvOv, s1 = 1/EagerRate
	// Rendezvous: a2 + n*s2  with a2 = RdvSetup,               s2 = 1/WireBandwidth
	a1 := float64(p.SendOverhead + p.WireLatency + p.RecvOverhead)
	a2 := float64(p.RdvSetup())
	s1 := 1e9 / p.EagerRate
	s2 := 1e9 / p.WireBandwidth
	if s1 <= s2 {
		// Eager never loses; threshold is the hard cap.
		return p.EagerMax
	}
	n := int(math.Ceil((a2 - a1) / (s1 - s2)))
	if p.EagerMax > 0 && n > p.EagerMax {
		return p.EagerMax
	}
	if n < 0 {
		n = 0
	}
	return n
}

// Bandwidth returns the modeled ping-pong bandwidth (bytes/second) at
// size n, i.e. n divided by the one-way latency.
func (p *Profile) Bandwidth(n int) float64 {
	t := p.OneWay(n)
	if t <= 0 {
		return 0
	}
	return float64(n) / t.Seconds()
}

// Validate checks the profile for usable values.
func (p *Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("model: profile has no name")
	case p.EagerRate <= 0:
		return fmt.Errorf("model: %s: EagerRate must be positive", p.Name)
	case p.WireBandwidth <= 0:
		return fmt.Errorf("model: %s: WireBandwidth must be positive", p.Name)
	case p.RecvCopyRate <= 0:
		return fmt.Errorf("model: %s: RecvCopyRate must be positive", p.Name)
	case p.WireLatency < 0 || p.SendOverhead < 0 || p.RecvOverhead < 0 || p.RdvHandshakeCPU < 0:
		return fmt.Errorf("model: %s: negative duration", p.Name)
	case p.EagerMax < 0 || p.MaxMsg < 0:
		return fmt.Errorf("model: %s: negative size limit", p.Name)
	}
	return nil
}

func (p *Profile) String() string {
	return fmt.Sprintf("%s{lat=%v eager=%.0fMB/s wire=%.0fMB/s thresh=%d}",
		p.Name, p.WireLatency, p.EagerRate/1e6, p.WireBandwidth/1e6, p.Threshold())
}
