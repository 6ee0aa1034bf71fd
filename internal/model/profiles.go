package model

import "time"

// Offload cost constants measured by the paper (§III-D): signalling an
// idle core that a request is ready costs 3 µs; preempting a computing
// thread with a signal costs 6 µs.
const (
	// OffloadSyncCost is the core-to-core synchronisation cost between the
	// split-ratio computation and the start of submission on a remote core.
	OffloadSyncCost = 3 * time.Microsecond
	// OffloadPreemptCost replaces OffloadSyncCost when a running thread
	// must be preempted by a signal to free the core.
	OffloadPreemptCost = 6 * time.Microsecond
)

// Myri10G returns the calibrated MX/Myri-10G profile.
//
// Calibration: the paper's 4 MB hetero-split checkpoint (2437 KB chunk in
// 1999 µs) implies a wire rate of ≈1219–1228 MB/s; a 1228e6 B/s wire rate
// together with a 7.9 µs rendezvous setup reproduces the reported
// 1170 MB/s (MiB/s) peak ping-pong bandwidth at 8 MB. The ≈2.9 µs
// small-message latency matches MX/Myri-10G figures of the era.
func Myri10G() *Profile {
	return &Profile{
		Name:            "Myri-10G",
		SendOverhead:    500 * time.Nanosecond,
		RecvOverhead:    400 * time.Nanosecond,
		WireLatency:     2 * time.Microsecond,
		EagerRate:       0.87e9,
		RecvCopyRate:    2.5e9,
		WireBandwidth:   1228e6,
		RdvHandshakeCPU: 3 * time.Microsecond,
		EagerMax:        32 * 1024,
	}
}

// QsNetII returns the calibrated Elan/QsNetII Quadrics profile.
//
// Calibration: the 4 MB iso-split checkpoint (2 MB chunk in ≈2400 µs) and
// the 1757 KB hetero chunk in 2001 µs imply a wire rate of ≈878 MB/s; with
// a 5.6 µs rendezvous setup this reproduces the reported 837 MB/s (MiB/s)
// peak. QsNetII small-message latency (≈1.6 µs) is below Myri-10G's, which
// is why the aggregated-over-Quadrics curve wins at small sizes in Fig 3.
func QsNetII() *Profile {
	return &Profile{
		Name:            "QsNetII",
		SendOverhead:    300 * time.Nanosecond,
		RecvOverhead:    300 * time.Nanosecond,
		WireLatency:     1 * time.Microsecond,
		EagerRate:       0.73e9,
		RecvCopyRate:    2.2e9,
		WireBandwidth:   878e6,
		RdvHandshakeCPU: 3 * time.Microsecond,
		EagerMax:        32 * 1024,
	}
}

// IBVerbs returns an InfiniBand-DDR-like profile (NewMadeleine's
// Verbs/InfiniBand driver; not part of the paper's testbed but listed
// among the supported networks).
func IBVerbs() *Profile {
	return &Profile{
		Name:            "IB-DDR",
		SendOverhead:    400 * time.Nanosecond,
		RecvOverhead:    300 * time.Nanosecond,
		WireLatency:     1300 * time.Nanosecond,
		EagerRate:       1.1e9,
		RecvCopyRate:    2.5e9,
		WireBandwidth:   1800e6,
		RdvHandshakeCPU: 2500 * time.Nanosecond,
		EagerMax:        16 * 1024,
	}
}

// GigE returns a TCP/GigE profile (NewMadeleine's TCP driver). High
// latency, ~118 MB/s wire rate, no gather/scatter.
func GigE() *Profile {
	return &Profile{
		Name:            "GigE-TCP",
		SendOverhead:    4 * time.Microsecond,
		RecvOverhead:    4 * time.Microsecond,
		WireLatency:     25 * time.Microsecond,
		EagerRate:       0.11e9,
		RecvCopyRate:    1.5e9,
		WireBandwidth:   118e6,
		RdvHandshakeCPU: 10 * time.Microsecond,
		EagerMax:        64 * 1024,
	}
}

// Uniform returns a synthetic profile for tests: fixed latency lat, a
// single rate for both regimes, and an eager limit of eagerMax bytes.
func Uniform(name string, lat time.Duration, rate float64, eagerMax int) *Profile {
	return &Profile{
		Name:            name,
		SendOverhead:    lat / 10,
		RecvOverhead:    lat / 10,
		WireLatency:     lat,
		EagerRate:       rate,
		RecvCopyRate:    2 * rate,
		WireBandwidth:   rate,
		RdvHandshakeCPU: lat,
		EagerMax:        eagerMax,
	}
}

// PaperTestbed returns the two rails of the paper's evaluation platform in
// the order (Myri-10G, QsNetII).
func PaperTestbed() []*Profile {
	return []*Profile{Myri10G(), QsNetII()}
}
