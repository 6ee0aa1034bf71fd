package main

import (
	"bytes"
	"embed"
	"fmt"

	"repro/multirail"
)

// The pinned sampling tables. They are the one thing the benchmark
// fixes about the engine's configuration: with live start-up sampling
// the TCP eager threshold lands anywhere between ~50 B and 32 KiB from
// one multirail.New to the next, which moves 512 B traffic between the
// rendezvous and eager paths. Regenerate with -resample.
//
//go:embed sampling/*.txt
var samplingFS embed.FS

const (
	tcpEagerCap = 32 << 10 // livenet's default EagerMax
	shmEagerCap = 64 << 10 // shmnet's default EagerMax
)

// workload is one closed-loop traffic shape on one fabric. Every caller
// waits for a completion before it reuses a buffer, as the engine's
// MPI-style users do, so load falls when the engine slows.
type workload struct {
	name     string
	sampling string // pinned table under sampling/
	fabric   multirail.Config
	size     int // payload bytes per message
	flows    int // concurrent tagged flows, each its own goroutines
	window   int // messages in flight per flow; 0 = ping-pong
	warmup   int // warm-up messages per flow (count-based, fully verified)
	wantThr  int // eager threshold the pinned table must give
}

// eager reports the regime the workload is meant to exercise.
func (w *workload) eager() bool { return w.size <= w.wantThr }

// msgsPerSample is how many messages one latency sample stands for: a
// round trip is two messages.
func (w *workload) msgsPerSample() int {
	if w.window == 0 {
		return 2
	}
	return 1
}

// The six workloads. Names are fixed: BENCHMARK.json, the README and
// later issues refer to them. Why each exists is recorded in
// BENCHMARK.json and README.md.
var workloads = []*workload{
	{
		name: "shm_pingpong_512", sampling: "shm2",
		fabric: multirail.Config{Fabric: multirail.FabricShm, ShmRails: 2},
		size:   512, flows: 1, window: 0, warmup: 2000, wantThr: shmEagerCap,
	},
	{
		name: "tcp_pingpong_64k", sampling: "tcp2",
		fabric: multirail.Config{Live: true, TCPRails: 2},
		size:   64 << 10, flows: 1, window: 0, warmup: 50, wantThr: tcpEagerCap,
	},
	{
		name: "tcp_stream_512", sampling: "tcp2",
		fabric: multirail.Config{Live: true, TCPRails: 2},
		size:   512, flows: 1, window: 32, warmup: 2000, wantThr: tcpEagerCap,
	},
	{
		name: "shm_bulk_1m", sampling: "shm2",
		fabric: multirail.Config{Fabric: multirail.FabricShm, ShmRails: 2},
		size:   1 << 20, flows: 1, window: 4, warmup: 50, wantThr: shmEagerCap,
	},
	{
		name: "tcp_bulk_1m", sampling: "tcp2",
		fabric: multirail.Config{Live: true, TCPRails: 2},
		size:   1 << 20, flows: 1, window: 4, warmup: 50, wantThr: tcpEagerCap,
	},
	{
		name: "mixed_flows8_8k", sampling: "shm1tcp2",
		fabric: multirail.Config{Live: true, ShmRails: 1, TCPRails: 2},
		size:   8 << 10, flows: 8, window: 8, warmup: 2000 / 8, wantThr: shmEagerCap,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// newDefault builds the cluster as a default user would: live start-up
// sampling included. Only setup_s and the sampling probes use it.
func (w *workload) newDefault() (*multirail.Cluster, error) {
	return multirail.New(w.fabric)
}

// newPinned builds the cluster every measurement runs on: default
// Workers, Shards and ring size, sampling tables loaded from the
// committed file, and the regime asserted rather than trusted.
func (w *workload) newPinned(mod func(*multirail.Config)) (*multirail.Cluster, error) {
	table, err := samplingFS.ReadFile("sampling/" + w.sampling + ".txt")
	if err != nil {
		return nil, err
	}
	cfg := w.fabric
	cfg.SamplingFrom = bytes.NewReader(table)
	if mod != nil {
		mod(&cfg)
	}
	c, err := multirail.New(cfg)
	if err != nil {
		return nil, err
	}
	// Under AdaptiveTelemetry the threshold is derived live and is not the
	// table's; only the traced run's adaptive pass sets it.
	if thr := c.EagerThreshold(0, 1); thr != w.wantThr && !cfg.AdaptiveTelemetry {
		c.Close()
		return nil, fmt.Errorf("%s: pinned table %s gives eager threshold %d, want %d", w.name, w.sampling, thr, w.wantThr)
	}
	return c, nil
}
