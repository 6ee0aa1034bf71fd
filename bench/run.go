package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/multirail"
)

// setupCycles is how many default-config New+Close cycles setup_s takes
// the median of.
const setupCycles = 3

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run of one workload produces. The last line of
// standard output is its first four fields; -out appends all of it.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	Workload string  `json:"workload,omitempty"`
	Seed     int64   `json:"seed"`
	Procs    int     `json:"procs"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	// Windows holds, for the windowed metrics, the quartiles and count
	// of the per-window values the reported median was taken over.
	Windows map[string]summary `json:"windows,omitempty"`
	// WindowValues holds the per-window values themselves, in time order.
	WindowValues map[string][]float64 `json:"window_values,omitempty"`
	Samples      int                  `json:"samples,omitempty"`
	Hang         string               `json:"hang,omitempty"`
}

// End-to-end metric names and units; BENCHMARK.json fixes direction and
// bound, and bench_test.go checks the two agree.
var endToEnd = []struct{ name, unit string }{
	{"lat_p50_us", "us"},
	{"lat_p99_us", "us"},
	{"msg_rate_per_s", "1/s"},
	{"goodput_MBps", "MB/s"},
	{"cpu_us_per_msg", "us"},
	{"allocs_per_msg", "count"},
	{"setup_s", "s"},
}

// setProcs applies the run shape every workload shares.
func setProcs() int {
	n := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(n)
	return n
}

// windowLen cuts the measured run into one-second windows (shorter only
// when the run itself is too short to hold three).
func windowLen(dur time.Duration) time.Duration {
	if dur >= 3*time.Second {
		return time.Second
	}
	return dur / 3
}

// measured is the outcome of one workload's measured phase.
type measured struct {
	attempted, failed int64
	aborted           bool
	hang              string
	p50, p99, rate    []float64 // per window
	samples           int
	tail              float64
	before, after     usage
	msgs              int64 // messages completed in the measured phase
	warm              time.Duration
	progressed        time.Duration // from the measured phase's start to its last completion
	overtaken         int64         // messages delivered after a later one of their tag
}

// drive warms a pinned cluster up by count, measures for dur, and checks
// that the traffic stayed in the workload's regime: leaving it is a hard
// error, not a slow row.
func drive(w *workload, c *multirail.Cluster, seed int64, dur time.Duration, spans *spanLog, corrupt bool) (*measured, error) {
	h := newHarness(w, c, seed)
	h.spans = spans
	if spans != nil {
		spans.c = c
	}
	m := &measured{}

	t0 := c.Now()
	warm := &phase{count: w.warmup / w.msgsPerSample(), window: time.Second, fullVerify: true, capHint: w.warmup + 1}
	m.aborted = h.runPhase(warm, 0)
	m.warm = c.Now() - t0
	m.attempted, m.failed = h.totals()
	if m.aborted {
		m.hang = h.hungAt
		m.before = readUsage(c)
		m.after = m.before
		return m, nil
	}
	if spans != nil {
		spans.reset() // the warm-up's spans are not part of the pass
	}

	// The recorders' capacity depends on the run length alone (room for
	// 500 000 samples a second), not on how fast the warm-up went: the
	// sample buffers are most of the live heap, so they set the pace of
	// the garbage collector, and that pace must be the same in every run.
	ph := &phase{window: windowLen(dur), corrupt: corrupt}
	ph.capHint = (int(dur.Seconds()*500_000) + 4096) / w.flows
	for _, f := range h.flows {
		f.rec.reset(0, ph.window, ph.capHint) // allocate now, ahead of the opening counter reading
	}
	runtime.GC()
	m.before = readUsage(c)
	m.aborted = h.runPhase(ph, dur)
	m.after = readUsage(c)
	a, f := h.totals()
	m.attempted += a
	m.failed += f
	m.msgs = a
	m.hang = h.hungAt
	m.p50, m.p99, m.rate, m.samples, m.tail = h.windowStats(ph)
	for _, f := range h.flows {
		m.progressed = max(m.progressed, f.rec.last-ph.start)
		m.overtaken += f.overtaken
	}
	if m.aborted {
		return m, nil
	}

	var eager, rdv uint64
	for n := 0; n < 2; n++ {
		eager += m.after.eng[n].EagerSent - m.before.eng[n].EagerSent
		rdv += m.after.eng[n].RdvSent - m.before.eng[n].RdvSent
	}
	if w.eager() && rdv != 0 {
		return m, fmt.Errorf("%s: %d rendezvous sends on an eager workload", w.name, rdv)
	}
	if !w.eager() && eager != 0 {
		return m, fmt.Errorf("%s: %d eager sends on a rendezvous workload", w.name, eager)
	}
	return m, nil
}

// closeCluster closes c, giving up after a few seconds: after a hang the
// engine may never quiesce, and the benchmark must go on to the next
// workload.
func closeCluster(c *multirail.Cluster) {
	done := make(chan struct{})
	go func() { c.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
	}
}

// runWorkload is the untraced run of one workload: set-up (timed),
// warm-up, measured phase, end-to-end metrics.
func runWorkload(w *workload, seed int64, dur time.Duration, corrupt bool, out io.Writer) (*report, error) {
	rep := &report{Workload: w.name, Seed: seed, Procs: setProcs(), Seconds: dur.Seconds(),
		Metrics: map[string]metric{}, Windows: map[string]summary{}}

	// What a default user pays for multirail.New: live sampling included.
	var cycles []float64
	for i := 0; i < setupCycles; i++ {
		t0 := time.Now()
		c, err := w.newDefault()
		if err != nil {
			return nil, err
		}
		c.Close()
		cycles = append(cycles, time.Since(t0).Seconds())
	}
	t0 := time.Now()
	c, err := w.newPinned(nil)
	if err != nil {
		return nil, err
	}
	newPinned := time.Since(t0).Seconds()
	m, err := drive(w, c, seed, dur, nil, corrupt)
	closeCluster(c)
	if err != nil {
		return nil, err
	}

	rep.Attempted, rep.Failed = m.attempted, m.failed
	rep.Correct = m.failed == 0 && !m.aborted
	rep.Hang, rep.Samples = m.hang, m.samples
	if len(m.rate) == 0 || m.msgs == 0 {
		return rep, fmt.Errorf("%s: no complete window measured", w.name)
	}
	msgs := float64(m.msgs)
	rate := summarize(m.rate)
	vals := map[string]float64{
		"lat_p50_us":     median(m.p50) / 1e3,
		"lat_p99_us":     median(m.p99) / 1e3,
		"msg_rate_per_s": rate.Median,
		"goodput_MBps":   rate.Median * float64(w.size) / 1e6,
		"cpu_us_per_msg": float64(m.after.cpu-m.before.cpu) / 1e3 / msgs,
		"allocs_per_msg": float64(m.after.mallocs-m.before.mallocs) / msgs,
		"setup_s":        median(cycles) + newPinned + m.warm.Seconds(),
	}
	for _, e := range endToEnd {
		rep.Metrics[e.name] = metric{vals[e.name], e.unit}
	}
	rep.Windows["lat_p50_us"] = scale(summarize(m.p50), 1e-3)
	rep.Windows["lat_p99_us"] = scale(summarize(m.p99), 1e-3)
	rep.Windows["msg_rate_per_s"] = rate
	rep.Windows["goodput_MBps"] = scale(rate, float64(w.size)/1e6)
	rep.WindowValues = map[string][]float64{"lat_p50_ns": m.p50, "lat_p99_ns": m.p99, "msg_rate_per_s": m.rate}

	fmt.Fprintf(out, "%s  seed %d  GOMAXPROCS %d  %.1f s in %d windows of %v  %d flows, window %d, %d B\n",
		w.name, seed, rep.Procs, dur.Seconds(), rate.N, windowLen(dur), w.flows, w.window, w.size)
	for _, e := range endToEnd {
		line := fmt.Sprintf("  %-16s %14.4f %-5s", e.name, vals[e.name], e.unit)
		if s, ok := rep.Windows[e.name]; ok {
			line += fmt.Sprintf("  median of %d windows, quartiles %.4f .. %.4f, %d samples", s.N, s.Q1, s.Q3, m.samples)
		}
		fmt.Fprintln(out, line)
	}
	if m.tail < 0.99 {
		fmt.Fprintf(out, "  lat_p99_us is the p%.2f: a window held fewer than 1000 samples\n", 100*m.tail)
	}
	fmt.Fprintf(out, "  %-16s %14.6f ratio  %d failed of %d attempted (%d measured)\n", "failed_share",
		float64(m.failed)/float64(max(m.attempted, 1)), m.failed, m.attempted, m.msgs)
	fmt.Fprintf(out, "  setup_s = median of %d default New+Close %.4f + pinned New %.4f + warm-up of %d messages %.4f\n",
		setupCycles, median(cycles), newPinned, w.warmup*w.flows, m.warm.Seconds())
	if m.overtaken > 0 {
		fmt.Fprintf(out, "  %d messages were delivered after a later one of their tag; the engine matches one (source, tag) pair in completion order\n", m.overtaken)
	}
	if m.aborted {
		fmt.Fprintf(out, "  WATCHDOG: a Wait exceeded %v; goroutines dumped to %s\n", waitDeadline, m.hang)
	}
	return rep, nil
}

func scale(s summary, k float64) summary {
	s.Median, s.Q1, s.Q3 = s.Median*k, s.Q1*k, s.Q3*k
	return s
}
