package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// checkMetrics holds a run's metrics to the benchmark description: every
// declared metric exactly once, finite, with the declared unit, and
// nothing undeclared.
func checkMetrics(t *testing.T, got map[string]metric, want []specMetric) {
	t.Helper()
	for _, m := range want {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
		}
		v, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s is declared in BENCHMARK.json but was not emitted", m.Name)
		case v.Unit != m.Unit:
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, v.Unit, m.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s is not finite: %v", m.Name, v.Value)
		}
	}
	if len(got) != len(want) {
		for name := range got {
			found := false
			for _, m := range want {
				found = found || m.Name == name
			}
			if !found {
				t.Errorf("metric %s was emitted but is not declared in BENCHMARK.json", name)
			}
		}
	}
}

// TestProgramMatchesSpec runs every workload briefly, and the traced run
// at its minimum, so that BENCHMARK.json and the program cannot drift
// apart.
func TestProgramMatchesSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("runs live traffic for several seconds")
	}
	sp := testSpec(t)
	resultsDir = t.TempDir()
	waitDeadline = 2 * time.Second

	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	for _, sw := range sp.Workloads {
		w := workloadByName(sw.Name)
		if w == nil {
			t.Errorf("workload %s is in BENCHMARK.json but not in the program", sw.Name)
			continue
		}
		if !nameRE.MatchString(sw.Name) {
			t.Errorf("workload name %q is outside [A-Za-z0-9_.-]", sw.Name)
		}
		rep, err := runWorkload(w, 1, 300*time.Millisecond, false, io.Discard)
		if err != nil {
			t.Errorf("%s: %v", sw.Name, err)
			continue
		}
		if rep.Failed != 0 || !rep.Correct {
			t.Errorf("%s: %d of %d operations failed", sw.Name, rep.Failed, rep.Attempted)
		}
		checkMetrics(t, rep.Metrics, sp.EndToEnd)
		for _, m := range sp.EndToEnd {
			if rep.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, end-to-end metrics must never be 0", sw.Name, m.Name, rep.Metrics[m.Name].Value)
			}
		}
	}

	rep, err := runTraced(1, 300*time.Millisecond, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || !rep.Correct {
		t.Errorf("traced run: %d of %d operations failed", rep.Failed, rep.Attempted)
	}
	checkMetrics(t, rep.Metrics, sp.PerLayer)
	for _, w := range workloads {
		b, err := os.ReadFile(filepath.Join(resultsDir, "trace-"+w.name+".json"))
		if err != nil {
			t.Errorf("span file: %v", err)
			continue
		}
		var file struct {
			TraceEvents []chromeEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &file); err != nil || len(file.TraceEvents) == 0 {
			t.Errorf("span file of %s: %d events, %v", w.name, len(file.TraceEvents), err)
		}
	}
}

// TestCorruptPayloadFails is the other half of "the benchmark checks its
// outputs": a damaged message must be counted, not measured.
func TestCorruptPayloadFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs live traffic")
	}
	for _, name := range []string{"shm_pingpong_512", "shm_bulk_1m"} {
		rep, err := runWorkload(workloadByName(name), 1, 150*time.Millisecond, true, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed == 0 || rep.Correct {
			t.Errorf("%s: corrupt payload went unnoticed: failed=%d correct=%v", name, rep.Failed, rep.Correct)
		}
	}
}

func TestPayloadStamps(t *testing.T) {
	for _, size := range []int{32, 512, 64 << 10, 1 << 20} {
		p := newPayload(rand.New(rand.NewSource(7)), size)
		if want := 2 + (size+stampBlock-1)/stampBlock; size > 32 && len(p.offs) != want {
			t.Errorf("size %d: %d stamp positions, want %d", size, len(p.offs), want)
		}
		buf, scratch := p.newBuf(), make([]byte, size)
		p.stamp(buf, 41)
		if !p.stampsOK(buf, 41) || !p.fullOK(buf, scratch, 41) || p.head(buf) != 41 {
			t.Errorf("size %d: a stamped buffer does not verify", size)
		}
		if p.stampsOK(buf, 42) {
			t.Errorf("size %d: wrong sequence number accepted", size)
		}
		for _, o := range p.offs {
			buf[o] ^= 1
			if p.stampsOK(buf, 41) {
				t.Errorf("size %d: damage at stamp offset %d accepted", size, o)
			}
			buf[o] ^= 1
		}
		if size > 32 {
			buf[size/2+1] ^= 1
			if p.fullOK(buf, scratch, 41) {
				t.Errorf("size %d: full compare missed a flipped byte", size)
			}
		}
	}
}

func TestQuantilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("quartiles %+v", s)
	}
	if got := tailRank(500, 0.99); got != 0.98 {
		t.Errorf("tailRank(500) = %v: a p99 needs ten samples beyond it", got)
	}
	if got := tailRank(5000, 0.99); got != 0.99 {
		t.Errorf("tailRank(5000) = %v", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	specFile = filepath.Join("..", "BENCHMARK.json")
	sp := testSpec(t)
	dir := t.TempDir()
	// Ten runs per set; latency is `lat`, everything else constant.
	write := func(name string, lat func(i int) float64) string {
		var reports []*report
		for _, w := range sp.Workloads {
			for i := 0; i < 10; i++ {
				r := &report{Workload: w.Name, Metrics: map[string]metric{}}
				for _, m := range sp.EndToEnd {
					r.Metrics[m.Name] = metric{100, m.Unit}
				}
				r.Metrics["lat_p50_us"] = metric{lat(i), "us"}
				reports = append(reports, r)
			}
		}
		path := filepath.Join(dir, name)
		if err := appendReports(path, reports); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := write("a.jsonl", func(i int) float64 { return 100 + float64(i)/10 })
	slower := write("b.jsonl", func(i int) float64 { return 200 + float64(i)/10 })
	noisy := write("c.jsonl", func(i int) float64 { return 60 + 10*float64(i) })

	for _, tc := range []struct {
		a, b   string
		ok     bool
		expect string
	}{
		{steady, steady, true, "ok"},
		{steady, slower, false, "OUTSIDE BOUND"},
		{steady, noisy, true, "unresolved"},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(tc.a, tc.b, &out)
		if err != nil {
			t.Fatal(err)
		}
		line := ""
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, "lat_p50_us") {
				line = l
				break
			}
		}
		if ok != tc.ok || !strings.HasSuffix(line, tc.expect) {
			t.Errorf("compare(%s, %s): ok=%v, line %q; want ok=%v ending %q",
				filepath.Base(tc.a), filepath.Base(tc.b), ok, line, tc.ok, tc.expect)
		}
	}
}
