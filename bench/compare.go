package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// specFile is the benchmark's description at the root of the repository:
// the workloads, and for each end-to-end metric its direction and the
// bound by which it may worsen.
var specFile = "BENCHMARK.json"

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRuns reads an -out file: workload -> metric -> one value per
// untraced run.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Traced {
			continue
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			runs[r.Workload][name] = append(runs[r.Workload][name], m.Value)
		}
	}
	return runs, sc.Err()
}

// compareFiles prints, per workload and end-to-end metric, both sets'
// medians and quartiles, how much worse B's median is than A's, and the
// bound. A pair either of whose own quartile spreads exceeds the bound
// is unresolved, not ok: the runs cannot tell a change of that size
// from noise. (setup_s is exempt, as in the acceptance rule: its spread
// is printed but only its medians are held to the bound.) It reports
// whether every pair is inside its bound.
func compareFiles(pathA, pathB string, out io.Writer) (bool, error) {
	sp, err := loadSpec(specFile)
	if err != nil {
		return false, err
	}
	a, err := loadRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return false, err
	}
	allOK := true
	for _, w := range sp.Workloads {
		fmt.Fprintf(out, "%s\n", w.Name)
		for _, m := range sp.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(out, "  %-16s missing (A has %d runs, B has %d)\n", m.Name, len(va), len(vb))
				allOK = false
				continue
			}
			sa, sb := summarize(va), summarize(vb)
			worse := (sb.Median - sa.Median) / sa.Median
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "OUTSIDE BOUND"
				allOK = false
			case m.Name != "setup_s" && max(sa.spread(), sb.spread()) > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(out, "  %-16s A %12.4f [%12.4f .. %12.4f] n=%-2d spread %5.1f%%   B %12.4f [%12.4f .. %12.4f] n=%-2d spread %5.1f%%   worse by %+6.1f%% of bound %4.1f%%  %s\n",
				m.Name, sa.Median, sa.Q1, sa.Q3, sa.N, 100*sa.spread(), sb.Median, sb.Q1, sb.Q3, sb.N, 100*sb.spread(), 100*worse, 100*m.Bound, verdict)
		}
	}
	return allOK, nil
}
