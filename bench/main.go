// Command bench is the repository's benchmark: six closed-loop workloads
// on live fabrics inside one process, measured end to end (the default
// run) and layer by layer from outside the program (-trace 1). See
// README.md for the metric tables and how to run, trace and compare.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// resultsDir receives span files and goroutine dumps.
var resultsDir = "bench/results"

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (default: all six, one after the other)")
		seed     = flag.Int64("seed", 1, "seed for payload bytes, verification offsets and flow tags")
		seconds  = flag.Float64("seconds", 20, "length of each workload's measured run")
		traced   = flag.Int("trace", 0, "1 = the traced run: per-layer metrics and span files instead of end-to-end metrics")
		outFile  = flag.String("out", "", "append each run's full report to this file, one JSON object per line")
		compare  = flag.Bool("compare", false, "compare two -out files: bench -compare A.jsonl B.jsonl")
		resample = flag.String("resample", "", "re-measure the pinned sampling tables into this directory (bench/sampling) and exit")
		corrupt  = flag.Bool("corrupt", false, "test hook: damage one payload per flow so that verification must fail")
	)
	flag.StringVar(&resultsDir, "results", resultsDir, "directory for span files and goroutine dumps")
	flag.StringVar(&specFile, "spec", specFile, "the benchmark description -compare takes bounds and directions from")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("usage: bench -compare A.jsonl B.jsonl"))
		}
		ok, err := compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	case *resample != "":
		if err := resampleInto(*resample); err != nil {
			fatal(err)
		}
		return
	}

	run := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		run = []*workload{w}
	}
	dur := time.Duration(*seconds * float64(time.Second))
	final := &report{Correct: true, Metrics: map[string]metric{}}
	var reports []*report
	if *traced != 0 {
		rep, err := runTraced(*seed, dur, os.Stdout)
		if err != nil {
			fatal(err)
		}
		reports, final = append(reports, rep), rep
	} else {
		for _, w := range run {
			rep, err := runWorkload(w, *seed, dur, *corrupt, os.Stdout)
			if err != nil {
				fatal(err)
			}
			reports = append(reports, rep)
			final.Correct = final.Correct && rep.Correct
			final.Attempted += rep.Attempted
			final.Failed += rep.Failed
			for k, m := range rep.Metrics {
				if len(run) > 1 {
					k = w.name + "." + k
				}
				final.Metrics[k] = m
			}
		}
	}
	if *outFile != "" {
		if err := appendReports(*outFile, reports); err != nil {
			fatal(err)
		}
	}
	// The result line: exactly these four keys, last on standard output.
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{final.Correct, final.Attempted, final.Failed, final.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func appendReports(path string, reports []*report) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range reports {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// resampleInto writes the three pinned sampling tables: the start-up
// sampling of a default cluster whose eager threshold came out at the
// fabric's cap. Live sampling is noisy (that is why the tables are
// pinned), so it retries until the threshold is the cap.
func resampleInto(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	done := map[string]bool{}
	for _, w := range workloads {
		if done[w.sampling] {
			continue
		}
		done[w.sampling] = true
		const tries = 200
		for i := 1; ; i++ {
			c, err := w.newDefault()
			if err != nil {
				return err
			}
			thr := c.EagerThreshold(0, 1)
			if thr == w.wantThr {
				var b strings.Builder
				err := c.SaveSampling(&b)
				c.Close()
				if err != nil {
					return err
				}
				path := filepath.Join(dir, w.sampling+".txt")
				if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
					return err
				}
				fmt.Printf("%s: threshold %d after %d tries\n", path, thr, i)
				break
			}
			c.Close()
			if i == tries {
				return fmt.Errorf("%s: threshold never reached %d in %d tries (last %d)", w.sampling, w.wantThr, tries, thr)
			}
		}
	}
	return nil
}
