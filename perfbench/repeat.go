package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the repeat summary reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runChild runs one workload run in its own process (peak RSS is per
// process), keeps its output under cfg.out/runs, and returns its result
// line.
func runChild(cfg config, seed int64) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", cfg.workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", trace, "-out", cfg.out)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	logDir := filepath.Join(cfg.out, "runs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	log := filepath.Join(logDir, fmt.Sprintf("%s-trace%s-seed%d.log", cfg.workload, trace, seed))
	if err := os.WriteFile(log, stdout, 0o644); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Text(); strings.TrimSpace(line) != "" {
			last = line
		}
		if strings.HasPrefix(sc.Text(), "FAIL") {
			fmt.Println(sc.Text())
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("seed %d: last line is not a result: %w", seed, err)
	}
	return &res, nil
}

// repeatRuns runs sets × k runs, summarizes each set, and with two sets
// applies the agreement criterion: each end-to-end metric's spread (the
// interquartile range over the median) within its bound, setup_s excepted,
// and the second set's median no worse than the first's by more than the
// bound.
func repeatRuns(cfg config, k, sets int) error {
	var spec benchmarkSpec
	if data, err := os.ReadFile("BENCHMARK.json"); err == nil {
		if err := json.Unmarshal(data, &spec); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
	}
	bounds := map[string]float64{}
	lower := map[string]bool{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
		lower[m.Name] = m.Better == "lower"
	}
	var medians []map[string]float64
	ok := true
	for s := 0; s < sets; s++ {
		values := map[string][]float64{}
		for i := 0; i < k; i++ {
			seed := cfg.seed + int64(s*k+i)
			res, err := runChild(cfg, seed)
			if err != nil {
				return err
			}
			fmt.Printf("set %d seed %d: correct=%v attempted=%d failed=%d", s+1, seed, res.Correct, res.Attempted, res.Failed)
			for _, m := range spec.EndToEnd {
				if v, has := res.Metrics[m.Name]; has {
					fmt.Printf(" %s=%.6g", m.Name, v.Value)
				}
			}
			fmt.Println()
			ok = ok && res.Correct
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		med := map[string]float64{}
		var names []string
		for name := range values {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("set %d: %d runs of %s\n", s+1, k, cfg.workload)
		fmt.Printf("  %-32s %12s %12s %12s %8s %7s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, name := range names {
			vs := values[name]
			var q1, q2, q3 float64
			if len(vs) >= 2 {
				q1, q2, q3 = quartiles(vs)
			} else {
				q1, q2, q3 = vs[0], vs[0], vs[0]
			}
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / math.Abs(q2)
			}
			med[name] = q2
			note := ""
			if b, has := bounds[name]; has {
				note = fmt.Sprintf("%7.3f", b)
				if name != "setup_s" && spread > b {
					note += "  SPREAD ABOVE BOUND"
					ok = false
				} else if spread > b/3 {
					note += "  spread above a third of the bound"
				}
			}
			fmt.Printf("  %-32s %12.6g %12.6g %12.6g %8.4f %s\n", name, q1, q2, q3, spread, note)
		}
		medians = append(medians, med)
	}
	if sets >= 2 {
		fmt.Println("agreement of set 2 with set 1 (positive = worse):")
		for _, m := range spec.EndToEnd {
			a, b := medians[0][m.Name], medians[1][m.Name]
			worse := 0.0
			if a != 0 {
				worse = (b - a) / math.Abs(a)
				if !lower[m.Name] {
					worse = -worse
				}
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "WORSE THAN BOUND"
				ok = false
			}
			fmt.Printf("  %-20s %12.6g %12.6g %+8.4f bound %.3f %s\n", m.Name, a, b, worse, m.Bound, verdict)
		}
	}
	if !ok {
		return fmt.Errorf("%s: the runs were not all correct or not steady within the bounds", cfg.workload)
	}
	return nil
}
