// Command perfbench is the repository's end-to-end benchmark. One run
// executes one named workload from a seed, checks every answer, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics and the
// tracing overhead) as the last line of its output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"latency_ms": {"value": 0.1, "unit": "ms"}, ...}}
//
// Workloads:
//
//	serve-small    loopback POST /check, one closed-loop client, small tier:
//	               corpus and ≤8-op random histories over all 14 models,
//	               half of them relabelled orbit-mates (verdict cache hits)
//	serve-heavy    loopback POST /check, two closed-loop clients, heavy tier
//	               (cache bypassed): 18–24-op simulator and random histories
//	explore-mutex  the paper's §5 experiment: nine mutual-exclusion
//	               algorithms at n=2 on six simulated memories, one
//	               explore.ExhaustiveCtx at a time
//
// Every workload is a fixed list of operations generated from -seed; the
// run repeats whole passes over it for -seconds. Build and run it from the
// repository root with perfbench/run.sh, which passes the remaining
// arguments through:
//
//	bash perfbench/run.sh --workload serve-small --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload explore-mutex --seed 1 --seconds 30 --repeat 10
//
// -repeat k runs the workload k times, each in its own process with seeds
// seed, seed+1, ..., and prints each metric's median, quartiles and spread
// next to its bound from BENCHMARK.json; -sets 2 does that twice and
// reports whether the two sets' medians agree within the bounds.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"syscall"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for span files
}

// measure is how long each phase of the run measures: all of -seconds for
// an untraced run; half for each of a traced run's untraced and traced
// phases, so both kinds of run take about as long.
func (c config) measure() float64 {
	if c.trace {
		return c.seconds / 2
	}
	return c.seconds
}

// defaultSeed is the seed BENCHMARK.json records for reproducing a run.
const defaultSeed = 1

// endToEndUnits are the end-to-end metrics every workload reports.
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"work_per_s":      "1/s",
	"latency_ms":      "ms",
	"tail_latency_ms": "ms",
	"pass_ratio":      "ratio",
	"peak_rss_mb":     "MB",
}

// perLayerUnits are the per-layer metrics every traced run reports. A
// workload that does not run a layer reports its metrics as 0.
var perLayerUnits = map[string]string{
	"obshttp.overhead_us":           "us",
	"obshttp.solve_us_p50":          "us",
	"obshttp.solve_us_p99":          "us",
	"obshttp.wait_us_p99":           "us",
	"obshttp.shed":                  "count",
	"obshttp.failed":                "count",
	"obshttp.resp_bytes_p50":        "B",
	"history.parse_us_p50":          "us",
	"history.canonicalize_us_p50":   "us",
	"history.canonicalize_us_p99":   "us",
	"vcache.hit_ratio":              "ratio",
	"vcache.hit_us_p50":             "us",
	"model.solve_us_p50":            "us",
	"model.solve_us_p99":            "us",
	"model.candidates":              "count",
	"model.nodes":                   "count",
	"model.allocs_per_check":        "count",
	"model.explain_us_p50":          "us",
	"explore.states":                "count",
	"explore.transitions":           "count",
	"explore.find_states_p50":       "count",
	"explore.violation_depth_p50":   "count",
	"explore.state_us":              "us",
	"explore.bytes_per_state":       "B",
	"explore.incomplete":            "count",
	"program.clone_us_p50":          "us",
	"program.clone_bytes_p50":       "B",
	"program.fingerprint_us_p50":    "us",
	"program.fingerprint_bytes_p50": "B",
	"program.step_us_p50":           "us",
	"sim.step_us_p50":               "us",
	"sim.internal_actions_p50":      "count",
	"sim.recorded_ops_p50":          "count",
	"bench.trace_overhead_pct":      "%",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set fills every metric named in units from values (0 when absent).
func (r *result) set(values map[string]float64, units map[string]string) {
	r.Metrics = map[string]metric{}
	for name, unit := range units {
		r.Metrics[name] = metric{Value: values[name], Unit: unit}
	}
}

// logf prints one of the human-readable lines that precede the result.
func logf(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

// workloadNames lists the workloads in BENCHMARK.json's order.
var workloadNames = []string{"serve-small", "serve-heavy", "explore-mutex"}

// opList is a workload's generated operations: checks for the serve
// workloads, cells for explore-mutex.
type opList struct {
	checks []checkOp
	cells  []cell
}

// genOps generates a workload's op list from seed: the same seed gives the
// same list. The seed orders the ops and, for the serve workloads,
// relabels every history of the fixed population: fully on serve-small,
// whose canonicalizer the relabellings exercise, and without permuting
// processors on serve-heavy, whose checks then cost the same solver work
// on every seed.
func genOps(workload string, seed int64) (opList, error) {
	rng := rand.New(rand.NewSource(seed))
	pop := rand.New(rand.NewSource(populationSeed))
	var ops opList
	var err error
	switch workload {
	case "serve-small":
		if ops.checks, err = genSmall(pop); err == nil {
			ops.checks, err = present(ops.checks, rng, true)
		}
	case "serve-heavy":
		ops.checks, err = present(genHeavy(pop), rng, false)
	case "explore-mutex":
		ops.cells = genCells(rng)
	default:
		err = fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloadNames, ", "))
	}
	return ops, err
}

func (o opList) len() int { return len(o.checks) + len(o.cells) }

// digest fingerprints an op list.
func (o opList) digest() (string, error) {
	var v any = o.checks
	if o.cells != nil {
		names := make([]string, len(o.cells))
		for i, c := range o.cells {
			names[i] = c.name()
		}
		v = names
	}
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func run(cfg config) (*result, error) {
	ops, err := genOps(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	d, err := ops.digest()
	if err != nil {
		return nil, err
	}
	logf("workload %s seed %d ops %d digest %s seconds %g trace %v", cfg.workload, cfg.seed, ops.len(), d, cfg.seconds, cfg.trace)
	switch cfg.workload {
	case "serve-small":
		// One client's p99 swings with host scheduling hiccups on a
		// shared 2-vCPU machine (0.7 to 2 ms between runs); p95 holds.
		logf("ops: %s", sortedKinds(ops.checks))
		return runServe(cfg, 1, 95, ops.checks)
	case "serve-heavy":
		logf("ops: %s", sortedKinds(ops.checks))
		return runServe(cfg, 2, 99, ops.checks)
	default:
		return runMutex(cfg, ops.cells)
	}
}

func main() {
	var cfg config
	var traceFlag, repeat, sets int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "seed the op list is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "how long to measure (whole passes over the op list)")
	flag.IntVar(&traceFlag, "trace", 0, "1 = also make the traced run and print the per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for span files")
	flag.IntVar(&repeat, "repeat", 0, "run the workload this many times in child processes and summarize")
	flag.IntVar(&sets, "sets", 1, "with -repeat: number of sets of runs to compare")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if cfg.workload == "" || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -workload and a positive -seconds are required")
		os.Exit(2)
	}
	if repeat > 0 {
		if err := repeatRuns(cfg, repeat, sets); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
