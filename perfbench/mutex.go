package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/algorithms"
	"repro/explore"
	"repro/history"
	"repro/model"
	"repro/program"
	"repro/sim"
)

// mutexAlgorithms are the §5 experiment's programs at n=2.
var mutexAlgorithms = []struct {
	name  string
	progs func(labeled bool) [][]program.Stmt
}{
	{"Bakery-1r", func(l bool) [][]program.Stmt { return algorithms.Bakery(2, 1, l) }},
	{"Bakery-2r", func(l bool) [][]program.Stmt { return algorithms.Bakery(2, 2, l) }},
	{"Peterson-1r", func(l bool) [][]program.Stmt { return algorithms.Peterson(1, l) }},
	{"Peterson-2r", func(l bool) [][]program.Stmt { return algorithms.Peterson(2, l) }},
	{"Dekker-1r", func(l bool) [][]program.Stmt { return algorithms.Dekker(1, l) }},
	{"Dekker-2r", func(l bool) [][]program.Stmt { return algorithms.Dekker(2, l) }},
	{"LamportFast", func(l bool) [][]program.Stmt { return algorithms.LamportFast(l) }},
	{"Dijkstra", func(l bool) [][]program.Stmt { return algorithms.Dijkstra(2, l) }},
	{"Szymanski", func(l bool) [][]program.Stmt { return algorithms.Szymanski(2, l) }},
}

// mutexMemories are the simulated memories, constructed and labelled as
// the algorithms tests do: synchronization accesses are labelled on the
// release-consistent memories only, and TSO is the forwarding machine.
// safe marks the memories on which every algorithm keeps mutual exclusion
// (the explorer must prove it); on the others it must find a violation.
var mutexMemories = []struct {
	name    string
	mem     func() sim.Memory
	labeled bool
	safe    bool
}{
	{"SC", func() sim.Memory { return sim.NewSC(2) }, false, true},
	{"TSO", func() sim.Memory { return sim.NewTSO(2) }, false, false},
	{"PRAM", func() sim.Memory { return sim.NewPRAM(2) }, false, false},
	{"Causal", func() sim.Memory { return sim.NewCausal(2) }, false, false},
	{"RCsc", func() sim.Memory { return sim.NewRCsc(2) }, true, true},
	{"RCpc", func() sim.Memory { return sim.NewRCpc(2) }, true, false},
}

// stateCap bounds every exploration far above what any cell needs (the
// largest, Bakery-2r on SC, visits 2,736 states), so a search that
// regresses ends Incomplete and fails instead of exhausting the host.
const stateCap = 20_000

// cell is one exploration: an algorithm on a memory.
type cell struct {
	alg, mem int
}

func (c cell) name() string {
	return mutexAlgorithms[c.alg].name + "/" + mutexMemories[c.mem].name
}

// genCells lists every algorithm × memory cell in the seed's order.
func genCells(rng *rand.Rand) []cell {
	var cells []cell
	for a := range mutexAlgorithms {
		for m := range mutexMemories {
			cells = append(cells, cell{a, m})
		}
	}
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

// machine compiles a cell's programs onto a fresh memory.
func (c cell) machine() (*program.Machine, error) {
	mm := mutexMemories[c.mem]
	return program.NewMachine(mm.mem(), mutexAlgorithms[c.alg].progs(mm.labeled))
}

// exploration is what the benchmark keeps of one explore.Result.
type exploration struct {
	cell        int
	dur         time.Duration
	alloc       uint64 // bytes allocated during the call (traced runs)
	states      int
	transitions int
	complete    bool
	incomplete  explore.IncompleteReason
	trace       []string        // the first violation's schedule
	history     *history.System // the first violation's history
}

type mutexRun struct {
	cells []cell
}

// setup compiles every cell's programs and builds its machine; the time
// this takes is one setup_s sample.
func (r *mutexRun) setup() ([]*program.Machine, time.Duration, error) {
	t0 := time.Now()
	ms := make([]*program.Machine, len(r.cells))
	for i, c := range r.cells {
		m, err := c.machine()
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", c.name(), err)
		}
		ms[i] = m
	}
	return ms, time.Since(t0), nil
}

// setupReps is how many times each pass sets up, each time from a
// collected heap; the pass runs on the last set of machines. A setup takes
// about a millisecond, so setup_s is the median of many.
const setupReps = 5

// explore1 runs one exploration the way cmd/bakery does: StopAtFirst at the
// default worker count, under the state cap.
func explore1(ctx context.Context, m *program.Machine) (explore.Result, error) {
	return explore.ExhaustiveCtx(ctx, m, explore.Options{StopAtFirst: true, MaxStates: stateCap})
}

type mutexPhase struct {
	runs   []exploration
	rates  []float64 // each pass's explorations per second of exploring
	setups []float64
	passes int
}

// phase runs whole passes over the cells until seconds have elapsed (at
// least one), one exploration at a time. Each exploration starts from a
// collected heap, as one cmd/bakery process would. With a tracer, each
// exploration is a span and its allocation is measured.
func (r *mutexRun) phase(seconds float64, tr *tracer) (*mutexPhase, error) {
	ph := &mutexPhase{}
	ctx := context.Background()
	start := time.Now()
	var ms1, ms2 runtime.MemStats
	for ph.passes == 0 || time.Since(start).Seconds() < seconds {
		var machines []*program.Machine
		for k := 0; k < setupReps; k++ {
			runtime.GC()
			ms, setup, err := r.setup()
			if err != nil {
				return nil, err
			}
			machines = ms
			ph.setups = append(ph.setups, setup.Seconds())
		}
		var wall time.Duration
		for i, m := range machines {
			runtime.GC()
			id := fmt.Sprintf("p%d.%d", ph.passes, i)
			root := tr.start(id, 0, "op")
			if tr != nil {
				runtime.ReadMemStats(&ms1)
			}
			h := tr.start(id, tr.id(root), "explore.ExhaustiveCtx")
			t := time.Now()
			res, err := explore1(ctx, m)
			d := time.Since(t)
			tr.end(h)
			tr.end(root)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", r.cells[i].name(), err)
			}
			e := exploration{
				cell: i, dur: d, states: res.States, transitions: res.Transitions,
				complete: res.Complete, incomplete: res.Incomplete,
			}
			if tr != nil {
				runtime.ReadMemStats(&ms2)
				e.alloc = ms2.TotalAlloc - ms1.TotalAlloc
			}
			if len(res.Violations) > 0 {
				e.trace = res.Violations[0].Trace
				e.history = res.Violations[0].History
			}
			ph.runs = append(ph.runs, e)
			wall += d
		}
		ph.rates = append(ph.rates, float64(len(machines))/wall.Seconds())
		ph.passes++
	}
	return ph, nil
}

// judge returns why an exploration fails ("" when it passes). On the safe
// memories the search must complete without a violation; on the others it
// must find one, whose trace replays to two threads in the critical
// section. A Bakery violation on RCpc must also be a history the RCpc
// checker allows and the RCsc checker rejects (the paper's Fig 6).
func (r *mutexRun) judge(e exploration) string {
	c := r.cells[e.cell]
	mm := mutexMemories[c.mem]
	switch {
	case e.incomplete == explore.IncompleteMaxStates:
		return fmt.Sprintf("hit the %d-state cap", stateCap)
	case mm.safe && (e.trace != nil || !e.complete):
		return fmt.Sprintf("expected a complete proof, got violation=%v complete=%v (%s)", e.trace != nil, e.complete, e.incomplete)
	case !mm.safe && e.trace == nil:
		return fmt.Sprintf("expected a violation, got none (%s)", e.incomplete)
	case mm.safe:
		return ""
	}
	m0, err := c.machine()
	if err != nil {
		return err.Error()
	}
	end, err := explore.Replay(m0, e.trace)
	if err != nil {
		return "replay: " + err.Error()
	}
	if end.InCS() < 2 {
		return fmt.Sprintf("replayed violation ends with %d threads in the critical section", end.InCS())
	}
	if mm.name == "RCpc" && strings.HasPrefix(mutexAlgorithms[c.alg].name, "Bakery") {
		return fig6(e.history)
	}
	return ""
}

// fig6 checks the paper's §5 claim on a violating Bakery history.
func fig6(h *history.System) string {
	for _, want := range []struct {
		m       model.Model
		allowed bool
	}{{model.RCpc{}, true}, {model.RCsc{}, false}} {
		v, err := model.AllowsCtx(context.Background(), want.m, h)
		if err != nil {
			return fmt.Sprintf("%s checker: %v", want.m.Name(), err)
		}
		if !v.Decided() || v.Allowed != want.allowed {
			return fmt.Sprintf("%s checker: allowed=%v decided=%v, want allowed=%v", want.m.Name(), v.Allowed, v.Decided(), want.allowed)
		}
	}
	return ""
}

// score judges every exploration, printing each failing cell once.
func (r *mutexRun) score(runs []exploration) int {
	failed := 0
	seen := map[int]bool{}
	for _, e := range runs {
		why := r.judge(e)
		if why == "" {
			continue
		}
		failed++
		if !seen[e.cell] {
			seen[e.cell] = true
			logf("FAIL %s: %s", r.cells[e.cell].name(), why)
		}
	}
	return failed
}

// mutexTailCap caps explore-mutex's tail at p90. At one pass's 54
// explorations the tail rule picks p80, the highest percentile with ten
// explorations beyond it; above that the tail rests on the handful of
// slowest cells.
const mutexTailCap = 90

// endToEnd computes the end-to-end metrics of an untraced phase. Each
// timing is a median over the phase's passes.
func (r *mutexRun) endToEnd(ph *mutexPhase) map[string]float64 {
	passes := make([][]float64, ph.passes)
	for i, e := range ph.runs {
		k := i / len(r.cells)
		passes[k] = append(passes[k], ms(e.dur))
	}
	lat, tail, p := passLatency(passes, mutexTailCap)
	logf("passes %d, explorations %d, tail_latency_ms is %s per pass, work_per_s per pass %s",
		ph.passes, len(ph.runs), tailNote(p, len(r.cells)), spreadOf(ph.rates))
	return map[string]float64{
		"setup_s":         median(ph.setups),
		"work_per_s":      median(ph.rates),
		"latency_ms":      lat,
		"tail_latency_ms": tail,
	}
}

func runMutex(cfg config, cells []cell) (*result, error) {
	r := &mutexRun{cells: cells}
	base, err := r.phase(cfg.measure(), nil)
	if err != nil {
		return nil, err
	}
	peak := peakRSSMB()
	e2e := r.endToEnd(base)
	res := &result{Attempted: len(base.runs)}
	res.Failed = r.score(base.runs)
	if !cfg.trace {
		e2e["pass_ratio"] = float64(res.Attempted-res.Failed) / float64(res.Attempted)
		e2e["peak_rss_mb"] = peak
		res.set(e2e, endToEndUnits)
		res.Correct = res.Failed == 0
		return res, nil
	}

	tr := newTracer()
	traced, err := r.phase(cfg.measure(), tr)
	if err != nil {
		return nil, err
	}
	res.Attempted += len(traced.runs)
	res.Failed += r.score(traced.runs)
	tracedE2E := r.endToEnd(traced)
	set := r.exploreMetrics(traced)
	if err := r.sampleStates(traced, tr, cfg.seed, set); err != nil {
		return nil, err
	}
	set["bench.trace_overhead_pct"] = 100 * (tracedE2E["latency_ms"] - e2e["latency_ms"]) / e2e["latency_ms"]
	logf("tracing overhead: latency_ms %.4f untraced, %.4f traced; work_per_s %.2f untraced, %.2f traced",
		e2e["latency_ms"], tracedE2E["latency_ms"], e2e["work_per_s"], tracedE2E["work_per_s"])
	path, err := tr.write(cfg.out, fmt.Sprintf("spans-explore-mutex-seed%d.jsonl", cfg.seed))
	if err != nil {
		return nil, err
	}
	logf("spans: %d written to %s", len(tr.spans), path)
	res.set(set, perLayerUnits)
	res.Correct = res.Failed == 0
	return res, nil
}

// exploreMetrics computes the explore per-layer metrics of a traced
// phase. Sums are per pass, so they are exact counts of the cell list.
func (r *mutexRun) exploreMetrics(ph *mutexPhase) map[string]float64 {
	var states, trans, incomplete int
	var alloc uint64
	var wall time.Duration
	var find, depth []float64
	for _, e := range ph.runs {
		states += e.states
		trans += e.transitions
		alloc += e.alloc
		wall += e.dur
		if e.incomplete == explore.IncompleteMaxStates {
			incomplete++
		}
		if e.trace != nil {
			find = append(find, float64(e.states))
			depth = append(depth, float64(len(e.trace)))
		}
	}
	p := float64(ph.passes)
	return map[string]float64{
		"explore.states":              float64(states) / p,
		"explore.transitions":         float64(trans) / p,
		"explore.find_states_p50":     median(find),
		"explore.violation_depth_p50": median(depth),
		"explore.state_us":            us(wall) / float64(states),
		"explore.bytes_per_state":     float64(alloc) / float64(states),
		"explore.incomplete":          float64(incomplete),
	}
}

// walkSteps bounds each seeded random walk.
const walkSteps = 60

// sampleStates times the program and sim layers on the states of seeded
// random walks from every cell's initial machine and of every replayed
// violation trace: Machine.Clone and Machine.Fingerprint (time and bytes
// allocated), Machine.StepThread and Memory.Step on a clone (time), and
// the branching and recorded-history sizes each state carries.
func (r *mutexRun) sampleStates(ph *mutexPhase, tr *tracer, seed int64, set map[string]float64) error {
	rng := rand.New(rand.NewSource(seed))
	var cloneB, fpB, internal, recorded []float64
	var ms1, ms2 runtime.MemStats
	sample := func(id string, parent int64, m *program.Machine) error {
		h := tr.start(id, parent, "program.Machine.Clone")
		c := m.Clone()
		tr.end(h)
		h = tr.start(id, parent, "program.Machine.Fingerprint")
		_ = m.Fingerprint()
		tr.end(h)

		runtime.ReadMemStats(&ms1)
		c = m.Clone()
		runtime.ReadMemStats(&ms2)
		cloneB = append(cloneB, float64(ms2.TotalAlloc-ms1.TotalAlloc))
		runtime.ReadMemStats(&ms1)
		_ = m.Fingerprint()
		runtime.ReadMemStats(&ms2)
		fpB = append(fpB, float64(ms2.TotalAlloc-ms1.TotalAlloc))

		acts := m.Mem().Internal()
		internal = append(internal, float64(len(acts)))
		recorded = append(recorded, float64(m.Mem().Recorder().Len()))
		if run := c.Runnable(); len(run) > 0 {
			h = tr.start(id, parent, "program.Machine.StepThread")
			err := c.StepThread(run[0])
			tr.end(h)
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
		}
		if len(acts) > 0 {
			c = m.Clone()
			h = tr.start(id, parent, "sim.Memory.Step")
			c.Mem().Step(0)
			tr.end(h)
		}
		return nil
	}
	// step advances m by one uniformly chosen enabled action.
	step := func(m *program.Machine) bool {
		run, acts := m.Runnable(), m.Mem().Internal()
		n := len(run) + len(acts)
		if n == 0 {
			return false
		}
		k := rng.Intn(n)
		if k < len(run) {
			return m.StepThread(run[k]) == nil
		}
		m.Mem().Step(k - len(run))
		return true
	}
	for _, c := range r.cells {
		m, err := c.machine()
		if err != nil {
			return err
		}
		id := "walk." + c.name()
		root := tr.start(id, 0, "walk")
		for s := 0; s < walkSteps; s++ {
			if err := sample(id, tr.id(root), m); err != nil {
				return err
			}
			if !step(m) {
				break
			}
		}
		tr.end(root)
	}
	done := map[int]bool{}
	for _, e := range ph.runs {
		if e.trace == nil || done[e.cell] {
			continue
		}
		done[e.cell] = true
		c := r.cells[e.cell]
		m0, err := c.machine()
		if err != nil {
			return err
		}
		id := "violation." + c.name()
		root := tr.start(id, 0, "violation")
		h := tr.start(id, tr.id(root), "explore.Replay")
		_, err = explore.Replay(m0, e.trace)
		tr.end(h)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name(), err)
		}
		m := m0
		for k := 0; ; k++ {
			if err := sample(id, tr.id(root), m); err != nil {
				return err
			}
			if k == len(e.trace) {
				break
			}
			if m, err = explore.Replay(m, e.trace[k:k+1]); err != nil {
				return fmt.Errorf("%s: %w", c.name(), err)
			}
		}
		tr.end(root)
	}
	set["program.clone_us_p50"] = pct(tr.durations("program.Machine.Clone"), 50)
	set["program.clone_bytes_p50"] = median(cloneB)
	set["program.fingerprint_us_p50"] = pct(tr.durations("program.Machine.Fingerprint"), 50)
	set["program.fingerprint_bytes_p50"] = median(fpB)
	set["program.step_us_p50"] = pct(tr.durations("program.Machine.StepThread"), 50)
	set["sim.step_us_p50"] = pct(tr.durations("sim.Memory.Step"), 50)
	set["sim.internal_actions_p50"] = median(internal)
	set["sim.recorded_ops_p50"] = median(recorded)
	return nil
}
