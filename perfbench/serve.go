package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/history"
	"repro/internal/obs"
	"repro/internal/obshttp"
	"repro/internal/vcache"
	"repro/litmus"
	"repro/model"
	"repro/relate"
	"repro/sim"
)

// checkOp is one POST /check the serve workloads send.
type checkOp struct {
	Kind    string `json:"kind"` // corpus, random, orbit or sim
	History string `json:"history"`
	Model   string `json:"model"`
	Tier    string `json:"tier"`
	Explain bool   `json:"explain,omitempty"`
}

// The serve workloads' op lists. Each workload checks a fixed population
// of histories, generated from populationSeed, so runs with different
// seeds measure the same checks; the run's seed draws their presentation
// (see present). A pass sends every op once; a run repeats whole passes,
// each on a freshly started server, so every pass meets the same cold
// cache.
const (
	populationSeed = 1
	smallOps       = 3000
	heavyOps       = 1000
	cacheSize      = 1 << 14 // above any pass's distinct keys: no eviction
)

// present draws a run's presentation of a population from the run's
// seed: it shuffles the ops and relabels every history. With permute, the
// relabelling is history.RelabelRandom (processors permuted, locations and
// values renamed); without, processors keep their order and only
// locations and values are renamed. Both preserve every model's verdict.
// Relabelled lists of two seeds differ in every history but share their
// canonical forms, so the number of distinct cache keys — and thus of
// cache misses per pass — is the same for every seed. The solver's search
// order follows processor order, so without permute every seed's checks
// also cost the same work.
func present(ops []checkOp, rng *rand.Rand, permute bool) ([]checkOp, error) {
	out := make([]checkOp, len(ops))
	for i, op := range ops {
		s, err := history.Parse(op.History)
		if err != nil {
			return nil, err
		}
		if permute {
			s, err = history.RelabelRandom(s, rng)
		} else {
			s, err = rename(s, rng)
		}
		if err != nil {
			return nil, err
		}
		op.History = history.Format(s)
		out[i] = op
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// rename gives s's locations fresh names, in the same order, and maps each
// location's written values to fresh ones, keeping the initial value.
func rename(s *history.System, rng *rand.Rand) (*history.System, error) {
	locs := map[history.Loc]history.Loc{}
	vals := map[history.Loc]map[history.Value]history.Value{}
	for i, loc := range s.Locs() {
		locs[loc] = history.Loc(fmt.Sprintf("m%d_%d", i, rng.Intn(1<<16)))
		vm := map[history.Value]history.Value{history.Initial: history.Initial}
		used := map[history.Value]bool{history.Initial: true}
		for _, id := range s.OpsOn(loc) {
			v := s.Op(id).Value
			if _, ok := vm[v]; ok {
				continue
			}
			nv := history.Value(1 + rng.Intn(1<<20))
			for used[nv] {
				nv = history.Value(1 + rng.Intn(1<<20))
			}
			vm[v], used[nv] = nv, true
		}
		vals[loc] = vm
	}
	return history.Relabel(s,
		func(p history.Proc) history.Proc { return p },
		func(l history.Loc) history.Loc { return locs[l] },
		func(l history.Loc, v history.Value) history.Value { return vals[l][v] })
}

// genSmall builds serve-small's ops: litmus-corpus histories and random
// histories of at most eight operations across all fourteen models, about
// half of them relabelled orbit-mates of earlier ops (cache hits on a
// server that canonicalizes), one in eight asking for an explanation.
func genSmall(rng *rand.Rand) ([]checkOp, error) {
	corpus := litmus.Corpus()
	models := model.All()
	ops := make([]checkOp, 0, smallOps)
	var fresh []checkOp
	for len(ops) < smallOps {
		var op checkOp
		switch {
		case len(fresh) > 0 && rng.Intn(2) == 0:
			src := fresh[rng.Intn(len(fresh))]
			s, err := history.Parse(src.History)
			if err != nil {
				return nil, err
			}
			r, err := history.RelabelRandom(s, rng)
			if err != nil {
				return nil, err
			}
			op = checkOp{Kind: "orbit", History: history.Format(r), Model: src.Model}
		case rng.Intn(4) == 0:
			t := corpus[rng.Intn(len(corpus))]
			op = checkOp{Kind: "corpus", History: history.Format(t.History), Model: models[rng.Intn(len(models))].Name()}
			fresh = append(fresh, op)
		default:
			s := relate.RandomHistory(rng, relate.GenConfig{Procs: 2 + rng.Intn(2), Ops: 2 + rng.Intn(7)})
			op = checkOp{Kind: "random", History: history.Format(s), Model: models[rng.Intn(len(models))].Name()}
			fresh = append(fresh, op)
		}
		op.Tier = "small"
		op.Explain = rng.Intn(8) == 0
		ops = append(ops, op)
	}
	return ops, nil
}

// heavyModels are the models serve-heavy checks — those that still
// enumerate, plus the pre-pass models TSO and PC — each with the
// simulator whose runs it is checked on.
var heavyModels = []struct {
	name string
	mem  func(n int) sim.Memory
}{
	{"WO", func(n int) sim.Memory { return sim.NewRCsc(n) }},
	{"RCsc", func(n int) sim.Memory { return sim.NewRCsc(n) }},
	{"RCpc", func(n int) sim.Memory { return sim.NewRCpc(n) }},
	{"TSO-ax", func(n int) sim.Memory { return sim.NewTSO(n) }},
	{"Causal+Coh", func(n int) sim.Memory { return sim.NewCausal(n) }},
	{"Slow", func(n int) sim.Memory { return sim.NewSlow(n) }},
	{"TSO", func(n int) sim.Memory { return sim.NewTSONoForward(n) }},
	{"PC", func(n int) sim.Memory { return sim.NewPCG(n) }},
}

// genHeavy builds serve-heavy's ops: 18–24-operation histories on three
// processors with 8–10 writes, alternately simulator runs over three data
// locations (realizable, mostly allowed) and random histories over two or
// three (mostly forbidden), on the heavy tier, which bypasses the cache. The
// release-consistent simulators label the accesses to one extra
// synchronization location: with more labelled locations, single RCsc and
// WO checks run to seconds or past the tier's budget.
func genHeavy(rng *rand.Rand) []checkOp {
	ops := make([]checkOp, 0, heavyOps)
	for i := 0; i < heavyOps; i++ {
		hm := heavyModels[rng.Intn(len(heavyModels))]
		n := 18 + rng.Intn(7)
		writes := 8 + rng.Intn(3)
		var s *history.System
		kind := "sim"
		if i%2 == 0 {
			mem := hm.mem(3)
			cfg := sim.RandomRunConfig{Ops: n, MaxWrites: writes, DataLocs: []history.Loc{"x", "y", "z"}, PInternal: 0.4}
			if mem.Name() == "RCsc" || mem.Name() == "RCpc" {
				cfg.SyncLocs = []history.Loc{"s"}
			}
			s = sim.RandomRun(mem, rng, cfg)
		} else {
			kind = "random"
			s = relate.RandomHistory(rng, relate.GenConfig{Procs: 3, Ops: n, Locs: 2 + rng.Intn(2), MaxWrites: writes})
		}
		ops = append(ops, checkOp{Kind: kind, History: history.Format(s), Model: hm.name, Tier: "heavy"})
	}
	return ops
}

// checkResponse is the part of POST /check's answer the benchmark reads.
type checkResponse struct {
	Status  int    `json:"status"`
	Verdict string `json:"verdict"`
	Reason  string `json:"reason"`
	Error   string `json:"error"`
	WaitUs  int64  `json:"wait_us"`
	SolveUs int64  `json:"solve_us"`
}

// sample is one timed round trip. A run holds one per op per pass, so it
// is kept small: its memory counts toward peak_rss_mb.
type sample struct {
	ms      float64 // round trip, from sending to the decoded answer
	verdict int8    // verdictAllowed, verdictForbidden or verdictOther
	size    int32
	solveUs int32
	waitUs  int32
}

const (
	verdictOther int8 = iota
	verdictAllowed
	verdictForbidden
)

// pass is one pass's samples, indexed by op, with the reason behind each
// round trip that failed before a verdict could be judged.
type pass struct {
	samples []sample
	odd     map[int]string
}

// serveRun drives one serve workload.
type serveRun struct {
	clients int
	tailCap float64 // highest percentile tail_latency_ms may report
	ops     []checkOp
	bodies  [][]byte
	client  *http.Client
}

func newServeRun(clients int, tailCap float64, ops []checkOp) (*serveRun, error) {
	r := &serveRun{clients: clients, tailCap: tailCap, ops: ops}
	for _, op := range ops {
		b, err := json.Marshal(map[string]any{
			"history": op.History, "model": op.Model, "tier": op.Tier, "explain": op.Explain,
		})
		if err != nil {
			return nil, err
		}
		r.bodies = append(r.bodies, b)
	}
	r.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	return r, nil
}

// server is one started checking service and its address.
type server struct {
	srv  *obshttp.Server
	base string
}

// warmHistory is checked once per model on the heavy tier, which bypasses
// the cache, to bring up the connection and the service's code paths
// without touching the cache a pass starts from.
const warmHistory = "p0: w(x)1 r(y)0\np1: w(y)1 r(x)0"

// startServer starts a service the way -serve builds it — a metrics
// registry, the flight recorder, fast-path routing and a verdict cache —
// on a loopback port, and warms it up. The time this takes is one setup_s
// sample.
func (r *serveRun) startServer() (*server, time.Duration, error) {
	t0 := time.Now()
	reg := obs.NewRegistry()
	srv := obshttp.New(reg, 0)
	if err := srv.EnableIncidents(obshttp.IncidentOptions{}); err != nil {
		return nil, 0, err
	}
	srv.EnableCheck(obshttp.CheckOptions{Cache: vcache.New(cacheSize, reg)})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	s := &server{srv: srv, base: "http://" + addr}
	if err := s.warm(r.client); err != nil {
		s.stop(r.client)
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

func (s *server) warm(client *http.Client) error {
	resp, err := client.Get(s.base + "/readyz")
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // only draining
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("warm-up: /readyz answered %d", resp.StatusCode)
	}
	for _, m := range model.All() {
		body, _ := json.Marshal(map[string]any{"history": warmHistory, "model": m.Name(), "tier": "heavy"})
		var cr checkResponse
		if _, _, err := post(client, s.base+"/check", body, &cr); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if cr.Status != http.StatusOK {
			return fmt.Errorf("warm-up: %s answered %d %s", m.Name(), cr.Status, cr.Error)
		}
	}
	return nil
}

// stop shuts the service down and drops the client's idle connections.
func (s *server) stop(client *http.Client) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	client.Transport.(*http.Transport).CloseIdleConnections()
	return err
}

// post sends one POST /check and decodes the answer.
func post(client *http.Client, url string, body []byte, out *checkResponse) (status, size int, err error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, len(data), err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return resp.StatusCode, len(data), fmt.Errorf("decode response: %w", err)
	}
	return resp.StatusCode, len(data), nil
}

// svcCounters are the service's own counts for one pass.
type svcCounters struct {
	shed, failed, lookups, hits int64
}

func (s *server) counters(client *http.Client) (svcCounters, error) {
	var c svcCounters
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := getJSON(client, s.base+"/metrics.json", &snap); err != nil {
		return c, err
	}
	c.shed = snap.Counters["svc.check.shed"]
	c.failed = snap.Counters["svc.check.failed"]
	var cz struct {
		Stats vcache.Stats `json:"stats"`
	}
	if err := getJSON(client, s.base+"/cachez", &cz); err != nil {
		return c, err
	}
	c.lookups, c.hits = cz.Stats.Lookups, cz.Stats.Hits
	return c, nil
}

func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// passStats accumulates a phase of whole passes.
type passStats struct {
	passes []pass
	rates  []float64 // each pass's ops per second, from first send to last answer
	setups []float64 // seconds
	svc    svcCounters
}

// latencies returns each pass's round trips, in ms.
func (st *passStats) latencies() [][]float64 {
	out := make([][]float64, len(st.passes))
	for i, p := range st.passes {
		for _, s := range p.samples {
			out[i] = append(out[i], s.ms)
		}
	}
	return out
}

func (st *passStats) count() int { return len(st.passes) * len(st.passes[0].samples) }

// phase runs whole passes until seconds have elapsed (at least one). With
// a tracer, every round trip is a span under its op's root span and the
// service's counters are read after each pass.
func (r *serveRun) phase(seconds float64, tr *tracer) (*passStats, error) {
	st := &passStats{}
	start := time.Now()
	for len(st.passes) == 0 || time.Since(start).Seconds() < seconds {
		runtime.GC() // each setup starts from a collected heap
		srv, setup, err := r.startServer()
		if err != nil {
			return nil, err
		}
		st.setups = append(st.setups, setup.Seconds())
		runtime.GC() // every pass starts from the same heap, outside the timed section
		p, wall := r.pass(srv, len(st.passes), tr)
		st.passes = append(st.passes, p)
		st.rates = append(st.rates, float64(len(p.samples))/wall.Seconds())
		if tr != nil {
			c, err := srv.counters(r.client)
			if err != nil {
				srv.stop(r.client)
				return nil, err
			}
			st.svc.shed += c.shed
			st.svc.failed += c.failed
			st.svc.lookups += c.lookups
			st.svc.hits += c.hits
		}
		if err := srv.stop(r.client); err != nil {
			return nil, fmt.Errorf("shutdown: %w", err)
		}
	}
	return st, nil
}

// pass sends every op once from r.clients closed-loop clients, each taking
// the next unsent op.
func (r *serveRun) pass(srv *server, passNo int, tr *tracer) (pass, time.Duration) {
	p := pass{samples: make([]sample, len(r.ops)), odd: map[int]string{}}
	var mu sync.Mutex // guards p.odd
	var next atomic.Int64
	var wg sync.WaitGroup
	forks := make([]*tracer, r.clients)
	url := srv.base + "/check"
	t0 := time.Now()
	for c := 0; c < r.clients; c++ {
		forks[c] = tr.fork()
		wg.Add(1)
		go func(tc *tracer) {
			defer wg.Done()
			var resp checkResponse
			for {
				i := int(next.Add(1)) - 1
				if i >= len(r.ops) {
					return
				}
				id := fmt.Sprintf("p%d.%d", passNo, i)
				root := tc.start(id, 0, "op")
				h := tc.start(id, tc.id(root), "obshttp.POST /check")
				resp = checkResponse{}
				t := time.Now()
				status, size, err := post(r.client, url, r.bodies[i], &resp)
				d := time.Since(t)
				tc.end(h)
				tc.end(root)
				s := sample{ms: ms(d), size: int32(size),
					solveUs: int32(resp.SolveUs), waitUs: int32(resp.WaitUs)}
				switch {
				case err != nil:
					mu.Lock()
					p.odd[i] = err.Error()
					mu.Unlock()
				case status != http.StatusOK:
					mu.Lock()
					p.odd[i] = fmt.Sprintf("status %d: %s%s", status, resp.Error, resp.Reason)
					mu.Unlock()
				case resp.Verdict == "allowed":
					s.verdict = verdictAllowed
				case resp.Verdict == "forbidden":
					s.verdict = verdictForbidden
				default:
					mu.Lock()
					p.odd[i] = fmt.Sprintf("undecided: %s (%s)", resp.Verdict, resp.Reason)
					mu.Unlock()
				}
				p.samples[i] = s
			}
		}(forks[c])
	}
	wg.Wait()
	wall := time.Since(t0)
	for _, f := range forks {
		tr.join(f)
	}
	return p, wall
}

// oracle decides every op with model.RouteEnumerate, the repository's
// differential oracle, outside any timed section.
func (r *serveRun) oracle() ([]bool, error) {
	ctx := model.WithRoute(context.Background(), model.RouteEnumerate)
	want := make([]bool, len(r.ops))
	for i, op := range r.ops {
		s, err := history.Parse(op.History)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		m, err := model.ByName(op.Model)
		if err != nil {
			return nil, err
		}
		v, err := model.AllowsCtx(ctx, m, s)
		if err != nil {
			return nil, fmt.Errorf("op %d: oracle: %w", i, err)
		}
		want[i] = v.Allowed
	}
	return want, nil
}

// score checks every sample against the oracle — a 200 with a decided
// verdict equal to the oracle's passes — prints each failing op once with
// its reason, and returns the number of failing samples.
func (r *serveRun) score(st *passStats, want []bool) int {
	failed := 0
	seen := map[int]bool{}
	for _, p := range st.passes {
		for i, s := range p.samples {
			why := p.odd[i]
			if why == "" && (s.verdict == verdictAllowed) != want[i] {
				why = fmt.Sprintf("verdict allowed=%v, oracle says allowed=%v", s.verdict == verdictAllowed, want[i])
			}
			if why == "" {
				continue
			}
			failed++
			if !seen[i] {
				seen[i] = true
				op := r.ops[i]
				logf("FAIL op %d (%s, %s, %s): %s", i, op.Kind, op.Model, op.Tier, why)
			}
		}
	}
	return failed
}

// endToEnd computes the end-to-end metrics of an untraced phase. Each
// timing is a median over the phase's passes.
func (r *serveRun) endToEnd(st *passStats) map[string]float64 {
	lat, tail, p := passLatency(st.latencies(), r.tailCap)
	logf("passes %d, ops %d, tail_latency_ms is %s per pass, work_per_s per pass %s",
		len(st.passes), st.count(), tailNote(p, len(r.ops)), spreadOf(st.rates))
	return map[string]float64{
		"setup_s":         median(st.setups),
		"work_per_s":      median(st.rates),
		"latency_ms":      lat,
		"tail_latency_ms": tail,
	}
}

// runServe runs a serve workload: an untraced phase for the end-to-end
// metrics, and with trace a traced phase plus an in-process replay of the
// op list for the per-layer metrics.
func runServe(cfg config, clients int, tailCap float64, ops []checkOp) (*result, error) {
	r, err := newServeRun(clients, tailCap, ops)
	if err != nil {
		return nil, err
	}
	base, err := r.phase(cfg.measure(), nil)
	if err != nil {
		return nil, err
	}
	peak := peakRSSMB()
	e2e := r.endToEnd(base)
	want, err := r.oracle()
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: base.count()}
	res.Failed = r.score(base, want)
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
	res.Attempted += traced.count()
	res.Failed += r.score(traced, want)
	tracedE2E := r.endToEnd(traced)
	layers, err := r.replay(tr)
	if err != nil {
		return nil, err
	}
	r.layerMetrics(traced, tr, layers)
	layers.set["bench.trace_overhead_pct"] = 100 * (tracedE2E["latency_ms"] - e2e["latency_ms"]) / e2e["latency_ms"]
	logf("tracing overhead: latency_ms %.4f untraced, %.4f traced; work_per_s %.1f untraced, %.1f traced",
		e2e["latency_ms"], tracedE2E["latency_ms"], e2e["work_per_s"], tracedE2E["work_per_s"])
	path, err := tr.write(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err != nil {
		return nil, err
	}
	logf("spans: %d written to %s", len(tr.spans), path)
	res.set(layers.set, perLayerUnits)
	res.Correct = res.Failed == 0
	return res, nil
}

// replayLayers holds the per-layer values the replay measures.
type replayLayers struct {
	set map[string]float64
	// perOp is each op's in-process time through the layers the service
	// runs for it (parse, canonicalize + cache, solve, explain), in µs.
	perOp []float64
}

// replay runs every op once in-process on this goroutine, through the
// layers the service runs for it, each call in its own span:
// history.Parse; for cached tiers history.Canonicalize and vcache.Check on
// a benchmark-owned cache (first in op order, so hits and misses fall as
// they do on a fresh server, then again on the warmed cache); a fresh
// model.AllowsCtx under the tier's budget, as a cache miss or the heavy
// tier solves; and model.Explain where the op asks for it.
func (r *serveRun) replay(tr *tracer) (*replayLayers, error) {
	cache := vcache.New(cacheSize, nil)
	lay := &replayLayers{set: map[string]float64{}, perOp: make([]float64, len(r.ops))}
	var allocs, candidates, nodes float64
	var ms1, ms2 runtime.MemStats
	// Room for every span up front: a growing span buffer would allocate
	// inside the Mallocs window around model.AllowsCtx.
	tr.spans = slices.Grow(tr.spans, 8*len(r.ops))
	for i, op := range r.ops {
		tier, err := tierOf(op.Tier)
		if err != nil {
			return nil, err
		}
		m, err := model.ByName(op.Model)
		if err != nil {
			return nil, err
		}
		m = model.WithWorkers(m, 1) // as the service runs each check
		ctx := model.WithBudget(context.Background(), model.Budget{MaxCandidates: tier.MaxCandidates, MaxNodes: tier.MaxNodes})
		id := fmt.Sprintf("replay.%d", i)
		root := tr.start(id, 0, "op")
		pid := tr.id(root)

		h := tr.start(id, pid, "history.Parse")
		s, err := history.Parse(op.History)
		tr.end(h)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		cost := tr.spans[h].us()

		var v model.Verdict
		if tier.Cache {
			h = tr.start(id, pid, "history.Canonicalize")
			_, _, cerr := history.Canonicalize(s)
			tr.end(h)
			if cerr != nil {
				return nil, fmt.Errorf("op %d: %w", i, cerr)
			}
			h = tr.start(id, pid, "vcache.Check")
			v, _, err = vcache.Check(ctx, cache, m, s)
			tr.end(h)
			if err != nil {
				return nil, fmt.Errorf("op %d: %w", i, err)
			}
			cost += tr.spans[h].us()
			h = tr.start(id, pid, "vcache.Check.hit")
			if _, hit, err := vcache.Check(ctx, cache, m, s); err != nil || !hit {
				return nil, fmt.Errorf("op %d: warmed cache missed (%v)", i, err)
			}
			tr.end(h)
		}

		runtime.ReadMemStats(&ms1)
		h = tr.start(id, pid, "model.AllowsCtx")
		sv, err := model.AllowsCtx(ctx, m, s)
		tr.end(h)
		runtime.ReadMemStats(&ms2)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		allocs += float64(ms2.Mallocs - ms1.Mallocs)
		candidates += float64(sv.Progress.Candidates)
		nodes += float64(sv.Progress.Nodes)
		if !tier.Cache {
			v = sv
			cost += tr.spans[h].us()
		}

		if op.Explain && v.Decided() {
			h = tr.start(id, pid, "model.Explain")
			_, err := model.Explain(m, s, v)
			tr.end(h)
			if err != nil {
				return nil, fmt.Errorf("op %d: explain: %w", i, err)
			}
			cost += tr.spans[h].us()
		}
		tr.end(root)
		lay.perOp[i] = cost
	}
	n := float64(len(r.ops))
	lay.set["model.allocs_per_check"] = allocs / n
	lay.set["model.candidates"] = candidates
	lay.set["model.nodes"] = nodes
	return lay, nil
}

// layerMetrics fills the serve per-layer metrics from the traced phase's
// samples and counters and the replay's spans.
func (r *serveRun) layerMetrics(st *passStats, tr *tracer, lay *replayLayers) {
	var solve, wait, size, over []float64
	for _, p := range st.passes {
		for i, s := range p.samples {
			if s.solveUs > 0 {
				solve = append(solve, float64(s.solveUs))
			}
			if s.solveUs > 0 || s.waitUs > 0 {
				wait = append(wait, float64(s.waitUs))
			}
			size = append(size, float64(s.size))
			over = append(over, 1000*s.ms-lay.perOp[i])
		}
	}
	set := lay.set
	set["obshttp.overhead_us"] = median(over)
	set["obshttp.solve_us_p50"] = pct(solve, 50)
	set["obshttp.solve_us_p99"] = pct(solve, 99)
	set["obshttp.wait_us_p99"] = pct(wait, 99)
	set["obshttp.shed"] = float64(st.svc.shed)
	set["obshttp.failed"] = float64(st.svc.failed)
	set["obshttp.resp_bytes_p50"] = median(size)
	set["history.parse_us_p50"] = pct(tr.durations("history.Parse"), 50)
	canon := tr.durations("history.Canonicalize")
	set["history.canonicalize_us_p50"] = pct(canon, 50)
	set["history.canonicalize_us_p99"] = pct(canon, 99)
	if st.svc.lookups > 0 {
		set["vcache.hit_ratio"] = float64(st.svc.hits) / float64(st.svc.lookups)
	}
	set["vcache.hit_us_p50"] = pct(tr.durations("vcache.Check.hit"), 50)
	solves := tr.durations("model.AllowsCtx")
	set["model.solve_us_p50"] = pct(solves, 50)
	set["model.solve_us_p99"] = pct(solves, 99)
	set["model.explain_us_p50"] = pct(tr.durations("model.Explain"), 50)
}

// tierOf finds a service tier by name.
func tierOf(name string) (obshttp.Tier, error) {
	for _, t := range obshttp.Tiers() {
		if t.Name == name {
			return t, nil
		}
	}
	return obshttp.Tier{}, fmt.Errorf("unknown tier %q", name)
}

// sortedKinds lists the op kinds of a list with their counts, for the
// run's header.
func sortedKinds(ops []checkOp) string {
	counts := map[string]int{}
	explain := 0
	for _, op := range ops {
		counts[op.Kind]++
		if op.Explain {
			explain++
		}
	}
	var kinds []string
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	s := ""
	for _, k := range kinds {
		s += fmt.Sprintf("%s=%d ", k, counts[k])
	}
	return s + fmt.Sprintf("explain=%d", explain)
}
