package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ccperf/internal/accuracy"
	"ccperf/internal/cloud"
	"ccperf/internal/cluster"
	"ccperf/internal/engine"
	"ccperf/internal/explore"
	"ccperf/internal/measure"
	"ccperf/internal/models"
	"ccperf/internal/prune"
	"ccperf/internal/workload"
)

// Planner workload parameters: the Figure 9/10 joint space (60 Caffenet
// degrees × the 511 non-empty subsets of a 9-instance p2 pool, W = 1M).
const (
	planDegrees    = 60
	planPerType    = 3
	planImages     = 1_000_000
	planWorkers    = 2
	planCandidates = planDegrees * 511
	planRequests   = 16 // distinct requests, alternating deadline- and budget-bound
	planSpaceSeed  = 42 // the degree sample of the paper's Figures 9 and 10
	planChunk      = 20_000
	planSlack      = 0.5
	planMinTop1    = 0.15
	planWindows    = 5 // rate_per_s, p50_ms and tail_ms are medians over windows
)

// planRequest is one planning request: a deadline (seconds) and a budget
// (dollars), one of them unbounded.
type planRequest struct {
	deadline, budget float64
}

func (r planRequest) String() string {
	if math.IsInf(r.budget, 1) {
		return fmt.Sprintf("deadline %.0f s", r.deadline)
	}
	return fmt.Sprintf("budget $%.2f", r.budget)
}

type plan struct {
	harness *measure.Harness
	degrees []prune.Degree
	pool    []*cloud.Instance
	jobs    []cluster.Job
	reqs    []planRequest
}

func setupPlan(seed int64) (runner, error) {
	h, err := measure.NewHarness(models.CaffenetName)
	if err != nil {
		return nil, err
	}
	keep := func(d prune.Degree) bool {
		a, err := h.Eval.Evaluate(d)
		return err == nil && a.Top1 >= planMinTop1
	}
	w := &plan{
		harness: h,
		degrees: prune.SampleDegreesFiltered(models.CaffenetConvNames(), prune.Range(0, 0.9, 0.1), planDegrees, planSpaceSeed, keep),
		pool:    cloud.BuildPool(cloud.P2Types(), planPerType),
	}
	if len(w.degrees) != planDegrees {
		return nil, fmt.Errorf("sampled %d degrees, want %d", len(w.degrees), planDegrees)
	}
	tr, err := workload.Generate(workload.Config{Pattern: workload.Bursty, DailyTotal: planImages, Windows: 24, Seed: seed})
	if err != nil {
		return nil, err
	}
	w.jobs = cluster.JobsFromWindows(tr.Windows, 3600, planChunk, planSlack)

	// The seed draws the requests: each constraint comes from the space's
	// own spread of times or costs, and is kept only if Algorithm 1 can
	// meet it. Sixteen of them keep a run's mix of tight and loose
	// requests, and so its cost, alike from seed to seed.
	sp := &explore.Space{Pred: engine.NewCache(h), Degrees: w.degrees, Pool: w.pool, W: planImages, Workers: planWorkers}
	cands, err := sp.Enumerate(context.Background())
	if err != nil {
		return nil, err
	}
	secs, costs := make([]float64, len(cands)), make([]float64, len(cands))
	for i, c := range cands {
		secs[i], costs[i] = c.Seconds, c.Cost
	}
	secs, costs = midpoints(secs), midpoints(costs)
	rng := rand.New(rand.NewSource(seed))
	for len(w.reqs) < planRequests {
		var r planRequest
		for try := 0; ; try++ {
			if try == 50 {
				return nil, fmt.Errorf("no feasible request after %d draws", try)
			}
			q := 0.03 + 0.05*rng.Float64()
			r = planRequest{deadline: secs[int(q*float64(len(secs)))], budget: math.Inf(1)}
			if len(w.reqs)%2 == 1 {
				r = planRequest{deadline: math.Inf(1), budget: costs[int(q*float64(len(costs)))]}
			}
			res, err := explore.Allocate(context.Background(), sp.Pred, w.input(r))
			if err != nil {
				return nil, err
			}
			if res.Found {
				break
			}
		}
		w.reqs = append(w.reqs, r)
	}
	return w, nil
}

// midpoints returns the values halfway between neighbouring distinct
// values of xs, sorted. A constraint drawn from them never equals a
// candidate's figure, so last-bit noise in predicted times cannot flip a
// candidate's feasibility from one plan to the next.
func midpoints(xs []float64) []float64 {
	sort.Float64s(xs)
	var out []float64
	for i := 1; i < len(xs); i++ {
		if xs[i]-xs[i-1] > 1e-6*xs[i] {
			out = append(out, (xs[i]+xs[i-1])/2)
		}
	}
	return out
}

func (w *plan) params() map[string]any {
	reqs := make([]string, len(w.reqs))
	for i, r := range w.reqs {
		reqs[i] = r.String()
	}
	return map[string]any{
		"model": models.CaffenetName, "degrees": len(w.degrees), "pool": cloud.NewConfig(w.pool...).Label(),
		"images": planImages, "explore_workers": planWorkers, "requests": reqs,
		"day": "bursty, 24 windows", "jobs": len(w.jobs), "chunk": planChunk, "slack": planSlack,
	}
}

func (w *plan) input(r planRequest) explore.Input {
	return explore.Input{Degrees: w.degrees, Pool: w.pool, W: planImages, Deadline: r.deadline, Budget: r.budget}
}

// perfSample is how often a timing decorator times a cloud.Perf batch-time
// lookup: an enumeration makes over a hundred thousand of them, each well
// under a microsecond, so timing every one would dominate the plan.
const perfSample = 16

// callStats counts calls through a timing decorator and the time of those
// it timed. Each cloud.Perf adapter a decorator hands out keeps its own
// counters, so enumeration workers never share a cache line.
type callStats struct {
	n, timed, nanos atomic.Int64

	mu    sync.Mutex
	perfs []*timedPerf
}

func (s *callStats) since(t time.Time) {
	s.n.Add(1)
	s.timed.Add(1)
	s.nanos.Add(int64(time.Since(t)))
}

// totals sums the decorator's own counters and those of its adapters.
func (s *callStats) totals() (n, timed, nanos int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, timed, nanos = s.n.Load(), s.timed.Load(), s.nanos.Load()
	for _, p := range s.perfs {
		n, timed, nanos = n+p.st.n.Load(), timed+p.st.timed.Load(), nanos+p.st.nanos.Load()
	}
	return n, timed, nanos
}

// timedPredictor times every prediction, and samples the batch-time
// lookups of each cloud.Perf it returns, on the way to the wrapped
// predictor.
type timedPredictor struct {
	inner engine.Predictor
	st    *callStats
}

func (p timedPredictor) Accuracy(ctx context.Context, d prune.Degree) (accuracy.TopK, error) {
	defer p.st.since(time.Now())
	return p.inner.Accuracy(ctx, d)
}

func (p timedPredictor) BatchSeconds(ctx context.Context, d prune.Degree, inst *cloud.Instance, gpus, b int) (float64, error) {
	defer p.st.since(time.Now())
	return p.inner.BatchSeconds(ctx, d, inst, gpus, b)
}

func (p timedPredictor) TotalSeconds(ctx context.Context, d prune.Degree, inst *cloud.Instance, gpus int, w int64) (float64, error) {
	defer p.st.since(time.Now())
	return p.inner.TotalSeconds(ctx, d, inst, gpus, w)
}

func (p timedPredictor) Perf(d prune.Degree, gpus int) cloud.Perf {
	tp := &timedPerf{inner: p.inner.Perf(d, gpus)}
	p.st.mu.Lock()
	p.st.perfs = append(p.st.perfs, tp)
	p.st.mu.Unlock()
	return tp
}

type timedPerf struct {
	inner cloud.Perf
	st    callStats // only n, timed and nanos are used
}

func (p *timedPerf) BatchTime(it *cloud.Instance, b int) float64 {
	if p.st.n.Add(1)%perfSample != 1 {
		return p.inner.BatchTime(it, b)
	}
	defer func(t time.Time) {
		p.st.timed.Add(1)
		p.st.nanos.Add(int64(time.Since(t)))
	}(time.Now())
	return p.inner.BatchTime(it, b)
}

func (p *timedPerf) MaxBatch(it *cloud.Instance) int { return p.inner.MaxBatch(it) }

// fingerprint hashes a frontier's curve: each member's Top-1 accuracy and
// objective, the objective to 9 significant digits. exact also hashes each
// member's degree, configuration and the objective's full bits.
func fingerprint(fr []explore.Candidate, obj explore.Objective) (curve, exact uint64) {
	hc, he := fnv.New64a(), fnv.New64a()
	for _, c := range fr {
		v := c.Seconds
		if obj == explore.ByCost {
			v = c.Cost
		}
		fmt.Fprintf(hc, "%x|%.9g;", math.Float64bits(c.Acc.Top1), v)
		fmt.Fprintf(he, "%s|%s|%x;", c.Degree.Label(), c.Config.Label(), math.Float64bits(v))
	}
	return hc.Sum64(), he.Sum64()
}

func (w *plan) run(seconds float64, rec *recorder) (*outcome, error) {
	o := newOutcome()
	ctx := context.Background()
	var calls, callsBelow, timedAbove, timedBelow, nsAbove, nsBelow float64
	var planMS, ends, acc, planCalls, ops, cands []float64
	frontiers := map[int][4]uint64{}
	bitDiffs := 0
	alloc0 := allocated()
	start := time.Now()
	for i := 0; time.Since(start).Seconds() < seconds; i++ {
		k := i % len(w.reqs)
		r := w.reqs[k]
		t0 := time.Now()
		root := rec.begin("plan", 0)
		// Each plan starts from a cold cache over the harness.
		var pred engine.Predictor = engine.NewCache(w.harness)
		above, below := &callStats{}, &callStats{}
		if rec != nil {
			pred = timedPredictor{engine.NewCache(timedPredictor{w.harness, below}), above}
		}
		sp := &explore.Space{Pred: pred, Degrees: w.degrees, Pool: w.pool, W: planImages, Workers: planWorkers}
		id := rec.begin("explore.enumerate", root)
		all, err := sp.Enumerate(ctx)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		id = rec.begin("explore.feasible", root)
		feas := explore.Feasible(all, r.deadline, r.budget)
		rec.end(id)
		id = rec.begin("explore.frontier", root)
		byTime := explore.Frontier(feas, explore.ByTime, explore.Top1)
		byCost := explore.Frontier(feas, explore.ByCost, explore.Top1)
		rec.end(id)
		id = rec.begin("explore.allocate", root)
		res, err := explore.Allocate(ctx, pred, w.input(r))
		rec.end(id)
		if err != nil {
			return nil, err
		}
		var sim *cluster.Result
		if res.Found {
			id = rec.begin("cluster.run", root)
			sim, err = cluster.Run(ctx, cluster.ConfigFor(pred, res.Degree, res.Config.Instances, 24*3600), w.jobs)
			rec.end(id)
			if err != nil {
				return nil, err
			}
		}
		rec.end(root)
		planMS = append(planMS, ms(time.Since(t0)))
		ends = append(ends, time.Since(start).Seconds())

		bad := 0
		if len(all) != planCandidates {
			bad++
			o.checkf("plan %d: %d candidates, want %d", i, len(all), planCandidates)
		}
		if !res.Found || res.Seconds > r.deadline || res.Cost > r.budget {
			bad++
			o.checkf("plan %d (%s): Allocate found=%v at %.0f s, $%.2f", i, r, res.Found, res.Seconds, res.Cost)
		}
		var fp [4]uint64
		fp[0], fp[2] = fingerprint(byTime, explore.ByTime)
		fp[1], fp[3] = fingerprint(byCost, explore.ByCost)
		if prev, seen := frontiers[k]; !seen {
			frontiers[k] = fp
		} else if prev[0] != fp[0] || prev[1] != fp[1] {
			bad++
			o.checkf("plan %d (%s): frontiers differ from an earlier repeat of the same request", i, r)
		} else if prev[2] != fp[2] || prev[3] != fp[3] {
			bitDiffs++
		}
		if sim != nil && len(sim.Jobs) != len(w.jobs) {
			bad++
			o.checkf("plan %d: cluster.Run reports %d jobs, want %d", i, len(sim.Jobs), len(w.jobs))
		}
		if bad > 0 {
			o.failed++
		}
		acc = append(acc, res.Acc.Top1)
		if rec != nil {
			n, t, ns := above.totals()
			planCalls = append(planCalls, float64(n))
			calls, timedAbove, nsAbove = calls+float64(n), timedAbove+float64(t), nsAbove+float64(ns)
			n, t, ns = below.totals()
			callsBelow, timedBelow, nsBelow = callsBelow+float64(n), timedBelow+float64(t), nsBelow+float64(ns)
		}
		ops = append(ops, float64(res.Ops))
		cands = append(cands, float64(len(all)))
	}
	elapsed := time.Since(start).Seconds()
	alloc := allocated() - alloc0
	o.attempted = int64(len(planMS))
	ws := windows(ends, planMS, 0, elapsed, planWindows)
	var rates []float64
	for _, win := range ws {
		rates = append(rates, float64(len(win))/(elapsed/planWindows))
	}
	o.e2e["rate_per_s"] = median(rates)
	o.e2e["alloc_kb_per_op"] = alloc / 1024 / float64(len(planMS))
	o.e2e["p50_ms"] = windowQuantile(ws, 0.5)
	o.e2e["tail_ms"] = windowQuantile(ws, 0.9)
	o.e2e["ok_frac"] = 1 - float64(o.failed)/float64(o.attempted)
	o.e2e["mean_accuracy"] = mean(acc)
	o.notef("%d plans in %.2f s over %d requests (%v)", len(planMS), elapsed, len(w.reqs), w.reqs)
	o.notef("%d repeats had the same frontier curves but not bit-identical members (last-bit differences in predicted times pick other tied configurations)", bitDiffs)
	o.notef("plans_per_s %.3f 1/s (rate_per_s), per plan p50_ms %.2f ms and p90_ms %.2f ms (tail_ms), medians over %d windows; mean chosen Top-1 %.4f",
		o.e2e["rate_per_s"], o.e2e["p50_ms"], o.e2e["tail_ms"], planWindows, o.e2e["mean_accuracy"])
	if rec != nil {
		self := rec.selfTimes()
		o.layers["engine.calls"] = median(planCalls)
		if calls > 0 {
			o.layers["engine.hit_frac"] = 1 - callsBelow/calls
			o.layers["engine.call_us"] = nsAbove / timedAbove / 1e3
		}
		if timedBelow > 0 {
			o.layers["measure.batch_us"] = nsBelow / timedBelow / 1e3
		}
		o.layers["explore.enumerate_ms"] = median(self["explore.enumerate"])
		o.layers["explore.frontier_ms"] = median(self["explore.frontier"])
		o.layers["explore.allocate_ms"] = median(self["explore.allocate"])
		o.layers["explore.allocate_ops"] = median(ops)
		o.layers["explore.candidates"] = median(cands)
		o.layers["cluster.run_ms"] = median(self["cluster.run"])
		o.layers["cluster.jobs"] = float64(len(w.jobs))
	}
	return o, nil
}
