// Package explore implements the paper's primary contribution: exploration
// of the joint configuration space of application accuracy (degrees of
// pruning) × cloud resource configurations, under a time deadline T′ and a
// cost budget C′ (Section 3.4); extraction of the time-accuracy and
// cost-accuracy Pareto frontiers (Figures 9–10); and Algorithm 1 — the
// TAR/CAR-guided greedy resource allocation that replaces the exponential
// subset search with an O(|G| log |G|)-per-degree heuristic (Section 4.5.3).
//
// All searches consume predictions through engine.Predictor. Each prices a
// degree's configurations from a rate table that reads every distinct pool
// instance's batch time once; pass an engine.Cache (wrapping the
// measurement harness) and searches that revisit a degree share those
// reads too.
package explore

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"ccperf/internal/accuracy"
	"ccperf/internal/cloud"
	"ccperf/internal/engine"
	"ccperf/internal/metrics"
	"ccperf/internal/pareto"
	"ccperf/internal/prune"
	"ccperf/internal/telemetry"
)

// Candidate is one point of the joint space: a degree of pruning hosted on
// a cloud resource configuration, with model-predicted time, cost and
// accuracy.
type Candidate struct {
	Degree  prune.Degree
	Acc     accuracy.TopK
	Config  cloud.Config
	Seconds float64
	Cost    float64
}

// Hours returns the candidate's execution time in hours.
func (c Candidate) Hours() float64 { return c.Seconds / 3600 }

// Space is the joint exploration space.
type Space struct {
	Pred    engine.Predictor
	Degrees []prune.Degree    // P: the pruned application versions
	Pool    []*cloud.Instance // G: the available resource instances
	W       int64             // images to infer
	// Dist selects the workload distribution; the zero value is the
	// paper's Equation 4 even split.
	Dist cloud.Distribution
	// Workers bounds the enumeration worker pool; 0 or negative means
	// runtime.NumCPU(). The pool never exceeds |P| (one degree is the
	// unit of work).
	Workers int
}

// workers resolves the effective worker-pool size.
func (s *Space) workers() int {
	w := s.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > len(s.Degrees) {
		w = len(s.Degrees)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Enumerate evaluates the analytical model on every (degree, non-empty
// subset of G) pair. With |G| instances this is |P|·(2^|G|−1) candidates —
// the exponential space Algorithm 1 avoids. Subsets whose sorted instance
// slices hold the same pointers share one estimate, so a cloud.BuildPool
// pool of k types × m copies costs (m+1)^k−1 estimates per degree. Degrees are
// evaluated concurrently (each degree's block of the result is
// independent); output order is deterministic: degree-major, subsets in
// mask order. Cancelling ctx stops feeding the pool, drains in-flight
// workers promptly and returns ctx's error.
//
// Telemetry: emits one explore.enumerate span with a child explore.worker
// span per pool worker, counts candidates/degrees, observes per-degree
// wall time in explore.degree_seconds, and reports aggregate pool
// utilization (worker busy time over pool wall time) in
// explore.worker_utilization.
func (s *Space) Enumerate(ctx context.Context) ([]Candidate, error) {
	reg := telemetry.Default
	spanCtx, finishEnum := telemetry.StartSpan(ctx, "explore.enumerate")
	configs := cloud.Subsets(s.Pool)
	group, firsts := priceGroups(configs)
	out := make([]Candidate, len(configs)*len(s.Degrees))
	workers := s.workers()
	reg.Gauge("explore.workers").Set(float64(workers))
	degreeSeconds := reg.Histogram("explore.degree_seconds", nil)
	candidates := reg.Counter("explore.candidates_enumerated")
	degreesDone := reg.Counter("explore.degrees_evaluated")

	var wg sync.WaitGroup
	jobs := make(chan int)
	errs := make([]error, len(s.Degrees))
	busyNanos := make([]int64, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, finishWorker := telemetry.StartSpan(spanCtx, "explore.worker")
			degrees := 0
			ests := make([]cloud.Estimate, len(firsts))
			defer func() {
				finishWorker(
					telemetry.L("worker", w),
					telemetry.L("degrees", degrees),
					telemetry.L("busy_seconds", float64(busyNanos[w])/1e9),
				)
			}()
			for di := range jobs {
				if err := ctx.Err(); err != nil {
					errs[di] = err
					continue
				}
				dstart := time.Now()
				d := s.Degrees[di]
				acc, err := s.Pred.Accuracy(ctx, d)
				if err != nil {
					errs[di] = err
					continue
				}
				perf := newRateTable(s.Pred.Perf(d, 0), s.Pool)
				for g, ci := range firsts {
					if ests[g], err = cloud.EstimateRunWith(configs[ci], s.W, perf, s.Dist); err != nil {
						errs[di] = err
						break
					}
				}
				if errs[di] == nil {
					base := di * len(configs)
					for ci, cfg := range configs {
						est := &ests[group[ci]]
						out[base+ci] = Candidate{Degree: d, Acc: acc, Config: cfg, Seconds: est.Seconds, Cost: est.Cost}
					}
				}
				el := time.Since(dstart)
				busyNanos[w] += el.Nanoseconds()
				degrees++
				degreesDone.Inc()
				candidates.Add(int64(len(configs)))
				degreeSeconds.Observe(el.Seconds())
			}
		}(w)
	}
feed:
	for di := range s.Degrees {
		select {
		case jobs <- di:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	wall := time.Since(start).Seconds()
	if wall > 0 {
		var busy int64
		for _, b := range busyNanos {
			busy += b
		}
		reg.Gauge("explore.worker_utilization").Set(float64(busy) / 1e9 / (wall * float64(workers)))
	}
	finishEnum(
		telemetry.L("degrees", len(s.Degrees)),
		telemetry.L("configs", len(configs)),
		telemetry.L("workers", workers),
	)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Feasible filters candidates by deadline (seconds) and budget (dollars).
// Use math.Inf(1) to leave a constraint unbounded. Counters record how the
// space shrank: explore.feasible, explore.pruned_deadline and
// explore.pruned_budget (a candidate violating both constraints increments
// both pruned counters).
func Feasible(cands []Candidate, deadline, budget float64) []Candidate {
	var out []Candidate
	var byDeadline, byBudget int64
	for _, c := range cands {
		overDeadline := c.Seconds > deadline
		overBudget := c.Cost > budget
		if overDeadline {
			byDeadline++
		}
		if overBudget {
			byBudget++
		}
		if !overDeadline && !overBudget {
			out = append(out, c)
		}
	}
	reg := telemetry.Default
	reg.Counter("explore.feasible").Add(int64(len(out)))
	reg.Counter("explore.pruned_deadline").Add(byDeadline)
	reg.Counter("explore.pruned_budget").Add(byBudget)
	return out
}

// Objective selects the minimized dimension of a frontier.
type Objective int

// Frontier objectives.
const (
	ByTime Objective = iota
	ByCost
)

// Metric selects the accuracy dimension of a frontier.
type Metric int

// Accuracy metrics.
const (
	Top1 Metric = iota
	Top5
)

// Pick returns the accuracy value this metric selects.
func (m Metric) Pick(a accuracy.TopK) float64 {
	if m == Top1 {
		return a.Top1
	}
	return a.Top5
}

// Frontier extracts the Pareto-optimal candidates: maximal accuracy
// (by metric m) with minimal objective (time or cost) — the lines of
// Figures 9 and 10.
func Frontier(cands []Candidate, obj Objective, m Metric) []Candidate {
	pts := make([]pareto.Point, len(cands))
	for i, c := range cands {
		o := c.Seconds
		if obj == ByCost {
			o = c.Cost
		}
		pts[i] = pareto.Point{Accuracy: m.Pick(c.Acc), Objective: o, Payload: i}
	}
	fr := pareto.Frontier(pts)
	out := make([]Candidate, len(fr))
	for i, p := range fr {
		out[i] = cands[p.Payload.(int)]
	}
	return out
}

// degreeRank is a degree with its reference TAR (computed on the reference
// instance), used for Algorithm 1's ordering.
type degreeRank struct {
	d   prune.Degree
	acc accuracy.TopK
	tar float64
}

// Input parameterizes Algorithm 1 and the exhaustive baseline.
type Input struct {
	Degrees  []prune.Degree
	Pool     []*cloud.Instance
	W        int64
	Deadline float64 // T′ in seconds
	Budget   float64 // C′ in dollars
	// Metric is the accuracy used for ordering P (default Top1).
	Metric Metric
	// Dist selects the workload distribution (default: Equation 4).
	Dist cloud.Distribution
}

// Result is the allocation outcome: the chosen degree of pruning, the
// resource configuration, and the model-estimated time and cost. Ops
// counts analytical-model evaluations, the dominant work of both searches.
type Result struct {
	Found   bool
	Degree  prune.Degree
	Acc     accuracy.TopK
	Config  cloud.Config
	Seconds float64
	Cost    float64
	Ops     int
}

// Allocate is Algorithm 1. P is sorted by descending accuracy (ties by
// ascending TAR); for each degree, instances are sorted by ascending CAR
// and added greedily until the configuration meets both T′ and C′. The
// first success is returned — by construction the highest-accuracy degree
// that the greedy order can satisfy. Cancelling ctx aborts the search
// between evaluations.
func Allocate(ctx context.Context, p engine.Predictor, in Input) (res Result, err error) {
	if len(in.Pool) == 0 {
		return Result{}, fmt.Errorf("explore: empty resource pool")
	}
	_, finish := telemetry.StartSpan(ctx, "explore.allocate")
	defer func() {
		telemetry.Default.Counter("explore.allocate_ops").Add(int64(res.Ops))
		finish(telemetry.L("found", res.Found), telemetry.L("ops", res.Ops))
	}()
	ranks, ops, err := rankDegrees(ctx, p, in)
	if err != nil {
		return Result{}, err
	}
	for _, dr := range ranks {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		perf := newRateTable(p.Perf(dr.d, 0), in.Pool)
		// Sort G ascending by CAR: cost of running the whole workload on
		// that instance alone, per unit accuracy.
		type gCar struct {
			inst *cloud.Instance
			car  float64
			sec  float64
		}
		gs := make([]gCar, len(in.Pool))
		a := in.Metric.Pick(dr.acc)
		for i, g := range in.Pool {
			est, err := cloud.EstimateRunWith(cloud.NewConfig(g), in.W, perf, in.Dist)
			if err != nil {
				return Result{}, err
			}
			ops++
			gs[i] = gCar{inst: g, car: metrics.CAR(est.Cost, a), sec: est.Seconds}
		}
		// Ascending CAR; near-ties (instances of one family have CAR equal
		// up to billing granularity, since price scales with GPU count)
		// break toward the faster instance so the greedy prefix is not
		// dominated by a slow straggler under the even workload split of
		// Equation 4.
		sort.SliceStable(gs, func(x, y int) bool {
			cx, cy := gs[x].car, gs[y].car
			if diff := math.Abs(cx - cy); diff > 0.01*math.Max(cx, cy) {
				return cx < cy
			}
			return gs[x].sec < gs[y].sec
		})

		var chosen []*cloud.Instance
		for _, g := range gs {
			chosen = append(chosen, g.inst)
			cfg := cloud.NewConfig(chosen...)
			est, err := cloud.EstimateRunWith(cfg, in.W, perf, in.Dist)
			if err != nil {
				return Result{}, err
			}
			ops++
			if est.Seconds <= in.Deadline && est.Cost <= in.Budget {
				return Result{
					Found: true, Degree: dr.d, Acc: dr.acc, Config: cfg,
					Seconds: est.Seconds, Cost: est.Cost, Ops: ops,
				}, nil
			}
		}
	}
	return Result{Ops: ops}, nil
}

// rankDegrees sorts P by (accuracy desc, TAR asc) per Algorithm 1 line 1.
// TAR is computed on the first pool instance as the reference resource.
func rankDegrees(ctx context.Context, p engine.Predictor, in Input) ([]degreeRank, int, error) {
	ref := in.Pool[0]
	ranks := make([]degreeRank, 0, len(in.Degrees))
	ops := 0
	for _, d := range in.Degrees {
		acc, err := p.Accuracy(ctx, d)
		if err != nil {
			return nil, ops, err
		}
		sec, err := p.TotalSeconds(ctx, d, ref, 0, in.W)
		if err != nil {
			return nil, ops, err
		}
		ops++
		ranks = append(ranks, degreeRank{d: d, acc: acc, tar: metrics.TAR(sec, in.Metric.Pick(acc))})
	}
	sort.SliceStable(ranks, func(a, b int) bool {
		aa, ab := in.Metric.Pick(ranks[a].acc), in.Metric.Pick(ranks[b].acc)
		if aa != ab {
			return aa > ab
		}
		return ranks[a].tar < ranks[b].tar
	})
	return ranks, ops, nil
}

// Exhaustive is the brute-force baseline: evaluate every degree on every
// non-empty subset of G (|P|·(2^|G|−1) model evaluations) and return the
// feasible candidate with maximal accuracy, ties broken by minimal cost
// then minimal time. Cancelling ctx aborts between degrees.
func Exhaustive(ctx context.Context, p engine.Predictor, in Input) (out Result, err error) {
	if len(in.Pool) == 0 {
		return Result{}, fmt.Errorf("explore: empty resource pool")
	}
	_, finish := telemetry.StartSpan(ctx, "explore.exhaustive")
	defer func() {
		telemetry.Default.Counter("explore.exhaustive_ops").Add(int64(out.Ops))
		finish(telemetry.L("found", out.Found), telemetry.L("ops", out.Ops))
	}()
	configs := cloud.Subsets(in.Pool)
	best := Result{}
	ops := 0
	for _, d := range in.Degrees {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		acc, err := p.Accuracy(ctx, d)
		if err != nil {
			return Result{}, err
		}
		a := in.Metric.Pick(acc)
		perf := newRateTable(p.Perf(d, 0), in.Pool)
		for _, cfg := range configs {
			est, err := cloud.EstimateRunWith(cfg, in.W, perf, in.Dist)
			if err != nil {
				return Result{}, err
			}
			ops++
			if est.Seconds > in.Deadline || est.Cost > in.Budget {
				continue
			}
			if !best.Found ||
				a > in.Metric.Pick(best.Acc) ||
				(a == in.Metric.Pick(best.Acc) && (est.Cost < best.Cost ||
					(est.Cost == best.Cost && est.Seconds < best.Seconds))) {
				best = Result{
					Found: true, Degree: d, Acc: acc, Config: cfg,
					Seconds: est.Seconds, Cost: est.Cost,
				}
			}
		}
	}
	best.Ops = ops
	return best, nil
}

// GreedyOpsBound returns the worst-case model-evaluation count of
// Algorithm 1 (|P|·(2|G|+1)); ExhaustiveOps returns |P|·(2^|G|−1). The gap
// is the paper's exponential-to-polynomial reduction.
func GreedyOpsBound(p, g int) int { return p * (2*g + 1) }

// ExhaustiveOps returns the exhaustive search's model-evaluation count.
func ExhaustiveOps(p, g int) int {
	if g >= 63 {
		return math.MaxInt
	}
	return p * ((1 << g) - 1)
}

// JointFrontier extracts the three-objective Pareto set — maximal accuracy
// with minimal time AND minimal cost simultaneously. It generalizes
// Figures 9 and 10: a configuration survives only if nothing is at least
// as accurate, as fast, and as cheap.
func JointFrontier(cands []Candidate, m Metric) []Candidate {
	pts := make([]pareto.Point3, len(cands))
	for i, c := range cands {
		pts[i] = pareto.Point3{Accuracy: m.Pick(c.Acc), Time: c.Seconds, Cost: c.Cost, Payload: i}
	}
	fr := pareto.Frontier3(pts)
	out := make([]Candidate, len(fr))
	for i, p := range fr {
		out[i] = cands[p.Payload.(int)]
	}
	return out
}
