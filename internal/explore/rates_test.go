package explore

import (
	"context"
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"ccperf/internal/cloud"
	"ccperf/internal/engine"
	"ccperf/internal/metrics"
	"ccperf/internal/prune"
)

// twinPool holds two distinct *Instance values named p2.xlarge (the second
// at a different price), repeated instances, and a second GPU kind.
func twinPool(t testing.TB) []*cloud.Instance {
	t.Helper()
	var insts []*cloud.Instance
	for _, name := range []string{"p2.xlarge", "p2.8xlarge", "g3.4xlarge"} {
		inst, err := cloud.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst)
	}
	twin := *insts[0]
	twin.PricePerHour = 0.27
	return []*cloud.Instance{insts[1], insts[0], &twin, insts[0], insts[2], insts[1]}
}

func referenceDegrees() []prune.Degree {
	return append(someDegrees(),
		prune.NewDegree("conv1", 0.2, "conv2", 0.4, "conv3", 0.3, "conv4", 0.5, "conv5", 0.6),
		prune.NewDegree("conv3", 0.9),
	)
}

var dists = []cloud.Distribution{cloud.EvenSplit, cloud.CapacityWeighted}

// referenceEnumerate prices every (degree, subset) pair with its own
// cloud.EstimateRunWith call on the predictor's Perf.
func referenceEnumerate(ctx context.Context, p engine.Predictor, degrees []prune.Degree, pool []*cloud.Instance, w int64, dist cloud.Distribution) ([]Candidate, error) {
	var out []Candidate
	for _, d := range degrees {
		acc, err := p.Accuracy(ctx, d)
		if err != nil {
			return nil, err
		}
		perf := p.Perf(d, 0)
		for _, cfg := range cloud.Subsets(pool) {
			est, err := cloud.EstimateRunWith(cfg, w, perf, dist)
			if err != nil {
				return nil, err
			}
			out = append(out, Candidate{Degree: d, Acc: acc, Config: cfg, Seconds: est.Seconds, Cost: est.Cost})
		}
	}
	return out, nil
}

// referenceAllocate is Algorithm 1 calling the predictor's Perf directly.
func referenceAllocate(ctx context.Context, p engine.Predictor, in Input) (Result, error) {
	ranks, ops, err := rankDegrees(ctx, p, in)
	if err != nil {
		return Result{}, err
	}
	for _, dr := range ranks {
		perf := p.Perf(dr.d, 0)
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
				return Result{Found: true, Degree: dr.d, Acc: dr.acc, Config: cfg,
					Seconds: est.Seconds, Cost: est.Cost, Ops: ops}, nil
			}
		}
	}
	return Result{Ops: ops}, nil
}

// referenceExhaustive is the brute-force search calling the predictor's
// Perf directly.
func referenceExhaustive(ctx context.Context, p engine.Predictor, in Input) (Result, error) {
	best := Result{}
	ops := 0
	for _, d := range in.Degrees {
		acc, err := p.Accuracy(ctx, d)
		if err != nil {
			return Result{}, err
		}
		a := in.Metric.Pick(acc)
		perf := p.Perf(d, 0)
		for _, cfg := range cloud.Subsets(in.Pool) {
			est, err := cloud.EstimateRunWith(cfg, in.W, perf, in.Dist)
			if err != nil {
				return Result{}, err
			}
			ops++
			if est.Seconds > in.Deadline || est.Cost > in.Budget {
				continue
			}
			if !best.Found || a > in.Metric.Pick(best.Acc) ||
				(a == in.Metric.Pick(best.Acc) && (est.Cost < best.Cost ||
					(est.Cost == best.Cost && est.Seconds < best.Seconds))) {
				best = Result{Found: true, Degree: d, Acc: acc, Config: cfg, Seconds: est.Seconds, Cost: est.Cost}
			}
		}
	}
	best.Ops = ops
	return best, nil
}

// sameBits reports whether two estimates agree bit for bit on time and
// cost and name the same instance pointers in the same order.
func sameBits(cfgA, cfgB cloud.Config, secA, secB, costA, costB float64) bool {
	return slices.Equal(cfgA.Instances, cfgB.Instances) &&
		math.Float64bits(secA) == math.Float64bits(secB) &&
		math.Float64bits(costA) == math.Float64bits(costB)
}

func sameResult(a, b Result) bool {
	return a.Found == b.Found && a.Degree.Label() == b.Degree.Label() && a.Acc == b.Acc &&
		a.Ops == b.Ops && sameBits(a.Config, b.Config, a.Seconds, b.Seconds, a.Cost, b.Cost)
}

func TestEnumerateMatchesReference(t *testing.T) {
	ctx := context.Background()
	pool := twinPool(t)
	for _, dist := range dists {
		pred := engine.NewCache(harness(t))
		want, err := referenceEnumerate(ctx, pred, referenceDegrees(), pool, 1_000_000, dist)
		if err != nil {
			t.Fatal(err)
		}
		sp := Space{Pred: pred, Degrees: referenceDegrees(), Pool: pool, W: 1_000_000, Dist: dist, Workers: 2}
		got, err := sp.Enumerate(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d candidates, want %d", dist, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Degree.Label() != w.Degree.Label() || g.Acc != w.Acc ||
				!sameBits(g.Config, w.Config, g.Seconds, w.Seconds, g.Cost, w.Cost) {
				t.Fatalf("%v: candidate %d = %s %s %x %x, want %s %s %x %x", dist, i,
					g.Degree.Label(), g.Config.Label(), math.Float64bits(g.Seconds), math.Float64bits(g.Cost),
					w.Degree.Label(), w.Config.Label(), math.Float64bits(w.Seconds), math.Float64bits(w.Cost))
			}
		}
	}
}

func TestEnumerateErrorMatchesReference(t *testing.T) {
	ctx := context.Background()
	pred := engine.NewCache(harness(t))
	_, want := referenceEnumerate(ctx, pred, someDegrees(), twinPool(t), 0, cloud.EvenSplit)
	sp := Space{Pred: pred, Degrees: someDegrees(), Pool: twinPool(t), W: 0}
	_, got := sp.Enumerate(ctx)
	if want == nil || got == nil || got.Error() != want.Error() {
		t.Fatalf("Enumerate error = %v, want %v", got, want)
	}
}

// referenceInputs spans constraints from unbounded to unmeetable, through
// deadlines and budgets that only some degrees and subsets meet.
func referenceInputs(t *testing.T, pred engine.Predictor, pool []*cloud.Instance, dist cloud.Distribution) []Input {
	t.Helper()
	cands, err := referenceEnumerate(context.Background(), pred, referenceDegrees(), pool, 1_000_000, dist)
	if err != nil {
		t.Fatal(err)
	}
	secs := make([]float64, len(cands))
	costs := make([]float64, len(cands))
	for i, c := range cands {
		secs[i], costs[i] = c.Seconds, c.Cost
	}
	slices.Sort(secs)
	slices.Sort(costs)
	inf := math.Inf(1)
	in := []Input{{Deadline: inf, Budget: inf}, {Deadline: 0, Budget: inf}}
	for _, q := range []float64{0.02, 0.1, 0.3, 0.6} {
		sec, cost := secs[int(q*float64(len(secs)))], costs[int(q*float64(len(costs)))]
		in = append(in,
			Input{Deadline: sec, Budget: inf},
			Input{Deadline: inf, Budget: cost},
			Input{Deadline: sec, Budget: cost, Metric: Top5})
	}
	for i := range in {
		in[i].Degrees, in[i].Pool, in[i].W, in[i].Dist = referenceDegrees(), pool, 1_000_000, dist
	}
	return in
}

func TestAllocateAndExhaustiveMatchReference(t *testing.T) {
	ctx := context.Background()
	pool := twinPool(t)
	for _, dist := range dists {
		pred := engine.NewCache(harness(t))
		found := 0
		inputs := referenceInputs(t, pred, pool, dist)
		for i, in := range inputs {
			want, err := referenceAllocate(ctx, pred, in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Allocate(ctx, pred, in)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(got, want) {
				t.Fatalf("%v input %d: Allocate = %+v, want %+v", dist, i, got, want)
			}
			if got.Found {
				found++
			}
			want, err = referenceExhaustive(ctx, pred, in)
			if err != nil {
				t.Fatal(err)
			}
			got, err = Exhaustive(ctx, pred, in)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(got, want) {
				t.Fatalf("%v input %d: Exhaustive = %+v, want %+v", dist, i, got, want)
			}
			if got.Ops != ExhaustiveOps(len(in.Degrees), len(pool)) {
				t.Fatalf("Exhaustive ops = %d, want %d", got.Ops, ExhaustiveOps(len(in.Degrees), len(pool)))
			}
		}
		if found == 0 || found == len(inputs) {
			t.Fatalf("%v: Allocate found %d of %d inputs; the inputs must cover both outcomes", dist, found, len(inputs))
		}
	}
}

func TestEnumeratePackingsMatchesReference(t *testing.T) {
	ctx := context.Background()
	pool := twinPool(t)[:4]
	tenants := someTenants()
	tenants[1].Degrees = append(tenants[1].Degrees, referenceDegrees()[4])
	for _, dist := range dists {
		pred := engine.NewCache(harness(t))
		packs, err := EnumeratePackings(ctx, pred, tenants, pool, Top1, dist)
		if err != nil {
			t.Fatal(err)
		}
		configs := cloud.Subsets(pool)
		if want := len(configs) * len(tenants[0].Degrees) * len(tenants[1].Degrees); len(packs) != want {
			t.Fatalf("%d packings, want %d", len(packs), want)
		}
		for i, p := range packs {
			cfg := configs[i/(len(packs)/len(configs))]
			var sec, cost float64
			for ti, a := range p.Assignments {
				est, err := cloud.EstimateRunWith(cfg, tenants[ti].W, pred.Perf(a.Degree, 0), dist)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(p.Config, cfg, a.Seconds, est.Seconds, a.Cost, est.Cost) {
					t.Fatalf("%v packing %d tenant %s: %x %x, want %x %x", dist, i, a.Tenant,
						math.Float64bits(a.Seconds), math.Float64bits(a.Cost), math.Float64bits(est.Seconds), math.Float64bits(est.Cost))
				}
				sec += est.Seconds
				cost += est.Cost
			}
			if math.Float64bits(p.Seconds) != math.Float64bits(sec) || math.Float64bits(p.Cost) != math.Float64bits(cost) {
				t.Fatalf("%v packing %d totals %v/%v, want %v/%v", dist, i, p.Seconds, p.Cost, sec, cost)
			}
		}
	}
}

// countingPredictor counts the batch-time lookups made through the Perfs
// it hands out.
type countingPredictor struct {
	engine.Predictor
	batchTimes atomic.Int64
}

func (p *countingPredictor) Perf(d prune.Degree, gpus int) cloud.Perf {
	return countingPerf{p.Predictor.Perf(d, gpus), &p.batchTimes}
}

type countingPerf struct {
	cloud.Perf
	n *atomic.Int64
}

func (p countingPerf) BatchTime(it *cloud.Instance, b int) float64 {
	p.n.Add(1)
	return p.Perf.BatchTime(it, b)
}

func TestEnumerateLooksUpEachInstanceOnce(t *testing.T) {
	pred := &countingPredictor{Predictor: engine.NewCache(harness(t))}
	pool := twinPool(t) // four distinct instances
	sp := Space{Pred: pred, Degrees: referenceDegrees(), Pool: pool, W: 1_000_000}
	if _, err := sp.Enumerate(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := pred.batchTimes.Load(), int64(4*len(referenceDegrees())); got != want {
		t.Fatalf("batch-time lookups = %d, want %d (one per degree and distinct instance)", got, want)
	}
}

func TestPriceGroups(t *testing.T) {
	pool := cloud.BuildPool(cloud.P2Types(), 3)
	configs := cloud.Subsets(pool)
	group, firsts := priceGroups(configs)
	if len(firsts) != 63 {
		t.Fatalf("%d groups for 3 types × 3 copies, want 63", len(firsts))
	}
	for ci, g := range group {
		first := configs[firsts[g]]
		if firsts[g] > ci || !slices.Equal(first.Instances, configs[ci].Instances) {
			t.Fatalf("config %d (%s) grouped with %d (%s)", ci, configs[ci].Label(), firsts[g], first.Label())
		}
	}
	// Same names, different pointers: never one group.
	twins := twinPool(t)
	configs = cloud.Subsets(twins)
	group, _ = priceGroups(configs)
	for a := range configs {
		for b := range configs {
			if group[a] == group[b] && !slices.Equal(configs[a].Instances, configs[b].Instances) {
				t.Fatalf("configs %d and %d share a group", a, b)
			}
		}
	}
}

// fakePerf answers from fixed tables and counts its calls.
type fakePerf struct {
	batch    map[*cloud.Instance]int
	maxCalls int
	btCalls  int
}

func (f *fakePerf) MaxBatch(it *cloud.Instance) int { f.maxCalls++; return f.batch[it] }

func (f *fakePerf) BatchTime(it *cloud.Instance, b int) float64 {
	f.btCalls++
	return float64(b) + float64(it.GPUs)/8
}

func TestRateTableFallsThrough(t *testing.T) {
	pool := twinPool(t)
	outside := cloud.AllTypes()[7]
	f := &fakePerf{batch: map[*cloud.Instance]int{pool[0]: 64, pool[1]: 0, pool[2]: 16, pool[4]: 8, outside: 4}}
	rt := newRateTable(f, pool)
	if f.maxCalls != 4 || f.btCalls != 3 {
		t.Fatalf("fill made %d MaxBatch and %d BatchTime calls, want 4 and 3 (no batch time at b=0)", f.maxCalls, f.btCalls)
	}
	for _, c := range []struct {
		inst               *cloud.Instance
		b, wantMax         int
		innerMax, innerBTs int // calls that reach the wrapped Perf
	}{
		{inst: pool[0], b: 64, wantMax: 64},
		{inst: pool[0], b: 32, wantMax: 64, innerBTs: 1},
		{inst: pool[1], b: 0, wantMax: 0, innerBTs: 1},
		{inst: pool[2], b: 16, wantMax: 16},
		{inst: outside, b: 4, wantMax: 4, innerMax: 1, innerBTs: 1},
	} {
		f.maxCalls, f.btCalls = 0, 0
		if got := rt.MaxBatch(c.inst); got != c.wantMax {
			t.Fatalf("%s MaxBatch = %d, want %d", c.inst.Name, got, c.wantMax)
		}
		if got, want := rt.BatchTime(c.inst, c.b), float64(c.b)+float64(c.inst.GPUs)/8; got != want {
			t.Fatalf("%s BatchTime(%d) = %v, want %v", c.inst.Name, c.b, got, want)
		}
		if f.maxCalls != c.innerMax || f.btCalls != c.innerBTs {
			t.Fatalf("%s b=%d: wrapped Perf got %d MaxBatch and %d BatchTime calls, want %d and %d",
				c.inst.Name, c.b, f.maxCalls, f.btCalls, c.innerMax, c.innerBTs)
		}
	}
}
