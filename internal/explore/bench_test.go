package explore

import (
	"context"
	"math"
	"slices"
	"testing"

	"ccperf/internal/cloud"
	"ccperf/internal/engine"
	"ccperf/internal/measure"
	"ccperf/internal/models"
	"ccperf/internal/prune"
)

// benchSpace builds an enumeration over a pool spanning three instance
// types (two of each), so the 2^6−1 = 63 subsets collapse onto only three
// distinct per-instance-type evaluations per degree when cached.
func benchSpace(b *testing.B, pred engine.Predictor) Space {
	b.Helper()
	pool := make([]*cloud.Instance, 0, 6)
	for _, name := range []string{"p2.xlarge", "p2.8xlarge", "p2.16xlarge"} {
		inst, err := cloud.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		pool = append(pool, inst, inst)
	}
	degrees := []prune.Degree{
		{},
		prune.NewDegree("conv1", 0.3),
		prune.NewDegree("conv2", 0.5),
		prune.NewDegree("conv1", 0.5, "conv2", 0.5),
		prune.NewDegree("conv1", 0.7, "conv2", 0.8),
	}
	return Space{Pred: pred, Degrees: degrees, Pool: pool, W: 1_000_000}
}

func benchHarness(b *testing.B) *measure.Harness {
	b.Helper()
	h, err := measure.NewHarness(models.CaffenetName)
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// BenchmarkEnumerate compares the joint-space enumeration with and without
// the engine cache. The cached variant shares one cache across iterations,
// warmed before the timer starts — the steady state of a CLI invocation
// that enumerates, filters, then enumerates again for another frontier.
func BenchmarkEnumerate(b *testing.B) {
	b.Run("uncached", func(b *testing.B) {
		sp := benchSpace(b, benchHarness(b))
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sp.Enumerate(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		sp := benchSpace(b, engine.NewCache(benchHarness(b)))
		ctx := context.Background()
		if _, err := sp.Enumerate(ctx); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sp.Enumerate(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlan is one plan of the paper's Figure 9/10 planner: 60 sampled
// Caffenet degrees × the 511 subsets of a 9-instance p2 pool, W = 1M, two
// enumeration workers, and a deadline that 5% of the candidates meet. Each
// iteration starts from a cold engine cache and runs Enumerate, Feasible,
// both frontiers and Algorithm 1.
func BenchmarkPlan(b *testing.B) {
	h := benchHarness(b)
	keep := func(d prune.Degree) bool {
		a, err := h.Eval.Evaluate(d)
		return err == nil && a.Top1 >= 0.15
	}
	degrees := prune.SampleDegreesFiltered(models.CaffenetConvNames(), prune.Range(0, 0.9, 0.1), 60, 42, keep)
	pool := cloud.BuildPool(cloud.P2Types(), 3)
	ctx := context.Background()
	space, err := (&Space{Pred: h, Degrees: degrees, Pool: pool, W: 1_000_000}).Enumerate(ctx)
	if err != nil {
		b.Fatal(err)
	}
	secs := make([]float64, len(space))
	for i, c := range space {
		secs[i] = c.Seconds
	}
	slices.Sort(secs)
	deadline := secs[len(secs)/20]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred := engine.NewCache(h)
		sp := Space{Pred: pred, Degrees: degrees, Pool: pool, W: 1_000_000, Workers: 2}
		all, err := sp.Enumerate(ctx)
		if err != nil {
			b.Fatal(err)
		}
		feas := Feasible(all, deadline, math.Inf(1))
		Frontier(feas, ByTime, Top1)
		Frontier(feas, ByCost, Top1)
		res, err := Allocate(ctx, pred, Input{Degrees: degrees, Pool: pool, W: 1_000_000, Deadline: deadline, Budget: math.Inf(1)})
		if err != nil {
			b.Fatal(err)
		}
		if len(all) != 60*511 || len(feas) == 0 || !res.Found {
			b.Fatalf("plan: %d candidates, %d feasible, found %v", len(all), len(feas), res.Found)
		}
	}
}
