package ccperf

// Benchmark harness: one benchmark per table and figure of the paper (plus
// the ablations called out in DESIGN.md §6). Each benchmark regenerates
// the experiment and prints the paper-vs-measured findings once, so
//
//	go test -bench=. -benchmem
//
// reproduces every row/series the paper reports alongside Go-level timing
// of the regeneration itself.

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync"
	"testing"

	"ccperf/internal/cloud"
	"ccperf/internal/explore"
	"ccperf/internal/gpusim"
	"ccperf/internal/measure"
	"ccperf/internal/models"
	"ccperf/internal/nn"
	"ccperf/internal/prune"
	"ccperf/internal/tensor"
)

var printOnce sync.Map

// benchExperiment runs one registered experiment per iteration, printing
// its findings the first time.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := RunExperiment(id)
		if err != nil {
			b.Fatal(err)
		}
		if _, loaded := printOnce.LoadOrStore(id, true); !loaded {
			fmt.Fprintf(os.Stdout, "\n==== %s — %s\n%s", res.ID, res.Title, res.Text)
			for _, f := range res.Findings {
				paper := f.Paper
				if paper == "" {
					paper = "(not reported)"
				}
				fmt.Fprintf(os.Stdout, "  %-34s paper: %-44s measured: %s\n", f.Name, paper, f.Measured)
			}
		}
	}
}

func BenchmarkTable1CaffenetLayers(b *testing.B)         { benchExperiment(b, "table1") }
func BenchmarkTable3CloudResources(b *testing.B)         { benchExperiment(b, "table3") }
func BenchmarkFigure3LayerTimeDistribution(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFigure4SingleInference(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFigure5ParallelInference(b *testing.B)     { benchExperiment(b, "fig5") }
func BenchmarkFigure6CaffenetLayerSweep(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkFigure7GooglenetLayerSweep(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFigure8MultiLayerPruning(b *testing.B)     { benchExperiment(b, "fig8") }
func BenchmarkFigure9TimeAccuracyPareto(b *testing.B)    { benchExperiment(b, "fig9") }
func BenchmarkFigure10CostAccuracyPareto(b *testing.B)   { benchExperiment(b, "fig10") }
func BenchmarkFigure11TARGrid(b *testing.B)              { benchExperiment(b, "fig11") }
func BenchmarkFigure12CARResourceTypes(b *testing.B)     { benchExperiment(b, "fig12") }
func BenchmarkEmpiricalSweetSpot(b *testing.B)           { benchExperiment(b, "empirical") }
func BenchmarkCalibrationTable(b *testing.B)             { benchExperiment(b, "calibration") }
func BenchmarkConstraintSensitivity(b *testing.B)        { benchExperiment(b, "sensitivity") }
func BenchmarkSampleRobustness(b *testing.B)             { benchExperiment(b, "robustness") }
func BenchmarkJointParetoSurface(b *testing.B)           { benchExperiment(b, "joint") }
func BenchmarkTransferLeaveOneOut(b *testing.B)          { benchExperiment(b, "transfer") }

// BenchmarkAlgorithm1VsExhaustive times the two searches on the Figure
// 9/10 input and reports their model-evaluation counts — the paper's
// exponential-to-polynomial claim, measured.
func BenchmarkAlgorithm1VsExhaustive(b *testing.B) {
	planner, err := NewPlanner(Caffenet)
	if err != nil {
		b.Fatal(err)
	}
	req := Request{Images: W1M, DeadlineHours: Fig9DeadlineSeconds / 3600, BudgetUSD: Fig10BudgetUSD}
	b.Run("greedy", func(b *testing.B) {
		var ops int
		for i := 0; i < b.N; i++ {
			plan, err := planner.Allocate(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			ops = plan.Ops
		}
		b.ReportMetric(float64(ops), "model-evals")
	})
	b.Run("exhaustive", func(b *testing.B) {
		var ops int
		for i := 0; i < b.N; i++ {
			plan, err := planner.AllocateExhaustive(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			ops = plan.Ops
		}
		b.ReportMetric(float64(ops), "model-evals")
	})
	benchExperiment(b, "alg1")
}

// BenchmarkAblationSparseGEMM compares the dense GEMM and CSR SpMM kernels
// a pruned convolution can run through, across weight sparsities — the
// crossover that justifies the sparse execution path (DESIGN.md §6.1).
func BenchmarkAblationSparseGEMM(b *testing.B) {
	const rows, inner, cols = 256, 1200, 729 // Caffenet conv2 GEMM shape
	dense := tensor.NewMatrix(rows, inner)
	x := tensor.NewMatrix(inner, cols)
	for i := range x.Data {
		x.Data[i] = float32(i%7) - 3
	}
	for _, sparsity := range []float64{0, 0.5, 0.9} {
		w := dense.Clone()
		for i := range w.Data {
			if float64(i%100) >= sparsity*100 {
				w.Data[i] = float32(i%13) - 6
			}
		}
		csr := tensor.ToCSR(w)
		b.Run(fmt.Sprintf("dense/sparsity=%.0f%%", sparsity*100), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.MatMul(w, x)
			}
		})
		b.Run(fmt.Sprintf("csr/sparsity=%.0f%%", sparsity*100), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.SpMM(csr, x)
			}
		})
	}
}

// BenchmarkAblationPruningMethods times the four pruning algorithms on a
// Caffenet-conv2-sized weight matrix (DESIGN.md §6.2). The network is
// built once; each iteration restores the pristine weights and re-prunes.
func BenchmarkAblationPruningMethods(b *testing.B) {
	net := models.Caffenet()
	if err := net.Init(1); err != nil {
		b.Fatal(err)
	}
	p, ok := net.PrunableByName("conv2")
	if !ok {
		b.Fatal("conv2 missing")
	}
	var _ nn.Prunable = p
	pristine := p.Weights().Clone()
	for _, m := range []prune.Method{prune.L1Filter, prune.Magnitude, prune.StructuredScore, prune.GreedyCost} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(p.Weights().Data, pristine.Data)
				b.StartTimer()
				if err := prune.Layer(p, 0.5, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCaffenetForwardBatch is the engine's version of the paper's
// Figure 5: ForwardBatchPool on two workers, as ccbench's infer-caffenet
// runs it, at batches of 1, 2, 4 and 8 Caffenet images (224×224),
// reporting ms per image. From two images on, each FC layer runs once
// over the batch. The net is built once, outside the sub-benchmarks.
func BenchmarkCaffenetForwardBatch(b *testing.B) {
	net := models.Caffenet()
	if err := net.Init(1); err != nil {
		b.Fatal(err)
	}
	in := net.Input
	imgs := make([]*tensor.Tensor, 8)
	for i := range imgs {
		imgs[i] = tensor.New(in.C, in.H, in.W)
		for j := range imgs[i].Data {
			imgs[i].Data[j] = float32((j*17+i*131)%255)/255 - 0.5
		}
	}
	pool := nn.NewWorkspacePool(1)
	for _, batch := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("B=%d", batch), func(b *testing.B) {
			net.ForwardBatchPool(imgs[:batch], 2, pool) // warm the workspaces
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.ForwardBatchPool(imgs[:batch], 2, pool)
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*batch), "ms/image")
		})
	}
}

// BenchmarkAblationBatchSize shows the simulated-cloud cost of running
// below, at, and above the GPU saturation batch (DESIGN.md §6.3).
func BenchmarkAblationBatchSize(b *testing.B) {
	sim := gpusim.New()
	inst, err := cloud.ByName("p2.xlarge")
	if err != nil {
		b.Fatal(err)
	}
	dev, err := sim.Device(inst.GPU)
	if err != nil {
		b.Fatal(err)
	}
	run := gpusim.ModelRun{ModelName: models.CaffenetName}
	for _, batch := range []int{30, 300, 1200} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				bt, err := sim.BatchTime(run, dev, 1, batch)
				if err != nil {
					b.Fatal(err)
				}
				total = math.Ceil(float64(W50k)/float64(batch)) * bt
			}
			b.ReportMetric(total, "sim-seconds-50k")
		})
	}
}

// BenchmarkAblationDistribution quantifies the waste of the paper's even
// workload split (Equation 4) against a capacity-weighted split on
// heterogeneous configurations (DESIGN.md §6): the mixed three-type config
// is dominated by its p2.xlarge straggler under the even split.
func BenchmarkAblationDistribution(b *testing.B) {
	h, err := measure.NewHarness(models.CaffenetName)
	if err != nil {
		b.Fatal(err)
	}
	perf := h.Perf(prune.Degree{}, 0)
	xl, _ := cloud.ByName("p2.xlarge")
	xl16, _ := cloud.ByName("p2.16xlarge")
	cfgs := map[string]cloud.Config{
		"homogeneous": cloud.NewConfig(xl, xl, xl),
		"mixed":       cloud.NewConfig(xl, xl16),
	}
	for name, cfg := range cfgs {
		for _, dist := range []cloud.Distribution{cloud.EvenSplit, cloud.CapacityWeighted} {
			b.Run(name+"/"+dist.String(), func(b *testing.B) {
				var sec float64
				for i := 0; i < b.N; i++ {
					est, err := cloud.EstimateRunWith(cfg, W1M, perf, dist)
					if err != nil {
						b.Fatal(err)
					}
					sec = est.Seconds
				}
				b.ReportMetric(sec, "sim-seconds-1M")
			})
		}
	}
}

// BenchmarkMatmul is the ROADMAP-named matmul hot path at the Caffenet
// conv2 GEMM shape (256×1200 · 1200×729), aliased into the root package so
// every bench snapshot — which runs ., ./internal/explore,
// ./internal/serving and ./internal/tenant — carries all five gated hot
// paths (Enumerate/Batcher/GatewayThroughput/TenantFairness/Matmul).
func BenchmarkMatmul(b *testing.B) {
	const rows, inner, cols = 256, 1200, 729
	w := tensor.NewMatrix(rows, inner)
	x := tensor.NewMatrix(inner, cols)
	for i := range w.Data {
		w.Data[i] = float32(i%13) - 6
	}
	for i := range x.Data {
		x.Data[i] = float32(i%7) - 3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(w, x)
	}
}

// BenchmarkSpaceEnumeration times the full Figure 9/10 joint-space
// enumeration (30 660 analytical-model evaluations).
func BenchmarkSpaceEnumeration(b *testing.B) {
	h, err := measure.NewHarness(models.CaffenetName)
	if err != nil {
		b.Fatal(err)
	}
	keep := func(d prune.Degree) bool {
		a, err := h.Eval.Evaluate(d)
		return err == nil && a.Top1 >= 0.15
	}
	degrees := prune.SampleDegreesFiltered(models.CaffenetConvNames(), prune.Range(0, 0.9, 0.1), 60, SpaceSeed, keep)
	pool := cloud.BuildPool(cloud.P2Types(), 3)
	sp := &explore.Space{Pred: h, Degrees: degrees, Pool: pool, W: W1M}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands, err := sp.Enumerate(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(cands) != 60*511 {
			b.Fatalf("candidates = %d", len(cands))
		}
	}
}
