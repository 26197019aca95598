package gpusim

import (
	"math"
	"testing"

	"ccperf/internal/cloud"
	"ccperf/internal/models"
	"ccperf/internal/nn"
	"ccperf/internal/prune"
)

const w50k = 50_000

func sim(t *testing.T) *Simulator {
	t.Helper()
	return New()
}

func p2xl(t *testing.T) *cloud.Instance {
	t.Helper()
	i, err := cloud.ByName("p2.xlarge")
	if err != nil {
		t.Fatal(err)
	}
	return i
}

func caffenetRun(d prune.Degree) ModelRun {
	return ModelRun{ModelName: models.CaffenetName, Degree: d}
}

func googlenetRun(d prune.Degree) ModelRun {
	return ModelRun{ModelName: models.GooglenetName, Degree: d}
}

// within asserts got is within tol (relative) of want.
func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want)/want > tol {
		t.Errorf("%s = %v, want %v ±%.0f%%", name, got, want, tol*100)
	}
}

func TestCaffenetUnprunedTotal19Min(t *testing.T) {
	s := sim(t)
	sec, err := s.TotalTime(caffenetRun(prune.Degree{}), p2xl(t), 1, w50k)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "Caffenet 50k total", sec/60, 19, 0.02)
}

func TestGooglenetUnprunedTotal13Min(t *testing.T) {
	s := sim(t)
	sec, err := s.TotalTime(googlenetRun(prune.Degree{}), p2xl(t), 1, w50k)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "Googlenet 50k total", sec/60, 13, 0.02)
}

func TestSingleInferenceLatencies(t *testing.T) {
	// Figure 4 endpoints: Caffenet 0.09→0.05 s, Googlenet 0.16→0.10 s
	// under uniform 0→90 % pruning of all conv layers, batch 1.
	s := sim(t)
	k80, _ := s.Device(cloud.K80)

	cn := models.Caffenet()
	gn := models.Googlenet()
	caffeLayers := models.CaffenetConvNames()
	var googLayers []string
	if err := gn.Init(1); err != nil {
		t.Fatal(err)
	}
	for _, c := range gn.ConvLayers() {
		googLayers = append(googLayers, c.Name())
	}
	_ = cn

	cases := []struct {
		name      string
		run       func(prune.Degree) ModelRun
		layers    []string
		at0, at90 float64
	}{
		{"caffenet", caffenetRun, caffeLayers, 0.09, 0.05},
		{"googlenet", googlenetRun, googLayers, 0.16, 0.10},
	}
	for _, c := range cases {
		t0, err := s.BatchTime(c.run(prune.Degree{}), k80, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		within(t, c.name+" batch-1 unpruned", t0, c.at0, 0.03)
		t90, err := s.BatchTime(c.run(prune.Uniform(c.layers, 0.9)), k80, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		within(t, c.name+" batch-1 @90%", t90, c.at90, 0.08)
	}
}

func TestFigure6SingleLayerEndpoints(t *testing.T) {
	// conv2@90% → ~14 min; conv1@90% → ~16.6 min (Figure 6 a–b).
	s := sim(t)
	inst := p2xl(t)
	conv2, err := s.TotalTime(caffenetRun(prune.NewDegree("conv2", 0.9)), inst, 1, w50k)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "conv2@90%", conv2/60, 14, 0.03)
	conv1, err := s.TotalTime(caffenetRun(prune.NewDegree("conv1", 0.9)), inst, 1, w50k)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "conv1@90%", conv1/60, 16.6, 0.03)
	// Ordering (Observation 2): conv2 gives the largest reduction,
	// conv1 the smallest, even though conv1 has the largest time share.
	if conv2 >= conv1 {
		t.Errorf("conv2@90%% (%v) must be faster than conv1@90%% (%v)", conv2, conv1)
	}
}

func TestFigure8MultiLayerPruning(t *testing.T) {
	// nonpruned 19, conv1-2 ≈13, all-conv ≈11 min (we land 12.5 / 9.8;
	// the shape — strict ordering and super-additive combination — holds).
	s := sim(t)
	inst := p2xl(t)
	non, _ := s.TotalTime(caffenetRun(prune.Degree{}), inst, 1, w50k)
	combo := prune.NewDegree("conv1", 0.3, "conv2", 0.5)
	c12, _ := s.TotalTime(caffenetRun(combo), inst, 1, w50k)
	all := prune.NewDegree("conv1", 0.3, "conv2", 0.5, "conv3", 0.5, "conv4", 0.5, "conv5", 0.5)
	ac, _ := s.TotalTime(caffenetRun(all), inst, 1, w50k)

	within(t, "conv1-2 combo", c12/60, 13, 0.08)
	within(t, "all-conv", ac/60, 11, 0.15)
	if !(ac < c12 && c12 < non) {
		t.Fatalf("ordering broken: %v < %v < %v expected", ac, c12, non)
	}

	// Super-additivity: combined reduction exceeds the sum of individual
	// reductions (Observation 3 mechanism, Figure 8 vs Figure 6).
	c1, _ := s.TotalTime(caffenetRun(prune.NewDegree("conv1", 0.3)), inst, 1, w50k)
	c2, _ := s.TotalTime(caffenetRun(prune.NewDegree("conv2", 0.5)), inst, 1, w50k)
	sumSavings := (non - c1) + (non - c2)
	comboSavings := non - c12
	if comboSavings <= sumSavings {
		t.Errorf("combo savings %v must exceed sum of individual savings %v", comboSavings, sumSavings)
	}
	// And individual values track Figure 8's discussion: 18.4 and 16.7 min.
	within(t, "conv1@30%", c1/60, 18.4, 0.03)
	within(t, "conv2@50%", c2/60, 16.7, 0.04)
}

func TestBatchSaturationCurve(t *testing.T) {
	// Figure 5: total time decreases with parallelism and saturates ≈300.
	s := sim(t)
	k80, _ := s.Device(cloud.K80)
	run := caffenetRun(prune.Degree{})
	total := func(b int) float64 {
		bt, err := s.BatchTime(run, k80, 1, b)
		if err != nil {
			t.Fatal(err)
		}
		return math.Ceil(w50k/float64(b)) * bt
	}
	t1, t30, t100, t300, t2000 := total(1), total(30), total(100), total(300), total(2000)
	if !(t1 > t30 && t30 > t100 && t100 > t300) {
		t.Fatalf("times must decrease with batch: %v %v %v %v", t1, t30, t100, t300)
	}
	// Beyond saturation the curve is flat to within 1%.
	if math.Abs(t300-t2000)/t300 > 0.01 {
		t.Errorf("beyond saturation: %v vs %v", t300, t2000)
	}
	// Before saturation there is still visible improvement (>3% from 100→300).
	if (t100-t300)/t100 < 0.01 {
		t.Errorf("100→300 improvement too small: %v → %v", t100, t300)
	}
}

func TestUtilizationMonotone(t *testing.T) {
	d, _ := New().Device(cloud.K80)
	prev := 0.0
	for _, b := range []int{1, 2, 4, 16, 64, 150, 300, 1000} {
		u := d.Utilization(b)
		if u < prev || u > 1 || (u == prev && prev < 1) {
			t.Fatalf("utilization not monotone in (0,1]: u(%d)=%v prev=%v", b, u, prev)
		}
		prev = u
	}
	if d.Utilization(300) != 1 {
		t.Fatal("u(satBatch) must be 1")
	}
}

func TestM60SpeedFactor(t *testing.T) {
	// Figure 12 calibration: t_M60/t_K80 ≈ 0.485 per GPU.
	s := sim(t)
	k80, _ := s.Device(cloud.K80)
	m60, _ := s.Device(cloud.M60)
	run := caffenetRun(prune.NewDegree("conv1", 0.2, "conv2", 0.2))
	tk, _ := s.BatchTime(run, k80, 1, 300)
	tm, _ := s.BatchTime(run, m60, 1, 300)
	within(t, "M60/K80 ratio", tm/tk, 0.485, 0.02)
}

func TestMultiGPUScaling(t *testing.T) {
	// Within a family, time for the full workload scales ~1/GPUs when the
	// batch scales with GPUs.
	s := sim(t)
	p28, err := cloud.ByName("p2.8xlarge")
	if err != nil {
		t.Fatal(err)
	}
	run := caffenetRun(prune.Degree{})
	t1, _ := s.TotalTime(run, p2xl(t), 1, w50k)
	t8, _ := s.TotalTime(run, p28, 8, w50k)
	ratio := t1 / t8
	if ratio < 6.5 || ratio > 9.5 {
		t.Fatalf("8-GPU speedup = %v, want ~8", ratio)
	}
}

func TestLayerTimesMatchFigure3(t *testing.T) {
	s := sim(t)
	k80, _ := s.Device(cloud.K80)
	net := models.Caffenet()
	if err := net.Init(1); err != nil {
		t.Fatal(err)
	}
	lt, err := s.LayerTimes(ModelRun{ModelName: models.CaffenetName, Degree: prune.Degree{}, Net: net}, k80, 1, 300)
	if err != nil {
		t.Fatal(err)
	}
	shares := map[string]float64{}
	var sum float64
	for _, l := range lt {
		shares[l.Name] = l.Share
		sum += l.Share
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("shares sum to %v", sum)
	}
	want := map[string]float64{"conv1": 0.51, "conv2": 0.16, "conv3": 0.09, "conv4": 0.10, "conv5": 0.07}
	for name, w := range want {
		if math.Abs(shares[name]-w) > 0.005 {
			t.Errorf("%s share = %v, want %v", name, shares[name], w)
		}
	}
}

func TestLayerTimesPrunedReduceOwnShare(t *testing.T) {
	s := sim(t)
	k80, _ := s.Device(cloud.K80)
	net := models.Caffenet()
	if err := net.Init(1); err != nil {
		t.Fatal(err)
	}
	d := prune.NewDegree("conv2", 0.9)
	lt, err := s.LayerTimes(ModelRun{ModelName: models.CaffenetName, Degree: d, Net: net}, k80, 1, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lt {
		if l.Name == "conv2" && l.Share > 0.10 {
			t.Errorf("pruned conv2 share = %v, want well under unpruned 0.16", l.Share)
		}
	}
}

func TestFallbackUncalibratedModel(t *testing.T) {
	// A custom net times via effective FLOPs and speeds up under pruning.
	s := sim(t)
	k80, _ := s.Device(cloud.K80)
	net := nn.NewNet("custom", nn.Shape{C: 3, H: 64, W: 64})
	net.Add(
		nn.NewConv("c1", 16, 3, 3, 1, 1, 1, 1, 1),
		nn.NewReLU("r1"),
		nn.NewConv("c2", 32, 3, 3, 1, 1, 1, 1, 1),
		nn.NewFlatten("f"),
		nn.NewFC("fc", 10),
	)
	if err := net.Init(9); err != nil {
		t.Fatal(err)
	}
	dense, err := s.BatchTime(ModelRun{ModelName: "custom", Net: net}, k80, 1, 300)
	if err != nil {
		t.Fatal(err)
	}
	if err := prune.Apply(net, prune.NewDegree("c2", 0.8), prune.L1Filter); err != nil {
		t.Fatal(err)
	}
	pruned, err := s.BatchTime(ModelRun{ModelName: "custom", Net: net}, k80, 1, 300)
	if err != nil {
		t.Fatal(err)
	}
	if pruned >= dense {
		t.Fatalf("pruned %v must be faster than dense %v", pruned, dense)
	}
	// No net and no calibration → error.
	if _, err := s.BatchTime(ModelRun{ModelName: "mystery"}, k80, 1, 1); err == nil {
		t.Fatal("expected error for uncalibrated model without Net")
	}
}

func TestJitterDeterministicAndCancelledByMin(t *testing.T) {
	s := sim(t)
	k80, _ := s.Device(cloud.K80)
	run := caffenetRun(prune.Degree{})
	base, _ := s.BatchTime(run, k80, 1, 300)
	a1, _ := s.JitteredBatchTime(run, k80, 1, 300, 1)
	a2, _ := s.JitteredBatchTime(run, k80, 1, 300, 1)
	if a1 != a2 {
		t.Fatal("jitter must be deterministic per repetition")
	}
	b1, _ := s.JitteredBatchTime(run, k80, 1, 300, 2)
	if a1 == b1 {
		t.Fatal("different repetitions should jitter differently")
	}
	min := math.Min(base, math.Min(a1, b1))
	if min != base {
		t.Fatal("rep 0 (jitter-free) must be the minimum")
	}
	if a1 < base || a1 > base*1.05 {
		t.Fatalf("jitter out of range: base %v jittered %v", base, a1)
	}
}

func TestResponseBounds(t *testing.T) {
	cal := calibrationFor(models.CaffenetName)
	if cal == nil {
		t.Fatal("caffenet must be calibrated")
	}
	if r := cal.Response(prune.Degree{}); r != 1 {
		t.Fatalf("unpruned response = %v, want 1", r)
	}
	all := prune.Uniform(models.CaffenetConvNames(), 1.0)
	if r := cal.Response(all); r <= 0 || r >= 1 {
		t.Fatalf("full-prune response = %v, want (0,1)", r)
	}
}

func TestInstancePerfAdapter(t *testing.T) {
	s := sim(t)
	inst := p2xl(t)
	perf := InstancePerf{Sim: s, Run: caffenetRun(prune.Degree{})}
	if b := perf.MaxBatch(inst); b != 300 {
		t.Fatalf("MaxBatch = %d, want 300", b)
	}
	p28, _ := cloud.ByName("p2.8xlarge")
	if b := perf.MaxBatch(p28); b != 2400 {
		t.Fatalf("MaxBatch(8 GPU) = %d, want 2400", b)
	}
	one := InstancePerf{Sim: s, Run: caffenetRun(prune.Degree{}), GPUs: 1}
	if b := one.MaxBatch(p28); b != 300 {
		t.Fatalf("MaxBatch(limited to 1 GPU) = %d, want 300", b)
	}
	if perf.BatchTime(inst, 300) <= 0 {
		t.Fatal("BatchTime must be positive")
	}
}

func TestBatchTimeInputValidation(t *testing.T) {
	s := sim(t)
	k80, _ := s.Device(cloud.K80)
	if _, err := s.BatchTime(caffenetRun(prune.Degree{}), k80, 0, 10); err == nil {
		t.Fatal("expected error for 0 GPUs")
	}
	if _, err := s.BatchTime(caffenetRun(prune.Degree{}), k80, 1, 0); err == nil {
		t.Fatal("expected error for 0 batch")
	}
	if _, err := s.TotalTime(caffenetRun(prune.Degree{}), p2xl(t), 2, w50k); err == nil {
		t.Fatal("expected error for more GPUs than the instance has")
	}
}

func TestDeviceForUnknown(t *testing.T) {
	if _, err := DeviceFor(cloud.GPUKind("V100")); err == nil {
		t.Fatal("expected error for unknown GPU kind")
	}
}

// TestJitterDeterministicAcrossSimulators pins the property the engine
// cache's memoization soundness rests on: jittered measurements are a pure
// function of the run identity, with no per-Simulator state — two
// independent simulators agree on every (degree, device, gpus, batch, rep)
// point, so re-evaluating a cache key can never yield a different value.
func TestJitterDeterministicAcrossSimulators(t *testing.T) {
	s1, s2 := New(), New()
	for _, kind := range []cloud.GPUKind{cloud.K80, cloud.M60} {
		d1, err := s1.Device(kind)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := s2.Device(kind)
		if err != nil {
			t.Fatal(err)
		}
		for _, deg := range []prune.Degree{{}, prune.NewDegree("conv1", 0.3), prune.NewDegree("conv1", 0.5, "conv2", 0.7)} {
			run := caffenetRun(deg)
			for rep := 0; rep <= 3; rep++ {
				a, err := s1.JitteredBatchTime(run, d1, 1, 300, rep)
				if err != nil {
					t.Fatal(err)
				}
				b, err := s2.JitteredBatchTime(run, d2, 1, 300, rep)
				if err != nil {
					t.Fatal(err)
				}
				if a != b {
					t.Fatalf("%s %s rep %d: %v vs %v", kind, deg.Label(), rep, a, b)
				}
			}
		}
	}
}

// TestBatchTimeBitStable evaluates one five-layer degree 1,000 times: the
// response folds its per-layer factors in layer order, not map order, so
// every call must give the same bits.
func TestBatchTimeBitStable(t *testing.T) {
	s := sim(t)
	k80, _ := s.Device(cloud.K80)
	run := caffenetRun(prune.NewDegree("conv1", 0.3, "conv2", 0.7, "conv3", 0.1, "conv4", 0.9, "conv5", 0.6))
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		bt, err := s.BatchTime(run, k80, 1, 300)
		if err != nil {
			t.Fatal(err)
		}
		seen[math.Float64bits(bt)] = true
	}
	if len(seen) != 1 {
		t.Fatalf("1000 BatchTime calls gave %d bit patterns, want 1", len(seen))
	}
}
