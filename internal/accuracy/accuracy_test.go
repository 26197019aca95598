package accuracy

import (
	"math"
	"testing"
	"testing/quick"

	"ccperf/internal/models"
	"ccperf/internal/prune"
)

func caffenet(t *testing.T) *Calibrated {
	t.Helper()
	ev, err := NewCalibrated(models.CaffenetName)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func googlenet(t *testing.T) *Calibrated {
	t.Helper()
	ev, err := NewCalibrated(models.GooglenetName)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestUnknownModel(t *testing.T) {
	if _, err := NewCalibrated("resnet"); err == nil {
		t.Fatal("expected error for uncalibrated model")
	}
}

func TestBaselines(t *testing.T) {
	cn := caffenet(t)
	if b := cn.Baseline(); b.Top1 != 0.57 || b.Top5 != 0.80 {
		t.Fatalf("Caffenet baseline = %+v", b)
	}
	gn := googlenet(t)
	if b := gn.Baseline(); b.Top1 != 0.66 || b.Top5 != 0.86 {
		t.Fatalf("Googlenet baseline = %+v", b)
	}
	if cn.ModelName() != models.CaffenetName {
		t.Fatal("ModelName wrong")
	}
}

func TestSweetSpotFlat(t *testing.T) {
	// Observation 1: accuracy unchanged for prune ratios within the
	// sweet-spot (conv3 flat until 50%, Figure 6c).
	ev := caffenet(t)
	base := ev.Baseline()
	for _, r := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5} {
		a, err := ev.Evaluate(prune.NewDegree("conv3", r))
		if err != nil {
			t.Fatal(err)
		}
		if a != base {
			t.Errorf("conv3@%v = %+v, want baseline %+v", r, a, base)
		}
	}
	// Beyond the sweet-spot, accuracy drops.
	a, _ := ev.Evaluate(prune.NewDegree("conv3", 0.7))
	if a.Top5 >= base.Top5 {
		t.Errorf("conv3@0.7 top5 = %v, want < %v", a.Top5, base.Top5)
	}
}

func TestConv1FallsToZero(t *testing.T) {
	// Figure 6a: conv1 Top-5 falls from 80% to 0% at 90% pruning.
	ev := caffenet(t)
	a, err := ev.Evaluate(prune.NewDegree("conv1", 0.9))
	if err != nil {
		t.Fatal(err)
	}
	if a.Top5 > 0.01 || a.Top1 > 0.01 {
		t.Fatalf("conv1@90%% = %+v, want ~0", a)
	}
}

func TestOtherLayersFloorAt25(t *testing.T) {
	// Figure 6: other layers drop to ~25% Top-5 at 90% pruning.
	ev := caffenet(t)
	for _, layer := range []string{"conv2", "conv3", "conv4", "conv5"} {
		a, err := ev.Evaluate(prune.NewDegree(layer, 0.9))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.Top5-0.25) > 0.02 {
			t.Errorf("%s@90%% top5 = %v, want ~0.25", layer, a.Top5)
		}
	}
}

func TestMonotoneInRatio(t *testing.T) {
	ev := caffenet(t)
	for _, layer := range []string{"conv1", "conv2"} {
		prev := 2.0
		for r := 0.0; r <= 0.95; r += 0.05 {
			a, err := ev.Evaluate(prune.NewDegree(layer, r))
			if err != nil {
				t.Fatal(err)
			}
			if a.Top5 > prev+1e-9 {
				t.Fatalf("%s: top5 not monotone at r=%v", layer, r)
			}
			prev = a.Top5
		}
	}
}

func TestFigure8MultiLayerAccuracy(t *testing.T) {
	// conv1@30+conv2@50 → Top-5 70% (10-point drop);
	// all five conv at sweet-spots → Top-5 62% (18-point drop).
	ev := caffenet(t)
	c12, err := ev.Evaluate(prune.NewDegree("conv1", 0.3, "conv2", 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c12.Top5-0.70) > 0.015 {
		t.Errorf("conv1-2 top5 = %v, want 0.70", c12.Top5)
	}
	all, err := ev.Evaluate(prune.NewDegree(
		"conv1", 0.3, "conv2", 0.5, "conv3", 0.5, "conv4", 0.5, "conv5", 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(all.Top5-0.62) > 0.015 {
		t.Errorf("all-conv top5 = %v, want 0.62", all.Top5)
	}
	if !(all.Top5 < c12.Top5 && c12.Top5 < ev.Baseline().Top5) {
		t.Error("multi-layer accuracy ordering broken")
	}
}

func TestGooglenetSweetSpotAt60(t *testing.T) {
	// Figure 7: Googlenet accuracy starts dropping only after 60% pruning.
	ev := googlenet(t)
	base := ev.Baseline()
	for _, layer := range models.GooglenetSelectedConvNames() {
		a, err := ev.Evaluate(prune.NewDegree(layer, 0.6))
		if err != nil {
			t.Fatal(err)
		}
		if a != base {
			t.Errorf("%s@60%% = %+v, want baseline", layer, a)
		}
		a, _ = ev.Evaluate(prune.NewDegree(layer, 0.8))
		if a.Top5 >= base.Top5 {
			t.Errorf("%s@80%% should drop below baseline", layer)
		}
	}
}

func TestTop1NeverExceedsTop5(t *testing.T) {
	ev := caffenet(t)
	f := func(r1, r2, r3 uint8) bool {
		d := prune.NewDegree(
			"conv1", float64(r1%10)/10,
			"conv2", float64(r2%10)/10,
			"conv3", float64(r3%10)/10,
		)
		a, err := ev.Evaluate(d)
		if err != nil {
			return false
		}
		return a.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding pruning to a second layer never increases accuracy.
func TestMultiLayerMonotoneProperty(t *testing.T) {
	ev := caffenet(t)
	f := func(r1, r2 uint8) bool {
		a := float64(r1%10) / 10
		b := float64(r2%10) / 10
		single, err := ev.Evaluate(prune.NewDegree("conv2", a))
		if err != nil {
			return false
		}
		both, err := ev.Evaluate(prune.NewDegree("conv2", a, "conv4", b))
		if err != nil {
			return false
		}
		return both.Top5 <= single.Top5+1e-9 && both.Top1 <= single.Top1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantization(t *testing.T) {
	ev := caffenet(t)
	a, err := ev.Evaluate(prune.NewDegree("conv2", 0.63))
	if err != nil {
		t.Fatal(err)
	}
	// Whole-percent quantization: value×100 must be an integer.
	for _, v := range []float64{a.Top1, a.Top5} {
		if math.Abs(v*100-math.Round(v*100)) > 1e-9 {
			t.Fatalf("accuracy %v not quantized to 1%%", v)
		}
	}
	// Custom quantum.
	ev.Quantum = 0.05
	a, _ = ev.Evaluate(prune.NewDegree("conv2", 0.63))
	if math.Abs(a.Top5*20-math.Round(a.Top5*20)) > 1e-9 {
		t.Fatalf("accuracy %v not quantized to 5%%", a.Top5)
	}
}

func TestInvalidDegree(t *testing.T) {
	ev := caffenet(t)
	if _, err := ev.Evaluate(prune.NewDegree("conv1", 1.5)); err == nil {
		t.Fatal("expected error for ratio > 1")
	}
}

func TestCurveLookup(t *testing.T) {
	ev := caffenet(t)
	if c := ev.Curve("conv1"); c.Threshold != 0.30 {
		t.Fatalf("conv1 threshold = %v", c.Threshold)
	}
	// Unknown layer gets the fallback curve.
	if c := ev.Curve("conv99"); c.Threshold != 0.50 {
		t.Fatalf("fallback threshold = %v", c.Threshold)
	}
}

func TestTopKValid(t *testing.T) {
	if !(TopK{Top1: 0.5, Top5: 0.8}).Valid() {
		t.Fatal("valid TopK rejected")
	}
	if (TopK{Top1: 0.9, Top5: 0.8}).Valid() {
		t.Fatal("top1 > top5 accepted")
	}
	if (TopK{Top1: -0.1, Top5: 0.5}).Valid() {
		t.Fatal("negative accepted")
	}
}

// TestEvaluateBitStable evaluates one five-layer degree 1,000 times with a
// quantum of 2^-60, fine enough to keep every bit of the fold: the drops
// are summed in layer order, not map order, so every call must agree.
func TestEvaluateBitStable(t *testing.T) {
	ev := caffenet(t)
	ev.Quantum = 0x1p-60
	d := prune.NewDegree("conv1", 0.4, "conv2", 0.7, "conv3", 0.2, "conv4", 0.2, "conv5", 0.6)
	seen := map[[2]uint64]bool{}
	for i := 0; i < 1000; i++ {
		a, err := ev.Evaluate(d)
		if err != nil {
			t.Fatal(err)
		}
		seen[[2]uint64{math.Float64bits(a.Top1), math.Float64bits(a.Top5)}] = true
	}
	if len(seen) != 1 {
		t.Fatalf("1000 Evaluate calls gave %d bit patterns, want 1", len(seen))
	}
}
