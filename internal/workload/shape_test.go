package workload

import (
	"math"
	"sort"
	"strings"
	"testing"
)

// identical asserts two float slices are bit-for-bit equal.
func identical(t *testing.T, a, b []float64, what string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: lengths differ: %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: element %d differs: %v vs %v", what, i, a[i], b[i])
		}
	}
}

// TestShapedArrivalsDeterministic mirrors TestArrivalTimesDeterministic
// for the shaped generator: same seed → bit-identical arrivals, distinct
// seeds differ.
func TestShapedArrivalsDeterministic(t *testing.T) {
	shapes := []Shape{
		Sinusoid{Amplitude: 0.6, Peak: 0.75},
		FlashCrowd{At: 0.7, Ramp: 0.05, Hold: 0.1, Mult: 5},
	}
	a := ShapedArrivals(2000, 60, shapes, 42)
	b := ShapedArrivals(2000, 60, shapes, 42)
	identical(t, a, b, "same seed")
	c := ShapedArrivals(2000, 60, shapes, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical arrivals")
	}
}

func TestShapedArrivalsInvariants(t *testing.T) {
	shapes := []Shape{FlashCrowd{At: 0.5, Ramp: 0.1, Hold: 0.2, Mult: 8}}
	out := ShapedArrivals(5000, 120, shapes, 7)
	if len(out) != 5000 {
		t.Fatalf("got %d arrivals, want 5000 (shapes must conserve total)", len(out))
	}
	if !sort.Float64sAreSorted(out) {
		t.Fatal("arrivals not sorted")
	}
	for _, v := range out {
		if v < 0 || v >= 120 {
			t.Fatalf("arrival %v outside [0,120)", v)
		}
	}
	// The flash plateau [0.6,0.7] must be ~8× denser than the flat tail.
	inWindow := func(ts []float64, lo, hi float64) int {
		n := 0
		for _, v := range ts {
			if v >= lo && v < hi {
				n++
			}
		}
		return n
	}
	plateau := inWindow(out, 0.6*120, 0.7*120)
	flat := inWindow(out, 0.0, 0.1*120)
	if plateau < 4*flat {
		t.Fatalf("plateau density %d vs flat %d: flash crowd not expressed", plateau, flat)
	}
	// Edge cases.
	if got := ShapedArrivals(0, 10, shapes, 1); got != nil {
		t.Fatalf("zero total: %v", got)
	}
	if got := ShapedArrivals(10, 0, shapes, 1); got != nil {
		t.Fatalf("zero duration: %v", got)
	}
	// No shapes degrades to a uniform trace.
	uni := ShapedArrivals(100, 10, nil, 3)
	if len(uni) != 100 || !sort.Float64sAreSorted(uni) {
		t.Fatalf("uniform fallback broken: %d arrivals", len(uni))
	}
}

func TestSinusoidIntensity(t *testing.T) {
	s := Sinusoid{Amplitude: 0.6, Peak: 0.75}
	if got := s.Intensity(0.75); math.Abs(got-1.6) > 1e-12 {
		t.Fatalf("peak intensity %v, want 1.6", got)
	}
	if got := s.Intensity(0.25); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("trough intensity %v, want 0.4", got)
	}
	// Matches diurnalWeights' functional form at the window midpoints.
	w := diurnalWeights(24)
	for i := range w {
		u := float64(i) / 24
		if got := s.Intensity(u); math.Abs(got-w[i]) > 1e-9 {
			t.Fatalf("window %d: Sinusoid %v vs diurnalWeights %v", i, got, w[i])
		}
	}
}

func TestFlashCrowdIntensity(t *testing.T) {
	f := FlashCrowd{At: 0.5, Ramp: 0.1, Hold: 0.2, Mult: 5}
	for _, tc := range []struct {
		u, want float64
	}{
		{0.0, 1}, {0.49, 1}, // before
		{0.55, 3},           // mid-ramp
		{0.6, 5}, {0.79, 5}, // plateau
		{0.85, 3},          // mid-fall
		{0.9, 1}, {1.0, 1}, // after
	} {
		if got := f.Intensity(tc.u); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Intensity(%v) = %v, want %v", tc.u, got, tc.want)
		}
	}
	// Mult ≤ 1 and zero-width ramps stay well-defined.
	if got := (FlashCrowd{At: 0.5, Mult: 0.5}).Intensity(0.5); got != 1 {
		t.Fatalf("sub-unit Mult intensity %v, want 1", got)
	}
	step := FlashCrowd{At: 0.5, Hold: 0.2, Mult: 4}
	if got := step.Intensity(0.5); got != 4 {
		t.Fatalf("zero-ramp rising edge %v, want 4", got)
	}
}

// TestAssignRegionsDeterministic: same seed → identical assignment,
// distinct seeds differ — the region generator's half of the satellite.
func TestAssignRegionsDeterministic(t *testing.T) {
	weights := []float64{4, 2, 1, 1}
	a := AssignRegions(3000, weights, 0.8, 42)
	b := AssignRegions(3000, weights, 0.8, 42)
	if len(a) != 3000 || len(b) != 3000 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("assignment %d differs: %d vs %d", i, a[i], b[i])
		}
	}
	c := AssignRegions(3000, weights, 0.8, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical assignments")
	}
}

func TestAssignRegionsSkewAndCorrelation(t *testing.T) {
	weights := []float64{3, 1}
	iid := AssignRegions(20000, weights, 0, 9)
	counts := [2]int{}
	for _, r := range iid {
		if r < 0 || r > 1 {
			t.Fatalf("region index %d out of range", r)
		}
		counts[r]++
	}
	// 3:1 skew should land near 75/25.
	frac := float64(counts[0]) / 20000
	if frac < 0.72 || frac > 0.78 {
		t.Fatalf("region 0 fraction %v, want ≈0.75", frac)
	}
	// Correlation lengthens same-region runs: count transitions.
	runs := func(assign []int) int {
		n := 1
		for i := 1; i < len(assign); i++ {
			if assign[i] != assign[i-1] {
				n++
			}
		}
		return n
	}
	sticky := AssignRegions(20000, weights, 0.9, 9)
	if runs(sticky) >= runs(iid)/2 {
		t.Fatalf("corr=0.9 runs %d not much fewer than iid runs %d", runs(sticky), runs(iid))
	}
	// Edge cases.
	if got := AssignRegions(0, weights, 0.5, 1); got != nil {
		t.Fatalf("n=0: %v", got)
	}
	if got := AssignRegions(5, nil, 0.5, 1); got != nil {
		t.Fatalf("no weights: %v", got)
	}
	// All-zero weights fall back to uniform rather than panicking.
	uni := AssignRegions(100, []float64{0, 0}, 0.5, 1)
	if len(uni) != 100 {
		t.Fatalf("zero-weight fallback: %d", len(uni))
	}
}

func TestShapeLabel(t *testing.T) {
	if got := ShapeLabel(nil); got != "uniform" {
		t.Fatalf("empty label %q", got)
	}
	got := ShapeLabel([]Shape{Sinusoid{Amplitude: 0.6, Peak: 0.75}, FlashCrowd{At: 0.7, Ramp: 0.05, Hold: 0.1, Mult: 5}})
	for _, want := range []string{"sinusoid", "flash", "·"} {
		if !strings.Contains(got, want) {
			t.Fatalf("label %q missing %q", got, want)
		}
	}
}

// TestParseShapes: the documented forms parse to their shapes, and a
// malformed, out-of-range or non-finite number is an error naming its
// term.
func TestParseShapes(t *testing.T) {
	got, err := ParseShapes("diurnal:0.5@0.25x2, flash:0.5+0.05+0.2x4")
	if err != nil {
		t.Fatal(err)
	}
	want := []Shape{Sinusoid{Amplitude: 0.5, Peak: 0.25, Cycles: 2}, FlashCrowd{At: 0.5, Ramp: 0.05, Hold: 0.2, Mult: 4}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for _, spec := range []string{"", "uniform"} {
		if s, err := ParseShapes(spec); err != nil || s != nil {
			t.Fatalf("%q: %v, %v; want uniform", spec, s, err)
		}
	}
	for _, c := range []struct{ spec, term string }{
		{"diurnal:Inf", "diurnal:Inf"},
		{"diurnal:0.6@NaN", "diurnal:0.6@NaN"},
		{"diurnal:0.6x-1", "diurnal:0.6x-1"},
		{"diurnal:1.5", "diurnal:1.5"},
		{"flash:0.5+0.05+0.2xNaN", "flash:0.5+0.05+0.2xNaN"},
		{"diurnal, flash:0.5+inf+0.2x2", "flash:0.5+inf+0.2x2"},
		{"flash:0.5+0.05x2", "flash:0.5+0.05x2"},
		{"flash:0.5+0.05+0.2", "flash:0.5+0.05+0.2"},
		{"spike:1", "spike:1"},
	} {
		_, err := ParseShapes(c.spec)
		if err == nil || !strings.Contains(err.Error(), c.term) {
			t.Errorf("%q: error %v, want one naming %q", c.spec, err, c.term)
		}
	}
}

func TestParseOriginWeights(t *testing.T) {
	if w, err := ParseOriginWeights("1, 0,2.5", 3); err != nil || len(w) != 3 || w[2] != 2.5 {
		t.Fatalf("ParseOriginWeights = %v, %v", w, err)
	}
	if w, err := ParseOriginWeights(" ", 2); err != nil || w != nil {
		t.Fatalf("empty spec = %v, %v; want uniform", w, err)
	}
	for _, spec := range []string{"NaN,1", "1,+Inf", "-1,1", "1,x", "1"} {
		if _, err := ParseOriginWeights(spec, 2); err == nil {
			t.Errorf("%q: expected an error", spec)
		}
	}
}

// FuzzParseShapes: no spec panics ParseShapes, and any spec it accepts
// gives ShapedArrivals times that are finite, sorted and in [0, duration).
func FuzzParseShapes(f *testing.F) {
	for _, s := range []string{
		"", "uniform", "diurnal", "diurnal:0.6@0.75", "diurnal:1@0x1000000",
		"flash:0.5+0.05+0.2x4", "diurnal:0.3x3,flash:0.7+0+0.1x1000",
		"diurnal:Inf", "flash:0.5+0.05+0.2xNaN", "flash:1e-320+1+1x1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		shapes, err := ParseShapes(spec)
		if err != nil {
			return
		}
		const duration = 3.0
		times := ShapedArrivals(100, duration, shapes, 1)
		if len(times) != 100 {
			t.Fatalf("%q: %d arrivals, want 100", spec, len(times))
		}
		for i, at := range times {
			if math.IsNaN(at) || at < 0 || at >= duration {
				t.Fatalf("%q: arrival %d at %v, outside [0, %v)", spec, i, at, duration)
			}
			if i > 0 && at < times[i-1] {
				t.Fatalf("%q: arrival %d at %v before %v", spec, i, at, times[i-1])
			}
		}
	})
}
