package prune

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// fmtLabel is Label as an fmt.Sprintf formula: every positive ratio as
// layer@percent, percent rounded to one decimal, sorted by layer.
func fmtLabel(d Degree) string {
	var parts []string
	for k, v := range d.Ratios {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s@%g", k, math.Round(v*1000)/10))
		}
	}
	if len(parts) == 0 {
		return "nonpruned"
	}
	sort.Slice(parts, func(a, b int) bool {
		ka, _, _ := strings.Cut(parts[a], "@")
		kb, _, _ := strings.Cut(parts[b], "@")
		return ka < kb
	})
	return strings.Join(parts, "+")
}

func TestLabelMatchesFmtFormula(t *testing.T) {
	for i := 0; i <= 2000; i++ {
		r := float64(i) * 0.0005
		for _, d := range []Degree{NewDegree("conv1", r), NewDegree("conv2", r, "conv1", 1-r)} {
			if got, want := d.Label(), fmtLabel(d); got != want {
				t.Fatalf("Label(%v) = %q, want %q", d.Ratios, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	names := []string{"conv1", "conv2", "conv3", "conv4", "conv5", "fc6", "inception_3a", "a", "b+c", "Z"}
	special := []float64{0, 1, -0.2, math.Inf(1), math.NaN(), 1e-9, 0.00049999, 0.0005, 2.5, 123456789}
	for i := 0; i < 20000; i++ {
		d := Degree{Ratios: map[string]float64{}}
		for _, n := range names {
			switch rng.Intn(4) {
			case 0:
				d.Ratios[n] = rng.Float64()
			case 1:
				d.Ratios[n] = special[rng.Intn(len(special))]
			}
		}
		if got, want := d.Label(), fmtLabel(d); got != want {
			t.Fatalf("Label(%v) = %q, want %q", d.Ratios, got, want)
		}
	}
}

func TestLabelTopRungAllocatesNothing(t *testing.T) {
	d := Uniform([]string{"conv1", "conv2"}, 0)
	if n := testing.AllocsPerRun(100, func() { _ = d.Label() }); n != 0 {
		t.Fatalf("Label of %v allocates %v times, want 0", d.Ratios, n)
	}
}

func TestLayersSorted(t *testing.T) {
	d := NewDegree("conv5", 0.1, "conv1", 0.0, "conv3", 0.5, "conv2", 0.2)
	if got, want := d.Layers(), []string{"conv1", "conv2", "conv3", "conv5"}; !slices.Equal(got, want) {
		t.Fatalf("Layers = %v, want %v", got, want)
	}
	if got := (Degree{}).Layers(); len(got) != 0 {
		t.Fatalf("empty Layers = %v", got)
	}
}

func TestNaNRatioRejected(t *testing.T) {
	if d, err := ParseDegree("conv1@NaN"); err == nil {
		t.Fatalf("ParseDegree(conv1@NaN) = %q, want an error", d.Label())
	}
	if err := NewDegree("conv1", math.NaN()).Validate(); err == nil {
		t.Fatal("Validate accepts a NaN ratio")
	}
	if err := Weights(nil, math.NaN(), L1Filter); err == nil {
		t.Fatal("Weights accepts a NaN ratio")
	}
}

// FuzzParseDegree checks the CLI's degree grammar: parsing never panics,
// an accepted degree has every ratio in [0,1], and its label parses back to
// itself. A ratio under 0.05% prints as @0, which reads back as unpruned,
// so those elements drop out of the second label.
func FuzzParseDegree(f *testing.F) {
	for _, s := range []string{
		"", "nonpruned", "conv1@NaN", "conv1@30", "conv1@30+conv2@50", "conv1@12.5+conv3@100",
		" conv2 @ 7.5 + conv1@0", "conv1@-0", "conv1@0.01", "conv1@1e2", "conv1@0x1p-3", "conv1@+Inf",
		"conv1@30+conv1@40", "@30", "conv1", "conv1@x", "conv1@150", "a@1@2", "conv1@30+",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseDegree(s)
		if err != nil {
			return
		}
		for k, v := range d.Ratios {
			if !(v >= 0 && v <= 1) {
				t.Fatalf("ParseDegree(%q) accepted %s = %v", s, k, v)
			}
		}
		label := d.Label()
		back, err := ParseDegree(label)
		if err != nil {
			t.Fatalf("ParseDegree(%q) of the label of %q: %v", label, s, err)
		}
		var want []string
		for _, part := range strings.Split(label, "+") {
			if !strings.HasSuffix(part, "@0") {
				want = append(want, part)
			}
		}
		if len(want) == 0 {
			want = []string{"nonpruned"}
		}
		if got := back.Label(); got != strings.Join(want, "+") {
			t.Fatalf("label %q of %q parses back as %q", label, s, got)
		}
	})
}
