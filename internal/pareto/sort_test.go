package pareto

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// referenceFrontier is Frontier as it was built on sort.SliceStable and
// sort.Slice.
func referenceFrontier(points []Point) []Point {
	if len(points) == 0 {
		return nil
	}
	sorted := append([]Point(nil), points...)
	sort.SliceStable(sorted, func(a, b int) bool {
		if sorted[a].Accuracy != sorted[b].Accuracy {
			return sorted[a].Accuracy > sorted[b].Accuracy
		}
		return sorted[a].Objective < sorted[b].Objective
	})
	var out []Point
	bestObj := sorted[0].Objective
	lastAcc := sorted[0].Accuracy
	out = append(out, sorted[0])
	for _, p := range sorted[1:] {
		if p.Accuracy == lastAcc {
			continue
		}
		if p.Objective < bestObj {
			out = append(out, p)
			bestObj = p.Objective
			lastAcc = p.Accuracy
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Accuracy < out[b].Accuracy })
	return out
}

// TestFrontierMatchesSortReference draws heavily tied points (a few
// accuracies and objectives, some NaN) so that which tied member survives
// depends on the sorts' exact orders.
func TestFrontierMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pick := func(levels int) float64 {
		if rng.Intn(50) == 0 {
			return math.NaN()
		}
		return float64(rng.Intn(levels)) / float64(levels)
	}
	for i := 0; i < 3000; i++ {
		n := rng.Intn(200)
		if i%100 == 0 {
			n = 5000
		}
		pts := make([]Point, n)
		for j := range pts {
			pts[j] = Point{Accuracy: pick(1 + rng.Intn(30)), Objective: pick(1 + rng.Intn(60)), Payload: j}
		}
		got, want := Frontier(pts), referenceFrontier(pts)
		if len(got) != len(want) {
			t.Fatalf("case %d (%d points): %d members, want %d", i, n, len(got), len(want))
		}
		for k := range want {
			g, w := got[k], want[k]
			if g.Payload != w.Payload || math.Float64bits(g.Accuracy) != math.Float64bits(w.Accuracy) ||
				math.Float64bits(g.Objective) != math.Float64bits(w.Objective) {
				t.Fatalf("case %d (%d points): member %d = %+v, want %+v", i, n, k, g, w)
			}
		}
	}
}
