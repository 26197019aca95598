// Package pareto implements the Pareto-optimization filter of Section 3.4:
// among feasible (accuracy, objective) points — objective being execution
// time or cost — it extracts the configurations for which no other
// configuration has both higher accuracy and lower objective.
package pareto

import (
	"slices"
	"sort"
)

// Point is one candidate: maximize Accuracy, minimize Objective. Payload
// carries the caller's configuration identity through the filter.
type Point struct {
	Accuracy  float64
	Objective float64
	Payload   any
}

// Dominates reports whether p dominates q: at least as good in both
// dimensions and strictly better in one.
func Dominates(p, q Point) bool {
	if p.Accuracy < q.Accuracy || p.Objective > q.Objective {
		return false
	}
	return p.Accuracy > q.Accuracy || p.Objective < q.Objective
}

// Frontier returns the Pareto-optimal subset of points, sorted by
// ascending accuracy. Duplicate (accuracy, objective) pairs collapse to
// the first occurrence.
func Frontier(points []Point) []Point {
	if len(points) == 0 {
		return nil
	}
	sorted := append([]Point(nil), points...)
	// Sort by accuracy descending; ties by objective ascending so the best
	// of each accuracy level comes first.
	slices.SortStableFunc(sorted, func(a, b Point) int {
		if a.Accuracy != b.Accuracy {
			if a.Accuracy > b.Accuracy {
				return -1
			}
			return 1
		}
		return compare(a.Objective, b.Objective)
	})
	var out []Point
	bestObj := sorted[0].Objective
	lastAcc := sorted[0].Accuracy
	out = append(out, sorted[0])
	for _, p := range sorted[1:] {
		if p.Accuracy == lastAcc {
			continue // same accuracy, objective can't be lower (sorted)
		}
		if p.Objective < bestObj {
			out = append(out, p)
			bestObj = p.Objective
			lastAcc = p.Accuracy
		}
	}
	slices.SortFunc(out, func(a, b Point) int { return compare(a.Accuracy, b.Accuracy) })
	return out
}

// compare orders x before y exactly when x < y. Unlike cmp.Compare it does
// not put NaN first: a NaN compares equal to everything, as it does under a
// less-than test, so the sorts keep the orders they had under sort.Slice.
func compare(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// IsOptimal reports whether p is non-dominated within points.
func IsOptimal(p Point, points []Point) bool {
	for _, q := range points {
		if Dominates(q, p) {
			return false
		}
	}
	return true
}

// Point3 is a three-objective candidate: maximize Accuracy, minimize both
// Time and Cost — the joint trade-off a cloud consumer actually faces when
// neither constraint alone binds.
type Point3 struct {
	Accuracy   float64
	Time, Cost float64
	Payload    any
}

// Dominates3 reports whether p dominates q in the (accuracy↑, time↓,
// cost↓) order: no worse in all three and strictly better in at least one.
func Dominates3(p, q Point3) bool {
	if p.Accuracy < q.Accuracy || p.Time > q.Time || p.Cost > q.Cost {
		return false
	}
	return p.Accuracy > q.Accuracy || p.Time < q.Time || p.Cost < q.Cost
}

// Frontier3 returns the non-dominated subset under Dominates3, sorted by
// descending accuracy then ascending time. Exact duplicates collapse to
// the first occurrence. The sweep is O(n²) in the worst case but prunes
// via the accuracy-sorted order (a point can only be dominated by points
// with accuracy ≥ its own).
func Frontier3(points []Point3) []Point3 {
	if len(points) == 0 {
		return nil
	}
	sorted := append([]Point3(nil), points...)
	sort.SliceStable(sorted, func(a, b int) bool {
		if sorted[a].Accuracy != sorted[b].Accuracy {
			return sorted[a].Accuracy > sorted[b].Accuracy
		}
		if sorted[a].Time != sorted[b].Time {
			return sorted[a].Time < sorted[b].Time
		}
		return sorted[a].Cost < sorted[b].Cost
	})
	var out []Point3
	for _, p := range sorted {
		dominated := false
		for _, q := range out {
			if Dominates3(q, p) || (q.Accuracy == p.Accuracy && q.Time == p.Time && q.Cost == p.Cost) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}
