// Package prune implements the CNN pruning algorithms the paper surveys and
// uses as its accuracy-tuning tool (Section 3.2.1): L1-norm filter pruning
// (Li et al., the method the paper adopts), element-magnitude pruning,
// structured-score pruning (Anwar et al.) and greedy cost-function pruning
// (Huang et al.). It also defines Degree — a per-layer prune-ratio
// assignment, the paper's "degree of pruning" — and generators for spaces
// of degrees.
package prune

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"ccperf/internal/nn"
	"ccperf/internal/tensor"
)

// Method selects a pruning algorithm.
type Method int

// Supported pruning methods.
const (
	// L1Filter removes whole filters (weight-matrix rows) with the
	// smallest L1 norms — Li et al. [17], the paper's choice.
	L1Filter Method = iota
	// Magnitude zeroes the individually smallest-magnitude weights.
	Magnitude
	// StructuredScore removes filters ranked by a combined L1/L2/max
	// score, after Anwar et al. [3].
	StructuredScore
	// GreedyCost removes filters one at a time, each step dropping the
	// filter whose removal minimizes a norm-per-work cost function,
	// after Huang et al. [13].
	GreedyCost
)

// String returns the method name.
func (m Method) String() string {
	switch m {
	case L1Filter:
		return "l1-filter"
	case Magnitude:
		return "magnitude"
	case StructuredScore:
		return "structured-score"
	case GreedyCost:
		return "greedy-cost"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// ParseMethod parses a method name as produced by String.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "l1-filter":
		return L1Filter, nil
	case "magnitude":
		return Magnitude, nil
	case "structured-score":
		return StructuredScore, nil
	case "greedy-cost":
		return GreedyCost, nil
	default:
		return 0, fmt.Errorf("prune: unknown method %q", s)
	}
}

// Layer prunes a single prunable layer's weights in place by ratio∈[0,1]
// using the given method, then rebuilds its sparse execution path.
func Layer(p nn.Prunable, ratio float64, m Method) error {
	if !(ratio >= 0 && ratio <= 1) {
		return fmt.Errorf("prune: ratio %v out of [0,1] for layer %q", ratio, p.Name())
	}
	if ratio == 0 {
		return nil
	}
	w := p.Weights()
	if w == nil {
		return fmt.Errorf("prune: layer %q has no weights (not initialized)", p.Name())
	}
	if err := Weights(w, ratio, m); err != nil {
		return fmt.Errorf("prune: layer %q: %w", p.Name(), err)
	}
	p.Rebuild()
	return nil
}

// Weights prunes a filter-major weight matrix in place by ratio using the
// given method. It is the matrix-level core of Layer, exposed for weight
// stores outside the nn layer system (e.g. the trainable network in
// internal/train).
func Weights(w *tensor.Matrix, ratio float64, m Method) error {
	if !(ratio >= 0 && ratio <= 1) {
		return fmt.Errorf("prune: ratio %v out of [0,1]", ratio)
	}
	if ratio == 0 {
		return nil
	}
	switch m {
	case L1Filter:
		pruneFiltersByScore(w, ratio, l1Row)
	case Magnitude:
		pruneMagnitude(w, ratio)
	case StructuredScore:
		pruneFiltersByScore(w, ratio, structuredRow)
	case GreedyCost:
		pruneGreedyCost(w, ratio)
	default:
		return fmt.Errorf("prune: unknown method %v", m)
	}
	return nil
}

func l1Row(row []float32) float64 {
	var s float64
	for _, v := range row {
		s += math.Abs(float64(v))
	}
	return s
}

// structuredRow blends L1, L2 and max-magnitude, a simplified version of
// the multi-criteria particle scoring of Anwar et al.
func structuredRow(row []float32) float64 {
	var l1, l2 float64
	var mx float64
	for _, v := range row {
		a := math.Abs(float64(v))
		l1 += a
		l2 += a * a
		if a > mx {
			mx = a
		}
	}
	n := float64(len(row))
	if n == 0 {
		return 0
	}
	return 0.5*l1/n + 0.3*math.Sqrt(l2/n) + 0.2*mx
}

// pruneFiltersByScore zeroes the ratio fraction of rows with the lowest
// scores. Rows already all-zero count toward the target.
func pruneFiltersByScore(w *tensor.Matrix, ratio float64, score func([]float32) float64) {
	n := w.Rows
	k := int(math.Round(ratio * float64(n)))
	if k <= 0 {
		return
	}
	if k > n {
		k = n
	}
	type rs struct {
		i int
		s float64
	}
	rows := make([]rs, n)
	for i := 0; i < n; i++ {
		rows[i] = rs{i, score(w.Row(i))}
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].s != rows[b].s {
			return rows[a].s < rows[b].s
		}
		return rows[a].i < rows[b].i
	})
	for _, r := range rows[:k] {
		row := w.Row(r.i)
		for j := range row {
			row[j] = 0
		}
	}
}

// pruneMagnitude zeroes the smallest-|w| elements so that the overall
// sparsity reaches at least ratio.
func pruneMagnitude(w *tensor.Matrix, ratio float64) {
	total := len(w.Data)
	target := int(math.Round(ratio * float64(total)))
	zero := total - nnz(w.Data)
	need := target - zero
	if need <= 0 {
		return
	}
	type ev struct {
		i int
		a float32
	}
	elems := make([]ev, 0, nnz(w.Data))
	for i, v := range w.Data {
		if v != 0 {
			a := v
			if a < 0 {
				a = -a
			}
			elems = append(elems, ev{i, a})
		}
	}
	sort.Slice(elems, func(a, b int) bool {
		if elems[a].a != elems[b].a {
			return elems[a].a < elems[b].a
		}
		return elems[a].i < elems[b].i
	})
	if need > len(elems) {
		need = len(elems)
	}
	for _, e := range elems[:need] {
		w.Data[e.i] = 0
	}
}

// pruneGreedyCost iteratively removes the filter minimizing
// score/workShare, modeling Huang et al.'s combinatorial objective with a
// greedy relaxation: prefer filters that contribute little norm relative
// to the uniform work each filter costs.
func pruneGreedyCost(w *tensor.Matrix, ratio float64) {
	n := w.Rows
	k := int(math.Round(ratio * float64(n)))
	if k <= 0 {
		return
	}
	if k > n {
		k = n
	}
	removed := make([]bool, n)
	for step := 0; step < k; step++ {
		best := -1
		bestCost := math.Inf(1)
		for i := 0; i < n; i++ {
			if removed[i] {
				continue
			}
			// Work share is uniform per filter; norm contribution varies.
			// Cost of keeping = norm contribution / work saved if removed.
			c := l1Row(w.Row(i))
			if c < bestCost {
				best, bestCost = i, c
			}
		}
		if best < 0 {
			return
		}
		removed[best] = true
		row := w.Row(best)
		for j := range row {
			row[j] = 0
		}
	}
}

func nnz(d []float32) int {
	n := 0
	for _, v := range d {
		if v != 0 {
			n++
		}
	}
	return n
}

// Degree is the paper's "degree of pruning": a per-layer prune-ratio
// assignment for one CNN. A nil/empty map is the unpruned model.
type Degree struct {
	// Ratios maps layer name → prune ratio in [0,1].
	Ratios map[string]float64
}

// NewDegree builds a Degree from layer/ratio pairs.
func NewDegree(pairs ...any) Degree {
	if len(pairs)%2 != 0 {
		panic("prune: NewDegree needs name/ratio pairs")
	}
	d := Degree{Ratios: make(map[string]float64, len(pairs)/2)}
	for i := 0; i < len(pairs); i += 2 {
		d.Ratios[pairs[i].(string)] = pairs[i+1].(float64)
	}
	return d
}

// Uniform returns a Degree pruning each named layer by the same ratio.
func Uniform(layers []string, ratio float64) Degree {
	d := Degree{Ratios: make(map[string]float64, len(layers))}
	for _, l := range layers {
		d.Ratios[l] = ratio
	}
	return d
}

// Ratio returns the prune ratio for a layer (0 if unlisted).
func (d Degree) Ratio(layer string) float64 { return d.Ratios[layer] }

// IsUnpruned reports whether every ratio is zero.
func (d Degree) IsUnpruned() bool {
	for _, r := range d.Ratios {
		if r > 0 {
			return false
		}
	}
	return true
}

// Layers returns the degree's layer names in ascending order, zero ratios
// included. Every float fold over Ratios runs in this order: map order
// changes from call to call, and so would the rounding of the fold.
func (d Degree) Layers() []string {
	layers := make([]string, 0, len(d.Ratios))
	for k := range d.Ratios {
		layers = append(layers, k)
	}
	sort.Strings(layers)
	return layers
}

// Label renders a stable human-readable identifier, e.g.
// "conv1@30+conv2@50" or "nonpruned". It is the key of every engine cache
// entry, and a degree with no positive ratio labels without allocating.
func (d Degree) Label() string {
	if d.IsUnpruned() {
		return "nonpruned"
	}
	buf := make([]byte, 0, 64)
	for _, k := range d.Layers() {
		if v := d.Ratios[k]; v > 0 {
			if len(buf) > 0 {
				buf = append(buf, '+')
			}
			buf = append(buf, k...)
			buf = append(buf, '@')
			buf = strconv.AppendFloat(buf, math.Round(v*1000)/10, 'g', -1, 64)
		}
	}
	return string(buf)
}

// Clone deep-copies the degree.
func (d Degree) Clone() Degree {
	c := Degree{Ratios: make(map[string]float64, len(d.Ratios))}
	for k, v := range d.Ratios {
		c.Ratios[k] = v
	}
	return c
}

// Validate checks all ratios are in [0,1]; NaN is out of range.
func (d Degree) Validate() error {
	for k, v := range d.Ratios {
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("prune: degree ratio %v for layer %q out of [0,1]", v, k)
		}
	}
	return nil
}

// Apply prunes net in place according to the degree using method m.
// Unknown layer names are an error (a degree must address real layers).
func Apply(net *nn.Net, d Degree, m Method) error {
	if err := d.Validate(); err != nil {
		return err
	}
	for name, ratio := range d.Ratios {
		p, ok := net.PrunableByName(name)
		if !ok {
			return fmt.Errorf("prune: layer %q not in network %q", name, net.Name)
		}
		if err := Layer(p, ratio, m); err != nil {
			return err
		}
	}
	return nil
}

// ParseDegree parses a Label-formatted degree string — "conv1@30+conv2@50"
// with percent ratios — back into a Degree. "" and "nonpruned" yield the
// unpruned degree. It is the inverse of Label.
func ParseDegree(s string) (Degree, error) {
	d := Degree{Ratios: map[string]float64{}}
	s = strings.TrimSpace(s)
	if s == "" || s == "nonpruned" {
		return d, nil
	}
	for _, part := range strings.Split(s, "+") {
		name, pctStr, ok := strings.Cut(part, "@")
		if !ok {
			return Degree{}, fmt.Errorf("prune: bad degree element %q (want layer@percent)", part)
		}
		pct, err := strconv.ParseFloat(strings.TrimSpace(pctStr), 64)
		if err != nil {
			return Degree{}, fmt.Errorf("prune: bad ratio in %q: %w", part, err)
		}
		name = strings.TrimSpace(name)
		if name == "" {
			return Degree{}, fmt.Errorf("prune: empty layer name in %q", part)
		}
		d.Ratios[name] = pct / 100
	}
	return d, d.Validate()
}
