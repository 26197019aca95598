// Package accuracy models CNN inference accuracy as a function of the
// degree of pruning. Two evaluators implement one interface:
//
//   - Calibrated: piecewise "sweet-spot" curves fit to the paper's measured
//     Figures 6–8 (flat until a per-layer threshold, then a monotone drop),
//     with a multi-layer interaction penalty fit to Figure 8. This is what
//     every paper experiment uses.
//   - Empirical (empirical.go): a small CNN actually trained in Go on a
//     synthetic dataset, then really pruned and re-evaluated, demonstrating
//     that the sweet-spot phenomenon emerges from real pruning rather than
//     being assumed.
package accuracy

import (
	"fmt"
	"math"

	"ccperf/internal/models"
	"ccperf/internal/prune"
)

// TopK holds the two accuracy metrics of Section 3.2.2, as fractions.
type TopK struct {
	Top1 float64
	Top5 float64
}

// Valid reports whether both metrics are inside [0,1].
func (a TopK) Valid() bool {
	return a.Top1 >= 0 && a.Top1 <= 1 && a.Top5 >= 0 && a.Top5 <= 1 && a.Top1 <= a.Top5+1e-9
}

// Evaluator maps degrees of pruning to inference accuracy.
type Evaluator interface {
	// ModelName identifies the CNN this evaluator describes.
	ModelName() string
	// Baseline returns the unpruned accuracy.
	Baseline() TopK
	// Evaluate returns the accuracy of the model pruned by d.
	Evaluate(d prune.Degree) (TopK, error)
}

// LayerCurve is the calibrated single-layer response: accuracy stays at
// baseline while r ≤ Threshold (the sweet-spot region of Observation 1),
// then falls toward the floor, reaching it at r = 0.9 (the largest ratio
// the paper measures) and staying there beyond.
type LayerCurve struct {
	// Threshold is where the sweet-spot region ends.
	Threshold float64
	// Floor1 and Floor5 are the Top-1/Top-5 accuracies at r ≥ 0.9.
	Floor1, Floor5 float64
	// Exp shapes the drop; >1 means gradual first, steep later, matching
	// Figure 6's "gradual drop" after the sweet-spot.
	Exp float64
}

// drop returns how much accuracy (fraction) is lost at ratio r, given the
// baseline a0 and floor.
func (c LayerCurve) drop(r, a0, floor float64) float64 {
	if r <= c.Threshold {
		return 0
	}
	span := 0.9 - c.Threshold
	progress := (r - c.Threshold) / span
	if progress > 1 {
		progress = 1
	}
	return (a0 - floor) * math.Pow(progress, c.Exp)
}

// Calibrated is the measurement-fit evaluator for the two paper CNNs.
type Calibrated struct {
	model    string
	baseline TopK
	curves   map[string]LayerCurve
	fallback LayerCurve // for layers without an explicit curve
	// interAmp1/interAmp5 are the multi-layer interaction penalties
	// (accuracy points lost per (k_eff−1)^interExp, Figure 8).
	interAmp1, interAmp5, interExp float64
	// Quantum rounds evaluated accuracy (default 0.01: the paper reports
	// whole percents, which is why Figures 9–11 show vertical columns of
	// configurations sharing one accuracy value).
	Quantum float64
}

// NewCalibrated returns the calibrated evaluator for a paper model.
func NewCalibrated(model string) (*Calibrated, error) {
	switch model {
	case models.CaffenetName:
		return &Calibrated{
			model:    model,
			baseline: TopK{Top1: 0.57, Top5: 0.80},
			curves: map[string]LayerCurve{
				// conv1 sees the raw image: pruning it is fatal beyond the
				// sweet-spot — Top-5 falls 80 %→0 % by r=0.9 (Figure 6a).
				"conv1": {Threshold: 0.30, Floor1: 0.0, Floor5: 0.0, Exp: 1.6},
				// Deeper layers degrade to ~25 % Top-5 at r=0.9 (Figure 6).
				"conv2": {Threshold: 0.50, Floor1: 0.10, Floor5: 0.25, Exp: 1.5},
				"conv3": {Threshold: 0.50, Floor1: 0.10, Floor5: 0.25, Exp: 1.5},
				"conv4": {Threshold: 0.50, Floor1: 0.10, Floor5: 0.25, Exp: 1.5},
				"conv5": {Threshold: 0.50, Floor1: 0.10, Floor5: 0.25, Exp: 1.5},
			},
			fallback:  LayerCurve{Threshold: 0.50, Floor1: 0.10, Floor5: 0.25, Exp: 1.5},
			interAmp1: 0.07, interAmp5: 0.10, interExp: 0.42,
		}, nil
	case models.GooglenetName:
		return &Calibrated{
			model:    model,
			baseline: TopK{Top1: 0.66, Top5: 0.86},
			curves: map[string]LayerCurve{
				// Figure 7: first-stage layers keep accuracy until ~60 %.
				"conv1-7x7-s2":     {Threshold: 0.60, Floor1: 0.0, Floor5: 0.0, Exp: 1.6},
				"conv2-3x3":        {Threshold: 0.60, Floor1: 0.12, Floor5: 0.28, Exp: 1.5},
				"inception-3a-3x3": {Threshold: 0.60, Floor1: 0.15, Floor5: 0.32, Exp: 1.5},
				"inception-4d-5x5": {Threshold: 0.60, Floor1: 0.18, Floor5: 0.36, Exp: 1.5},
				"inception-4e-5x5": {Threshold: 0.60, Floor1: 0.18, Floor5: 0.36, Exp: 1.5},
				"inception-5a-3x3": {Threshold: 0.60, Floor1: 0.20, Floor5: 0.40, Exp: 1.5},
			},
			fallback:  LayerCurve{Threshold: 0.60, Floor1: 0.18, Floor5: 0.36, Exp: 1.5},
			interAmp1: 0.07, interAmp5: 0.10, interExp: 0.42,
		}, nil
	default:
		return nil, fmt.Errorf("accuracy: no calibration for model %q", model)
	}
}

// ModelName implements Evaluator.
func (c *Calibrated) ModelName() string { return c.model }

// Baseline implements Evaluator.
func (c *Calibrated) Baseline() TopK { return c.baseline }

// Curve returns the calibrated single-layer curve for a layer name.
func (c *Calibrated) Curve(layer string) LayerCurve {
	if cv, ok := c.curves[layer]; ok {
		return cv
	}
	return c.fallback
}

// Evaluate implements Evaluator: per-layer drops compose additively, plus
// an interaction penalty growing with the effective number of pruned
// layers k_eff = Σ min(r_l/θ_l, 1) — calibrated so that combining sweet-
// spot prunes of conv1+conv2 costs 10 Top-5 points and all five Caffenet
// conv layers cost 18 (Figure 8).
func (c *Calibrated) Evaluate(d prune.Degree) (TopK, error) {
	if err := d.Validate(); err != nil {
		return TopK{}, err
	}
	drop1, drop5 := 0.0, 0.0
	keff := 0.0
	for _, layer := range d.Layers() {
		r := d.Ratios[layer]
		if r <= 0 {
			continue
		}
		cv := c.Curve(layer)
		drop1 += cv.drop(r, c.baseline.Top1, cv.Floor1)
		drop5 += cv.drop(r, c.baseline.Top5, cv.Floor5)
		keff += math.Min(r/cv.Threshold, 1)
	}
	if keff > 1 {
		penalty := math.Pow(keff-1, c.interExp)
		drop1 += c.interAmp1 * penalty
		drop5 += c.interAmp5 * penalty
	}
	q := c.Quantum
	if q <= 0 {
		q = 0.01
	}
	a := TopK{
		Top1: quantize(clamp01(c.baseline.Top1-drop1), q),
		Top5: quantize(clamp01(c.baseline.Top5-drop5), q),
	}
	if a.Top1 > a.Top5 {
		a.Top1 = a.Top5
	}
	return a, nil
}

// quantize rounds v to the nearest multiple of q, dividing by the integer
// reciprocal so that e.g. quantize(0.57, 0.01) equals the literal 0.57.
func quantize(v, q float64) float64 { return math.Round(v/q) / math.Round(1/q) }

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
