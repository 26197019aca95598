package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// cosTau is cosine with period 1 (cos of a full turn times x), the natural
// unit for shapes parameterized over trace fraction.
func cosTau(x float64) float64 {
	return math.Cos(2 * math.Pi * x)
}

// Shape modulates arrival intensity over a trace. The paper's experiments
// (and the original Generate patterns) assume well-behaved load; the
// multi-region gateway has to survive the opposite — flash crowds stacked
// on diurnal swings with regionally skewed origins. Shapes are composable:
// the effective intensity at trace fraction u is the product of every
// shape's Intensity(u), so "a day's sinusoid with a flash crowd at 70%"
// is just two shapes in a slice.
//
// Intensity is a relative (unnormalized) density over u ∈ [0,1); only
// ratios matter, because ShapedArrivals normalizes the composite before
// sampling. Implementations must be pure functions — all randomness lives
// in the sampling seed — which is what keeps a hostile workload replayable
// bit for bit.
type Shape interface {
	// Intensity returns the relative arrival intensity at trace fraction
	// u ∈ [0,1). Must be non-negative and finite.
	Intensity(u float64) float64
	// String renders the shape for reports and logs.
	String() string
}

// Sinusoid is the diurnal cycle as a shape: intensity 1 + Amplitude·cos
// around the trace, peaking at fraction Peak. Amplitude 0.6 with Peak 0.75
// reproduces the classic evening-peak photo-upload curve of
// diurnalWeights; Cycles > 1 compresses several days into one trace.
type Sinusoid struct {
	// Amplitude ∈ [0,1) is the swing around the mean (0 = flat).
	Amplitude float64
	// Peak is the trace fraction of maximum intensity.
	Peak float64
	// Cycles is the number of full periods across the trace (0 = 1).
	Cycles float64
}

// Intensity implements Shape.
func (s Sinusoid) Intensity(u float64) float64 {
	cycles := s.Cycles
	if cycles <= 0 {
		cycles = 1
	}
	return 1 + s.Amplitude*cosTau(cycles*(u-s.Peak))
}

// String implements Shape.
func (s Sinusoid) String() string {
	return fmt.Sprintf("sinusoid(amp=%.2g,peak=%.2g)", s.Amplitude, s.Peak)
}

// FlashCrowd is a multiplicative burst with a ramp: intensity rises
// linearly from 1 to Mult over [At, At+Ramp], holds Mult over
// [At+Ramp, At+Ramp+Hold], and ramps back down over the next Ramp — the
// viral-event profile whose onset slope is exactly what gives an
// autoscaler (or a shard router shedding toward healthy regions) a
// fighting chance. All positions are trace fractions.
type FlashCrowd struct {
	// At is where the ramp starts; Ramp its length; Hold the plateau.
	At, Ramp, Hold float64
	// Mult ≥ 1 is the plateau's intensity multiple.
	Mult float64
}

// Intensity implements Shape.
func (f FlashCrowd) Intensity(u float64) float64 {
	if f.Mult <= 1 {
		return 1
	}
	switch {
	case u < f.At || u >= f.At+2*f.Ramp+f.Hold:
		return 1
	case u < f.At+f.Ramp: // rising edge
		if f.Ramp <= 0 {
			return f.Mult
		}
		return 1 + (f.Mult-1)*(u-f.At)/f.Ramp
	case u < f.At+f.Ramp+f.Hold: // plateau
		return f.Mult
	default: // falling edge
		if f.Ramp <= 0 {
			return 1
		}
		return f.Mult - (f.Mult-1)*(u-f.At-f.Ramp-f.Hold)/f.Ramp
	}
}

// String implements Shape.
func (f FlashCrowd) String() string {
	return fmt.Sprintf("flash(at=%.2g,ramp=%.2g,hold=%.2g,x%.2g)", f.At, f.Ramp, f.Hold, f.Mult)
}

// ShapeLabel joins the shapes' names ("uniform" when none).
func ShapeLabel(shapes []Shape) string {
	if len(shapes) == 0 {
		return "uniform"
	}
	parts := make([]string, len(shapes))
	for i, s := range shapes {
		parts[i] = s.String()
	}
	return strings.Join(parts, "·")
}

// shapeCells is the resolution of the piecewise-constant composite
// density ShapedArrivals samples from. 4096 cells keep the inverse-CDF
// error below 0.025% of the trace span — far under any serving timescale.
const shapeCells = 4096

// ShapedArrivals samples total arrival timestamps over [0, duration)
// seconds from the composed shapes' intensity product, sorted ascending
// and deterministic per seed: the same (total, duration, shapes, seed)
// yields bit-identical times, and every call returns exactly total
// arrivals — the shapes redistribute load, they never add or drop it.
//
// Sampling is inverse-CDF over a piecewise-linear CDF built from
// shapeCells intensity evaluations, driven by sorted uniform draws (the
// same order-statistics construction as ArrivalTimes), so within any
// constant-intensity stretch the arrivals remain Poisson-like.
func ShapedArrivals(total int64, duration float64, shapes []Shape, seed int64) []float64 {
	if total <= 0 || duration <= 0 {
		return nil
	}
	// Composite density, then cumulative mass per cell.
	cdf := make([]float64, shapeCells+1)
	for i := 0; i < shapeCells; i++ {
		u := (float64(i) + 0.5) / shapeCells
		w := 1.0
		for _, s := range shapes {
			w *= s.Intensity(u)
		}
		if w < 0 {
			w = 0
		}
		cdf[i+1] = cdf[i] + w
	}
	mass := cdf[shapeCells]
	if mass <= 0 {
		// Degenerate shapes (everything zero): fall back to uniform.
		for i := range cdf {
			cdf[i] = float64(i)
		}
		mass = cdf[shapeCells]
	}
	rng := rand.New(rand.NewSource(seed))
	draws := make([]float64, total)
	for i := range draws {
		draws[i] = rng.Float64() * mass
	}
	sort.Float64s(draws)
	out := make([]float64, total)
	cell := 0
	for i, d := range draws {
		for cell < shapeCells-1 && cdf[cell+1] < d {
			cell++
		}
		frac := 0.0
		if w := cdf[cell+1] - cdf[cell]; w > 0 {
			frac = (d - cdf[cell]) / w
		}
		out[i] = (float64(cell) + frac) / shapeCells * duration
	}
	return out
}

// AssignRegions gives each of n arrivals an origin region index drawn
// from weights, with Markov clustering: with probability corr an arrival
// repeats the previous arrival's region instead of drawing fresh. corr 0
// is iid skew; corr near 1 produces long single-region runs — the
// region-correlated arrival bursts that make one region's fleet melt
// while its neighbors idle. Deterministic per seed; len(weights) regions.
func AssignRegions(n int, weights []float64, corr float64, seed int64) []int {
	if n <= 0 || len(weights) == 0 {
		return nil
	}
	if corr < 0 {
		corr = 0
	}
	if corr > 1 {
		corr = 1
	}
	var sum float64
	for _, w := range weights {
		if w > 0 {
			sum += w
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	draw := func() int {
		if sum <= 0 {
			return rng.Intn(len(weights))
		}
		x := rng.Float64() * sum
		for i, w := range weights {
			if w <= 0 {
				continue
			}
			x -= w
			if x < 0 {
				return i
			}
		}
		return len(weights) - 1
	}
	out[0] = draw()
	for i := 1; i < n; i++ {
		if rng.Float64() < corr {
			out[i] = out[i-1]
		} else {
			out[i] = draw()
		}
	}
	return out
}

// maxShapeTerms bounds a -shape spec. Each term multiplies into the
// intensity, and bounding the terms with their multiples keeps the
// composite density finite.
const maxShapeTerms = 16

// ParseShapes parses a composed arrival shape (the loadtest -shape flag).
// Terms join with ",", and each multiplies into the arrival intensity:
//
//	diurnal[:AMP[@PEAK][xCYCLES]]   sinusoid, e.g. diurnal:0.6@0.75
//	flash:AT+RAMP+HOLDxMULT         flash crowd, e.g. flash:0.5+0.05+0.2x4
//
// Positions are trace fractions in [0,1], AMP lies in [0,1], CYCLES in
// [0,1e6] and MULT in [1,1000]; a number out of range, NaN or infinite is
// an error naming its term. Empty (or "uniform") means uniform arrivals.
func ParseShapes(spec string) ([]Shape, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "uniform" {
		return nil, nil
	}
	terms := strings.Split(spec, ",")
	if len(terms) > maxShapeTerms {
		return nil, fmt.Errorf("%d shape terms, at most %d", len(terms), maxShapeTerms)
	}
	var out []Shape
	for _, term := range terms {
		term = strings.TrimSpace(term)
		num := func(s, what string, lo, hi float64) (float64, error) {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || !(v >= lo && v <= hi) {
				return 0, fmt.Errorf("shape %q: %s %q is not a number in [%g, %g]", term, what, s, lo, hi)
			}
			return v, nil
		}
		kind, rest, _ := strings.Cut(term, ":")
		switch kind {
		case "diurnal":
			s := Sinusoid{Amplitude: 0.6, Peak: 0.75}
			if rest != "" {
				var err error
				if body, cyc, ok := strings.Cut(rest, "x"); ok {
					if s.Cycles, err = num(cyc, "cycles", 0, 1e6); err != nil {
						return nil, err
					}
					rest = body
				}
				amp, peak, hasPeak := strings.Cut(rest, "@")
				if s.Amplitude, err = num(amp, "amplitude", 0, 1); err != nil {
					return nil, err
				}
				if hasPeak {
					if s.Peak, err = num(peak, "peak", 0, 1); err != nil {
						return nil, err
					}
				}
			}
			out = append(out, s)
		case "flash":
			body, mult, ok := strings.Cut(rest, "x")
			parts := strings.Split(body, "+")
			if !ok || len(parts) != 3 {
				return nil, fmt.Errorf("shape %q: want flash:AT+RAMP+HOLDxMULT", term)
			}
			var f FlashCrowd
			var err error
			for i, p := range []*float64{&f.At, &f.Ramp, &f.Hold} {
				if *p, err = num(parts[i], []string{"at", "ramp", "hold"}[i], 0, 1); err != nil {
					return nil, err
				}
			}
			if f.Mult, err = num(mult, "mult", 1, 1000); err != nil {
				return nil, err
			}
			out = append(out, f)
		default:
			return nil, fmt.Errorf("shape %q: unknown kind %q (want diurnal or flash)", term, kind)
		}
	}
	return out, nil
}

// ParseOriginWeights parses a comma list of request-origin weights, one
// per region (the loadtest -origin-weights flag; "" = uniform, nil). A
// weight must be finite and non-negative; an error names the term.
func ParseOriginWeights(spec string, regions int) ([]float64, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ",")
	if len(parts) != regions {
		return nil, fmt.Errorf("%d weights for %d regions", len(parts), regions)
	}
	out := make([]float64, len(parts))
	for i, p := range parts {
		w, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || !(w >= 0 && w <= math.MaxFloat64) {
			return nil, fmt.Errorf("weight %d %q is not a finite non-negative number", i+1, p)
		}
		out[i] = w
	}
	return out, nil
}
