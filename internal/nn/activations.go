package nn

import (
	"math"

	"ccperf/internal/tensor"
)

// ReLU applies max(0, x) element-wise.
type ReLU struct{ name string }

// NewReLU constructs a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Kind implements Layer.
func (r *ReLU) Kind() string { return "relu" }

// OutShape implements Layer.
func (r *ReLU) OutShape(in Shape) Shape { return in }

// Forward implements Layer. The input is never mutated. When a ReLU
// directly follows a conv or FC layer, Net.planFusion folds it into that
// layer's kernel epilogue and this standalone path is skipped entirely.
func (r *ReLU) Forward(in *tensor.Tensor, ws *Workspace) *tensor.Tensor {
	out := wsAcquire(ws, in.Dim(0), in.Dim(1), in.Dim(2))
	for i, v := range in.Data {
		if v < 0 {
			v = 0
		}
		out.Data[i] = v
	}
	return out
}

// Cost implements Layer.
func (r *ReLU) Cost(in Shape) Cost {
	n := int64(in.Volume())
	return Cost{FLOPs: n, EffectiveFLOPs: n, ActivationBytes: 8 * n}
}

// LRN is AlexNet-style local response normalization across channels.
type LRN struct {
	name  string
	Size  int
	Alpha float64
	Beta  float64
	K     float64
}

// NewLRN constructs an LRN layer with AlexNet defaults (n=5, α=1e-4, β=0.75).
func NewLRN(name string) *LRN {
	return &LRN{name: name, Size: 5, Alpha: 1e-4, Beta: 0.75, K: 1}
}

// Name implements Layer.
func (l *LRN) Name() string { return l.name }

// Kind implements Layer.
func (l *LRN) Kind() string { return "lrn" }

// OutShape implements Layer.
func (l *LRN) OutShape(in Shape) Shape { return in }

// Forward implements Layer. Each output is float32(x / b^β) with
// b = K + α/Size·Σv², the sum over the Size channels centred on x's
// (clipped at the edges), in float64 from +0 in ascending channel order.
// With β = 0.75 almost every element takes lrnQuot's two square roots;
// the rest, and every other β, take math.Pow. Both give the same bits.
func (l *LRN) Forward(in *tensor.Tensor, ws *Workspace) *tensor.Tensor {
	c, h, w := in.Dim(0), in.Dim(1), in.Dim(2)
	out := wsAcquire(ws, c, h, w)
	plane := h * w
	half := l.Size / 2
	k, a := l.K, l.Alpha/float64(l.Size)
	fast := l.Beta == 0.75
	for ch := 0; ch < c; ch++ {
		lo, hi := max(ch-half, 0), min(ch+half, c-1)
		src := in.Data[ch*plane : (ch+1)*plane]
		dst := out.Data[ch*plane : (ch+1)*plane]
		for y, v := range src {
			var ss float64
			for j := lo; j <= hi; j++ {
				u := float64(in.Data[j*plane+y])
				ss += u * u
			}
			// The one base both routes take: on arm64 the compiler may
			// fuse this expression, so it must not be written twice.
			b := k + a*ss
			x := float64(v)
			if fast {
				if q, ok := lrnQuot(x, b); ok {
					dst[y] = float32(q)
					continue
				}
			}
			dst[y] = float32(x / math.Pow(b, l.Beta))
		}
	}
	return out
}

// lrnMargin is how near, in float64 ulps, lrnQuot lets its quotient come
// to a float32 rounding midpoint before it declines. lrnQuot's quotient
// and x/math.Pow(b, 0.75) are both within a few ulps of the exact
// x/b^0.75 for b in [1, 2⁶⁴]:
//   - lrnQuot: two correctly rounded square roots, one product and one
//     division, at most 4.5·2⁻⁵³ relative;
//   - math.Pow(b, 0.75) is Exp(−0.25·Log(b)) times b's Frexp mantissa.
//     Log(b) ≤ 44.4 is within 1 ulp (2⁻⁴⁷), so the exponent is within
//     2⁻⁴⁹ and Exp's result within 2⁻⁴⁹ + 2⁻⁵²; with the product and the
//     division, at most 20·2⁻⁵³.
//
// So the two differ by at most 25 ulps; over 5M random pairs the largest
// gap was 11. float32 rounds both alike unless a midpoint lies between
// them. 2¹² ulps clear of every midpoint leaves 160× headroom on the
// bound and declines about 1 quotient in 65,000.
const lrnMargin = 1 << 12

// lrnQuot returns q = x/b^0.75, computed as x/(√b·√√b), and true when
// float32(q) is certain to equal float32(x/math.Pow(b, 0.75)): b is in
// [1, 2⁶⁴], q is ±0 or in float32's normal range, and the 29 low mantissa
// bits of q, the ones float32 rounding drops, lie more than lrnMargin
// from 1<<28, the bit pattern of a round-half point. Otherwise, and for
// NaN or Inf, it returns false.
func lrnQuot(x, b float64) (float64, bool) {
	s := math.Sqrt(b)
	q := x / (s * math.Sqrt(s))
	// Biased float64 exponents 1023−126 … 1023+127 are float32-normal.
	u := math.Float64bits(q) &^ (1 << 63)
	ok := b >= 1 && b <= 0x1p64 && (u == 0 ||
		u>>52-(1023-126) <= 253 && u&(1<<29-1)-(1<<28-lrnMargin) > 2*lrnMargin)
	return q, ok
}

// Cost implements Layer. LRN does ~Size multiply-adds plus a pow per element.
func (l *LRN) Cost(in Shape) Cost {
	n := int64(in.Volume())
	flops := n * int64(2*l.Size+8)
	return Cost{FLOPs: flops, EffectiveFLOPs: flops, ActivationBytes: 8 * n}
}

// Softmax converts logits to probabilities. Numerically stabilized.
type Softmax struct{ name string }

// NewSoftmax constructs a softmax layer.
func NewSoftmax(name string) *Softmax { return &Softmax{name: name} }

// Name implements Layer.
func (s *Softmax) Name() string { return s.name }

// Kind implements Layer.
func (s *Softmax) Kind() string { return "softmax" }

// OutShape implements Layer.
func (s *Softmax) OutShape(in Shape) Shape { return in }

// Forward implements Layer.
func (s *Softmax) Forward(in *tensor.Tensor, ws *Workspace) *tensor.Tensor {
	out := wsAcquire(ws, in.Dim(0), in.Dim(1), in.Dim(2))
	copy(out.Data, in.Data)
	SoftmaxInPlace(out.Data)
	return out
}

// SoftmaxInPlace normalizes logits to probabilities in place.
func SoftmaxInPlace(x []float32) {
	if len(x) == 0 {
		return
	}
	mx := x[0]
	for _, v := range x {
		if v > mx {
			mx = v
		}
	}
	var sum float64
	for i, v := range x {
		e := math.Exp(float64(v - mx))
		x[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range x {
		x[i] *= inv
	}
}

// Cost implements Layer.
func (s *Softmax) Cost(in Shape) Cost {
	n := int64(in.Volume())
	return Cost{FLOPs: 8 * n, EffectiveFLOPs: 8 * n, ActivationBytes: 8 * n}
}

// Dropout is an inference-time no-op kept so network definitions mirror the
// training-time topology (Caffenet has dropout after fc1 and fc2).
type Dropout struct {
	name string
	Rate float64
}

// NewDropout constructs an inference no-op dropout layer.
func NewDropout(name string, rate float64) *Dropout { return &Dropout{name: name, Rate: rate} }

// Name implements Layer.
func (d *Dropout) Name() string { return d.name }

// Kind implements Layer.
func (d *Dropout) Kind() string { return "dropout" }

// OutShape implements Layer.
func (d *Dropout) OutShape(in Shape) Shape { return in }

// Forward implements Layer. At inference dropout is identity.
func (d *Dropout) Forward(in *tensor.Tensor, _ *Workspace) *tensor.Tensor { return in }

// Cost implements Layer.
func (d *Dropout) Cost(Shape) Cost { return Cost{} }

// Flatten reshapes CHW to a 1-D vector (Cx1x1 convention).
type Flatten struct{ name string }

// NewFlatten constructs a flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }

// Kind implements Layer.
func (f *Flatten) Kind() string { return "flatten" }

// OutShape implements Layer.
func (f *Flatten) OutShape(in Shape) Shape { return Shape{C: in.Volume(), H: 1, W: 1} }

// Forward implements Layer: a zero-copy view over the input's data. With a
// workspace the header comes from its pool; either way no data moves.
func (f *Flatten) Forward(in *tensor.Tensor, ws *Workspace) *tensor.Tensor {
	if ws == nil {
		return in.Reshape(in.Len(), 1, 1)
	}
	return ws.View(in.Data, in.Len(), 1, 1)
}

// Cost implements Layer.
func (f *Flatten) Cost(Shape) Cost { return Cost{} }
