package nn

import (
	"math"

	"ccperf/internal/tensor"
)

// PoolMode selects the pooling reduction.
type PoolMode int

// Pooling modes.
const (
	MaxPool PoolMode = iota
	AvgPool
)

// Pool is a 2-D spatial pooling layer. Caffe-style ceil-mode output sizing
// is used (Caffenet's pool layers round up), controlled by CeilMode.
type Pool struct {
	name             string
	Mode             PoolMode
	KH, KW           int
	StrideH, StrideW int
	PadH, PadW       int
	CeilMode         bool
	// Global makes the kernel cover the whole input plane regardless of
	// KH/KW (GoogLeNet's final average pool, kept size-independent so
	// reduced-resolution model variants stay valid).
	Global bool
}

// NewGlobalAvgPool constructs a pooling layer that averages each full
// channel plane to 1x1.
func NewGlobalAvgPool(name string) *Pool {
	return &Pool{name: name, Mode: AvgPool, Global: true, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
}

// NewMaxPool constructs a max-pooling layer with ceil-mode sizing.
func NewMaxPool(name string, k, stride int) *Pool {
	return &Pool{name: name, Mode: MaxPool, KH: k, KW: k, StrideH: stride, StrideW: stride, CeilMode: true}
}

// NewAvgPool constructs an average-pooling layer with ceil-mode sizing.
func NewAvgPool(name string, k, stride int) *Pool {
	return &Pool{name: name, Mode: AvgPool, KH: k, KW: k, StrideH: stride, StrideW: stride, CeilMode: true}
}

// Name implements Layer.
func (p *Pool) Name() string { return p.name }

// Kind implements Layer.
func (p *Pool) Kind() string { return "pool" }

func (p *Pool) outDim(in, k, stride, pad int) int {
	if p.CeilMode {
		return int(math.Ceil(float64(in+2*pad-k)/float64(stride))) + 1
	}
	return (in+2*pad-k)/stride + 1
}

// effective returns the kernel/stride/pad actually used for the input.
func (p *Pool) effective(in Shape) (kh, kw, sh, sw, ph, pw int) {
	if p.Global {
		return in.H, in.W, 1, 1, 0, 0
	}
	return p.KH, p.KW, p.StrideH, p.StrideW, p.PadH, p.PadW
}

// OutShape implements Layer.
func (p *Pool) OutShape(in Shape) Shape {
	if p.Global {
		return Shape{C: in.C, H: 1, W: 1}
	}
	return Shape{
		C: in.C,
		H: p.outDim(in.H, p.KH, p.StrideH, p.PadH),
		W: p.outDim(in.W, p.KW, p.StrideW, p.PadW),
	}
}

// Forward implements Layer.
func (p *Pool) Forward(in *tensor.Tensor, ws *Workspace) *tensor.Tensor {
	inS := Shape{C: in.Dim(0), H: in.Dim(1), W: in.Dim(2)}
	outS := p.OutShape(inS)
	kh, kw, sh, sw, padH, padW := p.effective(inS)
	out := wsAcquire(ws, outS.C, outS.H, outS.W)
	if p.Mode == MaxPool && padH == 0 && padW == 0 {
		maxPoolUnpadded(out.Data, in.Data, inS, outS, kh, kw, sh, sw)
	} else {
		p.poolGeneric(out, in, inS, outS)
	}
	return out
}

// poolGeneric is the pooling loop for every mode and padding, checking
// each window element against the input bounds. It is also the reference
// the max-pool fast path is tested against.
func (p *Pool) poolGeneric(out, in *tensor.Tensor, inS, outS Shape) {
	kh, kw, sh, sw, padH, padW := p.effective(inS)
	for c := 0; c < inS.C; c++ {
		src := in.Data[c*inS.H*inS.W:]
		dst := out.Data[c*outS.H*outS.W:]
		for oy := 0; oy < outS.H; oy++ {
			for ox := 0; ox < outS.W; ox++ {
				y0 := oy*sh - padH
				x0 := ox*sw - padW
				var acc float32
				n := 0
				first := true
				for ky := 0; ky < kh; ky++ {
					iy := y0 + ky
					if iy < 0 || iy >= inS.H {
						continue
					}
					for kx := 0; kx < kw; kx++ {
						ix := x0 + kx
						if ix < 0 || ix >= inS.W {
							continue
						}
						v := src[iy*inS.W+ix]
						if p.Mode == MaxPool {
							if first || v > acc {
								acc = v
							}
							first = false
						} else {
							acc += v
							n++
						}
					}
				}
				if p.Mode == AvgPool && n > 0 {
					acc /= float32(n)
				}
				dst[oy*outS.W+ox] = acc
			}
		}
	}
}

// maxPoolUnpadded is Forward's max-pool path for windows without padding.
// It clips each window to the input once instead of bounds-checking every
// element; windowMax keeps the generic loop's results bit for bit.
func maxPoolUnpadded(dst, src []float32, inS, outS Shape, kh, kw, sh, sw int) {
	for c := 0; c < inS.C; c++ {
		plane := src[c*inS.H*inS.W : (c+1)*inS.H*inS.W]
		out := dst[c*outS.H*outS.W : (c+1)*outS.H*outS.W]
		for oy := 0; oy < outS.H; oy++ {
			y0 := oy * sh
			y1 := min(y0+kh, inS.H)
			row := out[oy*outS.W : (oy+1)*outS.W]
			for ox := range row {
				x0 := ox * sw
				row[ox] = windowMax(plane, inS.W, y0, y1, x0, min(x0+kw, inS.W))
			}
		}
	}
}

// windowMax is the maximum over plane rows [y0,y1) × columns [x0,x1) of a
// plane w wide. It scans in the generic loop's row-major order with its
// v > acc rule, so ties between ±0 and NaN resolve the same way, and an
// empty window (a ceil-mode window that starts past the input) gives 0,
// as the generic loop does. The running maximum is held as its bit
// pattern so the select compiles to a conditional move, not a branch.
func windowMax(plane []float32, w, y0, y1, x0, x1 int) float32 {
	if y0 >= y1 || x0 >= x1 {
		return 0
	}
	acc := math.Float32bits(plane[y0*w+x0])
	for iy := y0; iy < y1; iy++ {
		for _, v := range plane[iy*w+x0 : iy*w+x1] {
			vb := math.Float32bits(v)
			if v > math.Float32frombits(acc) {
				acc = vb
			}
		}
	}
	return math.Float32frombits(acc)
}

// Cost implements Layer. Pooling is memory bound: one compare/add per
// window element, no parameters.
func (p *Pool) Cost(in Shape) Cost {
	out := p.OutShape(in)
	kh, kw, _, _, _, _ := p.effective(in)
	flops := int64(out.Volume()) * int64(kh*kw)
	return Cost{
		FLOPs:           flops,
		EffectiveFLOPs:  flops,
		ActivationBytes: 4 * int64(in.Volume()+out.Volume()),
	}
}
