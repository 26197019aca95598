package tensor

import "fmt"

// ConvGeom describes a 2-D convolution geometry on CHW inputs.
type ConvGeom struct {
	InC, InH, InW    int // input channels, height, width
	KH, KW           int // kernel height, width
	StrideH, StrideW int
	PadH, PadW       int
}

// OutH returns the output height.
func (g ConvGeom) OutH() int { return (g.InH+2*g.PadH-g.KH)/g.StrideH + 1 }

// OutW returns the output width.
func (g ConvGeom) OutW() int { return (g.InW+2*g.PadW-g.KW)/g.StrideW + 1 }

// Validate reports whether the geometry is internally consistent.
func (g ConvGeom) Validate() error {
	switch {
	case g.InC <= 0 || g.InH <= 0 || g.InW <= 0:
		return fmt.Errorf("tensor: non-positive input dims %dx%dx%d", g.InC, g.InH, g.InW)
	case g.KH <= 0 || g.KW <= 0:
		return fmt.Errorf("tensor: non-positive kernel %dx%d", g.KH, g.KW)
	case g.StrideH <= 0 || g.StrideW <= 0:
		return fmt.Errorf("tensor: non-positive stride %dx%d", g.StrideH, g.StrideW)
	case g.PadH < 0 || g.PadW < 0:
		return fmt.Errorf("tensor: negative padding %dx%d", g.PadH, g.PadW)
	case g.InH+2*g.PadH < g.KH || g.InW+2*g.PadW < g.KW:
		return fmt.Errorf("tensor: kernel %dx%d larger than padded input %dx%d",
			g.KH, g.KW, g.InH+2*g.PadH, g.InW+2*g.PadW)
	}
	return nil
}

// Im2Col lowers a CHW input image to a (InC*KH*KW) × (OutH*OutW) matrix so
// convolution becomes GEMM, the formulation GPU frameworks (and the paper's
// Caffe substrate) use. input length must be InC*InH*InW.
func Im2Col(g ConvGeom, input []float32) *Matrix {
	m := NewMatrix(g.InC*g.KH*g.KW, g.OutH()*g.OutW())
	Im2ColInto(g, input, m)
	return m
}

// Im2ColInto lowers input into dst, overwriting every element (padded
// positions are written as zero, so a dirty scratch matrix is fine). dst
// must be (InC*KH*KW) × (OutH*OutW). Unit horizontal stride — the common
// case for every conv in the model zoo past the stem — takes a contiguous
// copy fast path per output row.
func Im2ColInto(g ConvGeom, input []float32, dst *Matrix) {
	if len(input) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col input len %d != %d", len(input), g.InC*g.InH*g.InW))
	}
	oh, ow := g.OutH(), g.OutW()
	if dst.Rows != g.InC*g.KH*g.KW || dst.Cols != oh*ow {
		panic(fmt.Sprintf("tensor: Im2Col dst %dx%d, want %dx%d", dst.Rows, dst.Cols, g.InC*g.KH*g.KW, oh*ow))
	}
	for c := 0; c < g.InC; c++ {
		chOff := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				r := (c*g.KH+kh)*g.KW + kw
				row := dst.Row(r)
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.StrideH - g.PadH + kh
					seg := row[oy*ow : oy*ow+ow]
					if iy < 0 || iy >= g.InH {
						clear(seg) // padded region
						continue
					}
					rowOff := chOff + iy*g.InW
					if g.StrideW == 1 {
						// ix = ox - PadW + kw is valid for ox in [lo,hi),
						// clamped into [0,ow]: with padding wider than the
						// input, the valid range can lie wholly outside it.
						lo := min(max(g.PadW-kw, 0), ow)
						hi := min(max(g.InW+g.PadW-kw, lo), ow)
						clear(seg[:lo])
						if lo < hi {
							copy(seg[lo:hi], input[rowOff+lo-g.PadW+kw:])
						}
						clear(seg[hi:])
						continue
					}
					for ox := range seg {
						ix := ox*g.StrideW - g.PadW + kw
						if ix < 0 || ix >= g.InW {
							seg[ox] = 0
						} else {
							seg[ox] = input[rowOff+ix]
						}
					}
				}
			}
		}
	}
}

// Col2Im scatters a (InC*KH*KW) × (OutH*OutW) column matrix back to a CHW
// image, accumulating overlaps — the adjoint of Im2Col, used by the
// convolution backward pass in internal/train.
func Col2Im(g ConvGeom, cols *Matrix) []float32 {
	oh, ow := g.OutH(), g.OutW()
	if cols.Rows != g.InC*g.KH*g.KW || cols.Cols != oh*ow {
		panic(fmt.Sprintf("tensor: Col2Im cols %dx%d for geom %+v", cols.Rows, cols.Cols, g))
	}
	out := make([]float32, g.InC*g.InH*g.InW)
	for c := 0; c < g.InC; c++ {
		chOff := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				r := (c*g.KH+kh)*g.KW + kw
				src := cols.Row(r)
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.StrideH - g.PadH + kh
					if iy < 0 || iy >= g.InH {
						continue
					}
					rowOff := chOff + iy*g.InW
					for ox := 0; ox < ow; ox++ {
						ix := ox*g.StrideW - g.PadW + kw
						if ix < 0 || ix >= g.InW {
							continue
						}
						out[rowOff+ix] += src[oy*ow+ox]
					}
				}
			}
		}
	}
	return out
}

// ConvFLOPs returns the multiply-accumulate FLOP count (2 FLOPs per MAC) of
// a dense convolution with outC output filters over geometry g.
func ConvFLOPs(g ConvGeom, outC int) int64 {
	macs := int64(outC) * int64(g.InC*g.KH*g.KW) * int64(g.OutH()*g.OutW())
	return 2 * macs
}
