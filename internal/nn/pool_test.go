package nn

import (
	"math"
	"math/rand"
	"testing"

	"ccperf/internal/tensor"
)

// poolTies are the values the max-pool identity test draws from: few
// distinct values, so most windows hold ties, including between +0 and −0
// and between NaNs of different sign and payload.
var poolTies = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00001),
	1, 1, -1, 2, float32(math.Inf(-1)),
}

// TestMaxPoolFastPathMatchesGeneric checks the unpadded max-pool path
// Forward takes against the generic loop, bit for bit, over geometries
// that cover ceil-mode edge windows, windows that start past the input,
// odd and non-square sizes, floor mode and a global max pool.
func TestMaxPoolFastPathMatchesGeneric(t *testing.T) {
	cases := []struct {
		name string
		p    *Pool
		in   Shape
	}{
		{"caffenet-k3s2-odd", NewMaxPool("p", 3, 2), Shape{C: 3, H: 13, W: 13}},
		{"tinynet-k2s2", NewMaxPool("p", 2, 2), Shape{C: 2, H: 8, W: 8}},
		{"k2s2-ceil-odd", NewMaxPool("p", 2, 2), Shape{C: 2, H: 7, W: 9}},
		{"k1s3-past-input", NewMaxPool("p", 1, 3), Shape{C: 2, H: 5, W: 5}},
		{"k2s3-past-input", NewMaxPool("p", 2, 3), Shape{C: 1, H: 7, W: 4}},
		{"k4s4-clipped", NewMaxPool("p", 4, 4), Shape{C: 2, H: 6, W: 6}},
		{"floor-k3x2-s2x1", &Pool{Mode: MaxPool, KH: 3, KW: 2, StrideH: 2, StrideW: 1}, Shape{C: 2, H: 8, W: 7}},
		{"global", &Pool{Mode: MaxPool, Global: true, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, Shape{C: 4, H: 5, W: 6}},
		{"global-1x1", &Pool{Mode: MaxPool, Global: true, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, Shape{C: 3, H: 1, W: 1}},
	}
	rng := rand.New(rand.NewSource(3))
	pastInput := false
	for _, c := range cases {
		out := c.p.OutShape(c.in)
		_, _, sh, sw, _, _ := c.p.effective(c.in)
		if (out.H-1)*sh >= c.in.H || (out.W-1)*sw >= c.in.W {
			pastInput = true
		}
		for trial := 0; trial < 20; trial++ {
			in := tensor.New(c.in.C, c.in.H, c.in.W)
			for i := range in.Data {
				in.Data[i] = poolTies[rng.Intn(len(poolTies))]
			}
			want := tensor.New(out.C, out.H, out.W)
			for i := range want.Data {
				want.Data[i] = -777 // every output must be written
			}
			c.p.poolGeneric(want, in, c.in, out)
			got := c.p.Forward(in, nil)
			for i := range got.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%s trial %d: out[%d] = %v (%#x), generic loop gives %v (%#x)", c.name, trial, i,
						got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
				}
			}
		}
	}
	if !pastInput {
		t.Fatal("no geometry has a window that starts past the input")
	}
}
