package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ccperf/internal/tensor"
)

// lrnOracle is LRN.Forward as it was before lrnQuot: math.Pow for every
// element, walked pixel by pixel across the channels. LRN.Forward must
// match its bits on every input.
func lrnOracle(l *LRN, in *tensor.Tensor) *tensor.Tensor {
	c, h, w := in.Dim(0), in.Dim(1), in.Dim(2)
	out := tensor.New(c, h, w)
	plane := h * w
	half := l.Size / 2
	for y := 0; y < plane; y++ {
		for ch := 0; ch < c; ch++ {
			lo := ch - half
			if lo < 0 {
				lo = 0
			}
			hi := ch + half
			if hi >= c {
				hi = c - 1
			}
			var ss float64
			for j := lo; j <= hi; j++ {
				v := float64(in.Data[j*plane+y])
				ss += v * v
			}
			denom := math.Pow(l.K+l.Alpha/float64(l.Size)*ss, l.Beta)
			out.Data[ch*plane+y] = float32(float64(in.Data[ch*plane+y]) / denom)
		}
	}
	return out
}

// ReferenceLRN is lrnOracle for the package's external tests.
var ReferenceLRN = lrnOracle

// LRNDeclines counts the elements of in whose quotient lrnQuot declines,
// so they take math.Pow. It mirrors Forward's base exactly.
func LRNDeclines(l *LRN, in *tensor.Tensor) int {
	c, plane := in.Dim(0), in.Dim(1)*in.Dim(2)
	half, n := l.Size/2, 0
	for ch := 0; ch < c; ch++ {
		for y := 0; y < plane; y++ {
			var ss float64
			for j := max(ch-half, 0); j <= min(ch+half, c-1); j++ {
				u := float64(in.Data[j*plane+y])
				ss += u * u
			}
			if _, ok := lrnQuot(float64(in.Data[ch*plane+y]), l.K+l.Alpha/float64(l.Size)*ss); !ok {
				n++
			}
		}
	}
	return n
}

// checkLRN fails t unless l.Forward, with and without a workspace, equals
// lrnOracle bit for bit on in.
func checkLRN(t *testing.T, l *LRN, in *tensor.Tensor) {
	t.Helper()
	want := lrnOracle(l, in)
	ws := NewWorkspace()
	for _, got := range []*tensor.Tensor{l.Forward(in, nil), l.Forward(in, ws)} {
		if i := bitDiff(got.Data, want.Data); i >= 0 {
			t.Fatalf("%v %+v: element %d (input %g) = %g (%#08x), want %g (%#08x)",
				in.Shape, *l, i, in.Data[i], got.Data[i], math.Float32bits(got.Data[i]),
				want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// logUniform returns a value of random sign whose magnitude is log-uniform
// in [lo, hi].
func logUniform(rng *rand.Rand, lo, hi float64) float32 {
	v := float32(math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo))))
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

// TestLRNMatchesOracleRandom checks Forward against the oracle on random
// CHW inputs, magnitudes 1e-6 to 1e6 with a fifth of them zero, at one
// channel, fewer channels than Size, and Caffenet-like depths.
func TestLRNMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range []Shape{
		{C: 1, H: 7, W: 5}, {C: 2, H: 3, W: 3}, {C: 4, H: 6, W: 1},
		{C: 5, H: 4, W: 4}, {C: 6, H: 1, W: 1}, {C: 17, H: 9, W: 11}, {C: 96, H: 13, W: 13},
	} {
		in := tensor.New(s.C, s.H, s.W)
		for i := range in.Data {
			if rng.Intn(5) > 0 {
				in.Data[i] = logUniform(rng, 1e-6, 1e6)
			}
		}
		checkLRN(t, NewLRN("n"), in)
	}
}

// TestLRNMatchesOracleSpecialValues checks Forward against the oracle on
// special floats next to ordinary values, on bases past 2⁶⁴, and with the
// parameters that send every element to math.Pow: other betas, K < 1
// (K = 0 over an all-zero window gives 0/0) and a negative alpha.
func TestLRNMatchesOracleSpecialValues(t *testing.T) {
	nan1 := math.Float32frombits(0x7fc00001)
	nan2 := math.Float32frombits(0xffa00bad) // signalling, negative
	sub := math.Float32frombits(1)
	specials := []float32{
		0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		nan1, nan2, sub, -sub, math.Float32frombits(0x007fffff), 0x1p-126,
		math.MaxFloat32, -math.MaxFloat32, 1e13, -3e19, 1e30, 0.5, -2, 100,
	}
	rng := rand.New(rand.NewSource(2))
	in := tensor.New(12, 9, 8)
	for i := range in.Data {
		if rng.Intn(3) == 0 {
			in.Data[i] = specials[rng.Intn(len(specials))]
		} else {
			in.Data[i] = logUniform(rng, 1e-3, 1e3)
		}
	}
	zeros := tensor.New(6, 2, 2)
	for i := range zeros.Data {
		if i%5 == 0 {
			zeros.Data[i] = 1
		}
	}
	params := []func(*LRN){
		func(*LRN) {},
		func(l *LRN) { l.Beta = 0.5 },
		func(l *LRN) { l.Beta = 1 },
		func(l *LRN) { l.Beta = math.Nextafter(0.75, 1) },
		func(l *LRN) { l.K = 0 },
		func(l *LRN) { l.K = 2; l.Alpha = 1e-2 },
		func(l *LRN) { l.Alpha = -1e-4 },
		func(l *LRN) { l.Size = 1 },
		func(l *LRN) { l.Size = 4 },
	}
	for i, set := range params {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			l := NewLRN("n")
			set(l)
			checkLRN(t, l, in)
			checkLRN(t, l, zeros)
		})
	}
}

// TestLRNQuotNearMidpoints checks lrnQuot on quotients built to land next
// to a float32 rounding midpoint, where a too-small lrnMargin rounds the
// other way from math.Pow: for a float32 f, mid is halfway to its
// successor and b = (|x|/mid)^(4/3), so x/b^0.75 is mid up to rounding.
// It also checks that random bases are almost never declined.
func TestLRNQuotNearMidpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const pairs = 200_000
	var bad, near, declined int
	for i := 0; i < pairs; i++ {
		x := float64(logUniform(rng, 1e-30, 1e30))
		f := float32(math.Abs(x) / math.Exp(rng.Float64()*33))
		mid := (float64(f) + float64(math.Nextafter32(f, float32(math.Inf(1))))) / 2
		b := math.Pow(math.Abs(x)/mid, 4.0/3)
		want := float32(x / math.Pow(b, 0.75))
		if q, ok := lrnQuot(x, b); ok {
			near++
			if float32(q) != want {
				bad++
			}
		}
		// A random base and an x whose quotient is float32-normal.
		x, b = float64(logUniform(rng, 1e-20, 1e30)), 1+math.Exp(rng.Float64()*44)
		if q, ok := lrnQuot(x, b); !ok {
			declined++
		} else if want := float32(x / math.Pow(b, 0.75)); float32(q) != want {
			t.Fatalf("lrnQuot(%g, %g) = %g, want %g", x, b, float32(q), want)
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d near-midpoint quotients (%d accepted) round unlike math.Pow", bad, pairs, near)
	}
	if declined > pairs/1000 {
		t.Fatalf("lrnQuot declined %d of %d random bases", declined, pairs)
	}
	t.Logf("near midpoints: %d of %d accepted; random bases: %d declined", near, pairs, declined)
}
