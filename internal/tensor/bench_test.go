package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchMatrix(rows, cols int, density float64, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		if rng.Float64() < density {
			m.Data[i] = rng.Float32() - 0.5
		}
	}
	return m
}

// BenchmarkMatMul measures the dense GEMM kernel at the Caffenet conv2
// shape (the hottest kernel of the inference engine).
func BenchmarkMatMul(b *testing.B) {
	a := benchMatrix(256, 1200, 1, 1)
	x := benchMatrix(1200, 729, 1, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(a, x)
	}
}

// BenchmarkParallelMatMul measures the row-parallel GEMM at worker counts.
func BenchmarkParallelMatMul(b *testing.B) {
	a := benchMatrix(256, 1200, 1, 1)
	x := benchMatrix(1200, 729, 1, 2)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ParallelMatMul(a, x, w)
			}
		})
	}
}

// BenchmarkSpMM measures the sparse kernel pruned layers execute through.
func BenchmarkSpMM(b *testing.B) {
	for _, density := range []float64{0.5, 0.1} {
		s := ToCSR(benchMatrix(256, 1200, density, 3))
		x := benchMatrix(1200, 729, 1, 4)
		b.Run(fmt.Sprintf("density=%.0f%%", density*100), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SpMM(s, x)
			}
		})
	}
}

// BenchmarkIm2Col measures the convolution lowering at Caffenet conv2
// geometry.
func BenchmarkIm2Col(b *testing.B) {
	g := ConvGeom{InC: 48, InH: 27, InW: 27, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}
	in := make([]float32, g.InC*g.InH*g.InW)
	for i := range in {
		in[i] = float32(i%7) - 3
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Im2Col(g, in)
	}
}

// BenchmarkToCSR measures sparse-structure construction after pruning.
func BenchmarkToCSR(b *testing.B) {
	m := benchMatrix(256, 1200, 0.5, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ToCSR(m)
	}
}

// BenchmarkMatVec measures the fully-connected kernel at the Caffenet fc1
// shape (4096×9216): one streaming pass over 151 MB of weights per call,
// with the fused bias and ReLU epilogue.
func BenchmarkMatVec(b *testing.B) {
	a := benchMatrix(4096, 9216, 1, 6)
	x := benchMatrix(1, 9216, 1, 7).Data
	bias := benchMatrix(1, 4096, 1, 8).Data
	y := make([]float32, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVecFusedInto(y, a, x, bias, true)
	}
}

// BenchmarkReLU measures the fused epilogue's ReLU clamp over a Caffenet
// conv1 output (96×3025), about half of it negative as a GEMM leaves it.
// The input is restored outside the timer, since the clamp works in place.
func BenchmarkReLU(b *testing.B) {
	src := benchMatrix(96, 3025, 1, 9)
	m := src.Clone()
	b.SetBytes(int64(4 * len(m.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(m.Data, src.Data)
		b.StartTimer()
		reluInPlace(m.Data)
	}
}
