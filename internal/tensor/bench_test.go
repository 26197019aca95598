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

// caffenetFCs are the weight shapes of Caffenet's fully-connected layers,
// rows × K: 151, 67 and 16 MB of weights.
var caffenetFCs = []struct {
	name    string
	rows, k int
}{
	{"fc1", 4096, 9216},
	{"fc2", 4096, 4096},
	{"fc3", 1000, 4096},
}

// BenchmarkMatVecs times ParallelMatVecsFusedInto on two workers at each
// Caffenet FC shape and batches of 1, 2, 4 and 8 images: the engine's
// version of the paper's Figure 5 for its FC layers. It reports ms per
// image and the weight bytes per second of one pass over W per call.
func BenchmarkMatVecs(b *testing.B) {
	for _, s := range caffenetFCs {
		w := benchMatrix(s.rows, s.k, 1, 15)
		bias := benchMatrix(1, s.rows, 1, 16).Data
		for _, batch := range []int{1, 2, 4, 8} {
			xs, ys := make([][]float32, batch), make([][]float32, batch)
			for i := range xs {
				xs[i] = benchMatrix(1, s.k, 1, int64(17+i)).Data
				ys[i] = make([]float32, s.rows)
			}
			b.Run(fmt.Sprintf("%s/B=%d", s.name, batch), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ParallelMatVecsFusedInto(ys, w, xs, bias, true, 2)
				}
				sec := b.Elapsed().Seconds() / float64(b.N)
				b.ReportMetric(1e3*sec/float64(batch), "ms/image")
				b.ReportMetric(4*float64(s.rows*s.k)/sec/1e9, "weight-GB/s")
			})
		}
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

// caffenetGEMMs are the per-group products of Caffenet's five conv layers:
// filters (m) × C·KH·KW (k) times C·KH·KW × OH·OW (n). conv2, conv4 and
// conv5 run as two such groups.
var caffenetGEMMs = []struct {
	name    string
	m, k, n int
}{
	{"conv1", 96, 363, 3025},
	{"conv2", 128, 1200, 729},
	{"conv3", 384, 2304, 169},
	{"conv4", 192, 1728, 169},
	{"conv5", 128, 1728, 169},
}

// filterPruned zeroes every other row of w, as a 50% L1-filter pruning
// leaves a conv's weights.
func filterPruned(w *Matrix) *Matrix {
	p := w.Clone()
	for i := 1; i < p.Rows; i += 2 {
		clear(p.Row(i))
	}
	return p
}

// BenchmarkGEMMOversized times a product on the oversized side of both
// walks: B (8192×288, 9 MiB) exceeds gemmCacheBudget, so the SSE2 path
// takes gemmRowsTiled, and a full-depth AVX panel (8192×avxPanel floats,
// 4 MiB) would overflow a 2 MiB L2 without the gemmBlockK k blocks.
func BenchmarkGEMMOversized(b *testing.B) {
	const m, k, n = 128, 8192, 288
	w := benchMatrix(m, k, 1, 13)
	x := benchMatrix(k, n, 1, 14)
	dst := NewMatrix(m, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, w, x)
	}
	b.ReportMetric(2*float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkConvGEMM times one group of each Caffenet conv with its fused
// bias and ReLU epilogue: the dense GEMM, and the CSR SpMM on 50%
// filter-pruned weights. GFLOP/s counts 2·m·k·n for dense and 2·NNZ·n
// for CSR, as ccbench's kernel replays do.
func BenchmarkConvGEMM(b *testing.B) {
	for _, s := range caffenetGEMMs {
		w := benchMatrix(s.m, s.k, 1, 10)
		x := benchMatrix(s.k, s.n, 1, 11)
		bias := benchMatrix(1, s.m, 1, 12).Data
		dst := NewMatrix(s.m, s.n)
		csr := ToCSR(filterPruned(w))
		b.Run(s.name+"/dense", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMulFusedInto(dst, w, x, bias, true)
			}
			b.ReportMetric(2*float64(s.m*s.k*s.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
		b.Run(s.name+"/csr", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SpMMFusedInto(dst, csr, x, bias, true)
			}
			b.ReportMetric(2*float64(csr.NNZ()*s.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
