package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refMatMul is the textbook triple loop the optimized kernels are checked
// against. Accumulation is ascending k per element, the order every
// production path preserves, so comparisons can be exact.
func refMatMul(a, b *Matrix, bias []float32, relu bool) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			if bias != nil {
				s = bias[i]
			}
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			if relu && s < 0 {
				s = 0
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func randMatrix(rng *rand.Rand, rows, cols int, sparsity float64) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		if rng.Float64() >= sparsity {
			m.Data[i] = float32(rng.NormFloat64())
		}
	}
	return m
}

func matricesEqual(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: dims %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if v != want.Data[i] {
			t.Fatalf("%s: data[%d] = %v, want %v", name, i, v, want.Data[i])
		}
	}
}

// forEachPath runs f once per GEMM/SpMM path this CPU can take: the SSE2
// (or, off amd64, Go) loops, and the AVX tiles when the CPU has AVX.
func forEachPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer func(saved bool) { useAVX = saved }(useAVX)
	for _, avx := range []bool{false, true} {
		if avx && !hasAVX {
			continue
		}
		useAVX = avx
		t.Run(fmt.Sprintf("avx=%v", avx), f)
	}
}

func TestMatMulIntoMatchesReference(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		// Rows chosen to exercise the quad loop, the remainder rows, and
		// degenerate dims.
		for _, dims := range [][3]int{{4, 7, 9}, {5, 3, 8}, {7, 16, 2}, {1, 5, 5}, {3, 1, 1}, {8, 8, 8}, {0, 3, 4}, {2, 0, 3}, {2, 3, 0}} {
			a := randMatrix(rng, dims[0], dims[1], 0.2)
			b := randMatrix(rng, dims[1], dims[2], 0)
			want := refMatMul(a, b, nil, false)
			got := NewMatrix(dims[0], dims[2])
			for i := range got.Data {
				got.Data[i] = float32(math.NaN()) // dirty scratch must be overwritten
			}
			MatMulInto(got, a, b)
			matricesEqual(t, "MatMulInto", got, want)
			matricesEqual(t, "MatMul", MatMul(a, b), want)
		}
	})
}

func TestMatMulFusedIntoBiasRelu(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		a := randMatrix(rng, 6, 11, 0)
		b := randMatrix(rng, 11, 13, 0)
		bias := make([]float32, 6)
		for i := range bias {
			bias[i] = float32(rng.NormFloat64())
		}
		for _, relu := range []bool{false, true} {
			want := refMatMul(a, b, bias, relu)
			got := NewMatrix(6, 13)
			MatMulFusedInto(got, a, b, bias, relu)
			matricesEqual(t, "MatMulFusedInto", got, want)
		}
		if relu := refMatMul(a, b, bias, true); relu.Data[0] < 0 {
			t.Fatal("reference relu left a negative value")
		}
	})
}

func TestTiledGEMMMatchesFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("large tiled GEMM in -short mode")
	}
	// B must exceed gemmCacheBudget to engage the tiled path:
	// 1500×1500×4 B ≈ 8.6 MiB > 8 MiB.
	const k, n = 1500, 1500
	if k*n*4 <= gemmCacheBudget {
		t.Fatalf("test shape no longer exceeds gemmCacheBudget=%d", gemmCacheBudget)
	}
	rng := rand.New(rand.NewSource(3))
	a := randMatrix(rng, 9, k, 0)
	b := randMatrix(rng, k, n, 0)
	bias := make([]float32, 9)
	for i := range bias {
		bias[i] = float32(rng.NormFloat64())
	}
	want := NewMatrix(9, n)
	gemmRowsFlat(want, a, b, bias, 0, 9)
	got := NewMatrix(9, n)
	gemmRowsTiled(got, a, b, bias, 0, 9)
	matricesEqual(t, "gemmRowsTiled", got, want) // bit-identical: same per-element k order
	if hasAVX {
		gemmRowsAVX(got, a, b, bias, 0, 9)
		matricesEqual(t, "gemmRowsAVX", got, want)
	}
}

func TestParallelMatMulFusedIntoMatchesSerial(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		// 150×150 > ParallelThreshold elements so workers actually engage.
		a := randMatrix(rng, 150, 40, 0)
		b := randMatrix(rng, 40, 150, 0)
		bias := make([]float32, 150)
		for i := range bias {
			bias[i] = float32(rng.NormFloat64())
		}
		want := NewMatrix(150, 150)
		MatMulFusedInto(want, a, b, bias, true)
		for _, workers := range []int{2, 3, 8} {
			got := NewMatrix(150, 150)
			ParallelMatMulFusedInto(got, a, b, bias, true, workers)
			matricesEqual(t, "ParallelMatMulFusedInto", got, want)
		}
	})
}

func TestMatVecFusedInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMatrix(rng, 7, 12, 0.3)
	x := make([]float32, 12)
	bias := make([]float32, 7)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	for i := range bias {
		bias[i] = float32(rng.NormFloat64())
	}
	plain := MatVec(a, x)
	fused := make([]float32, 7)
	MatVecFusedInto(fused, a, x, bias, true)
	for i := range fused {
		want := plain[i] + bias[i]
		if want < 0 {
			want = 0
		}
		if fused[i] != want {
			t.Fatalf("fused[%d] = %v, want %v", i, fused[i], want)
		}
	}
}

func TestSpMMFusedIntoMatchesDense(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(6))
		w := randMatrix(rng, 9, 14, 0.6)
		b := randMatrix(rng, 14, 10, 0)
		bias := make([]float32, 9)
		for i := range bias {
			bias[i] = float32(rng.NormFloat64())
		}
		csr := ToCSR(w)
		for _, relu := range []bool{false, true} {
			want := refMatMul(w, b, bias, relu)
			got := NewMatrix(9, 10)
			for i := range got.Data {
				got.Data[i] = -999 // dirty
			}
			SpMMFusedInto(got, csr, b, bias, relu)
			// CSR visits the same nonzeros in ascending k; zeros contribute
			// exactly 0 to the reference, so results are bit-identical.
			matricesEqual(t, "SpMMFusedInto", got, want)
		}
		plain := SpMM(csr, b)
		matricesEqual(t, "SpMM", plain, refMatMul(w, b, nil, false))
	})
}

func TestSpMVFusedInto(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := randMatrix(rng, 8, 11, 0.5)
	x := make([]float32, 11)
	bias := make([]float32, 8)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	for i := range bias {
		bias[i] = float32(rng.NormFloat64())
	}
	csr := ToCSR(w)
	plain := SpMV(csr, x)
	fused := make([]float32, 8)
	SpMVFusedInto(fused, csr, x, bias, true)
	for i := range fused {
		want := plain[i] + bias[i]
		if want < 0 {
			want = 0
		}
		if fused[i] != want {
			t.Fatalf("fused[%d] = %v, want %v", i, fused[i], want)
		}
	}
}

func TestIm2ColIntoMatchesIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	geoms := []ConvGeom{
		{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 2, InH: 9, InW: 7, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2},
		{InC: 1, InH: 11, InW: 11, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 0, PadW: 0},
		{InC: 2, InH: 10, InW: 10, KH: 4, KW: 4, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
		{InC: 1, InH: 6, InW: 6, KH: 6, KW: 6, StrideH: 1, StrideW: 1, PadH: 0, PadW: 0},
	}
	for _, g := range geoms {
		if err := g.Validate(); err != nil {
			t.Fatalf("geom %+v: %v", g, err)
		}
		input := make([]float32, g.InC*g.InH*g.InW)
		for i := range input {
			input[i] = float32(rng.NormFloat64())
		}
		want := Im2Col(g, input)
		got := NewMatrix(want.Rows, want.Cols)
		for i := range got.Data {
			got.Data[i] = float32(math.Inf(1)) // dirty scratch: pads must be rewritten to zero
		}
		Im2ColInto(g, input, got)
		matricesEqual(t, "Im2ColInto", got, want)
	}
}

// im2colRef lowers input by the per-element rule: column oy·OW+ox of row
// (c·KH+kh)·KW+kw holds input[c][iy][ix] for iy = oy·StrideH−PadH+kh and
// ix = ox·StrideW−PadW+kw, or zero where that lies in the padding.
func im2colRef(g ConvGeom, input []float32) *Matrix {
	oh, ow := g.OutH(), g.OutW()
	m := NewMatrix(g.InC*g.KH*g.KW, oh*ow)
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy, ix := oy*g.StrideH-g.PadH+kh, ox*g.StrideW-g.PadW+kw
						if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
							m.Set((c*g.KH+kh)*g.KW+kw, oy*ow+ox, input[(c*g.InH+iy)*g.InW+ix])
						}
					}
				}
			}
		}
	}
	return m
}

// TestIm2ColUnitStrideMatchesRule checks the unit-stride fast path against
// the per-element rule on geometries Validate accepts, including padding
// as wide as or wider than the input, where a kernel column's valid
// output range lies wholly outside the row.
func TestIm2ColUnitStrideMatchesRule(t *testing.T) {
	geoms := []ConvGeom{
		{InC: 1, InH: 1, InW: 1, KH: 1, KW: 11, StrideH: 1, StrideW: 1, PadW: 5},
		{InC: 1, InH: 3, InW: 2, KH: 3, KW: 7, StrideH: 1, StrideW: 1, PadH: 1, PadW: 3},
		{InC: 2, InH: 2, InW: 3, KH: 2, KW: 9, StrideH: 1, StrideW: 1, PadW: 4},
		{InC: 1, InH: 4, InW: 1, KH: 3, KW: 5, StrideH: 2, StrideW: 1, PadH: 2, PadW: 6},
		{InC: 2, InH: 5, InW: 4, KH: 1, KW: 1, StrideH: 1, StrideW: 1, PadH: 3, PadW: 3},
		{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 1, InH: 6, InW: 6, KH: 6, KW: 6, StrideH: 1, StrideW: 1},
	}
	rng := rand.New(rand.NewSource(25))
	for _, g := range geoms {
		if err := g.Validate(); err != nil {
			t.Fatalf("geom %+v: %v", g, err)
		}
		input := normalFloats(rng, g.InC*g.InH*g.InW)
		want := im2colRef(g, input)
		got := NewMatrix(want.Rows, want.Cols)
		for i := range got.Data {
			got.Data[i] = float32(math.NaN()) // dirty: every pad must be rewritten
		}
		Im2ColInto(g, input, got)
		matricesEqual(t, fmt.Sprintf("Im2ColInto %+v", g), got, want)
	}
}

func TestMatrixReset(t *testing.T) {
	var m Matrix
	data := []float32{1, 2, 3, 4, 5, 6}
	m.Reset(data, 2, 3)
	if m.Rows != 2 || m.Cols != 3 || m.At(1, 2) != 6 {
		t.Fatalf("Reset header wrong: %+v", m)
	}
	if allocs := testing.AllocsPerRun(100, func() { m.Reset(data, 3, 2) }); allocs != 0 {
		t.Fatalf("Matrix.Reset allocs = %v, want 0", allocs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched Reset dims")
		}
	}()
	m.Reset(data, 2, 2)
}

func TestTensorSetData(t *testing.T) {
	tt := New(2, 2)
	data := make([]float32, 12)
	for i := range data {
		data[i] = float32(i)
	}
	tt.SetData(data, 3, 4)
	if tt.Dim(0) != 3 || tt.Dim(1) != 4 || tt.At(2, 3) != 11 {
		t.Fatalf("SetData header wrong: shape %v", tt.Shape)
	}
	// Steady-state rebinds with rank ≤ the header's capacity are alloc-free.
	if allocs := testing.AllocsPerRun(100, func() { tt.SetData(data, 4, 3) }); allocs != 0 {
		t.Fatalf("SetData allocs = %v, want 0", allocs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched SetData volume")
		}
	}()
	tt.SetData(data, 5, 5)
}

// BenchmarkMatMulInto times the allocation-free GEMM at the Caffenet conv2
// shape — the same product BenchmarkMatMul measures with allocation.
func BenchmarkMatMulInto(b *testing.B) {
	const rows, inner, cols = 256, 1200, 729
	w := NewMatrix(rows, inner)
	x := NewMatrix(inner, cols)
	for i := range w.Data {
		w.Data[i] = float32(i%13) - 6
	}
	for i := range x.Data {
		x.Data[i] = float32(i%7) - 3
	}
	dst := NewMatrix(rows, cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, w, x)
	}
}

// BenchmarkIm2ColInto times the allocation-free lowering on the Caffenet
// conv2 geometry.
func BenchmarkIm2ColInto(b *testing.B) {
	g := ConvGeom{InC: 48, InH: 27, InW: 27, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}
	input := make([]float32, g.InC*g.InH*g.InW)
	for i := range input {
		input[i] = float32(i%11) - 5
	}
	dst := NewMatrix(g.InC*g.KH*g.KW, g.OutH()*g.OutW())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2ColInto(g, input, dst)
	}
}
