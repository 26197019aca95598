package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// normalFloats returns n draws from N(0, 1).
func normalFloats(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

// bothPaths runs kernel once with the SSE2 loops and once with the AVX
// tiles, each into a copy of dst, and fails on the first output whose bits
// differ.
func bothPaths(t *testing.T, name string, dst *Matrix, kernel func(dst *Matrix)) {
	t.Helper()
	defer func(saved bool) { useAVX = saved }(useAVX)
	var out [2]*Matrix
	for i, avx := range []bool{false, true} {
		useAVX = avx
		out[i] = dst.Clone()
		kernel(out[i])
	}
	if i := sameBits(out[1].Data, out[0].Data); i >= 0 {
		t.Fatalf("%s: AVX c[%d,%d] = %v (%#x), SSE2 %v (%#x)", name, i/dst.Cols, i%dst.Cols,
			out[1].Data[i], math.Float32bits(out[1].Data[i]), out[0].Data[i], math.Float32bits(out[0].Data[i]))
	}
}

// TestAVXPathMatchesSSE2 compares the AVX tile walks with the SSE2 loops,
// bit for bit, through MatMulFusedInto and SpMMFusedInto: row counts
// that leave every remainder after the row quads, widths on both sides of
// a tile and of a panel, K from 0 and across two k-block edges, with and
// without bias and ReLU, on normal inputs and on inputs mixed with
// specialFloats and zeros. Each fill draws from its own seeded rng, so
// every run sees the same inputs.
func TestAVXPathMatchesSSE2(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX on this CPU")
	}
	fills := []struct {
		name string
		draw func(*rand.Rand, int) []float32
	}{
		{"normal", normalFloats},
		{"special", mixedFloats},
	}
	for fi, fill := range fills {
		rng := rand.New(rand.NewSource(22 + int64(fi)))
		values := func(n int) []float32 { return fill.draw(rng, n) }
		for _, m := range []int{1, 4, 6, 11} {
			for _, n := range []int{1, 15, 17, 33, avxPanel - 1, avxPanel, avxPanel + 9, 2*avxPanel + 31} {
				for _, k := range []int{0, 1, 9, 2*gemmBlockK + 3} {
					a := MatrixFromSlice(values(m*k), m, k)
					for i := range a.Data {
						if rng.Intn(3) == 0 {
							a.Data[i] = 0 // gemmRow skips these; the quads must not
						}
					}
					b := MatrixFromSlice(values(k*n), k, n)
					csr := ToCSR(a)
					dst := MatrixFromSlice(values(m*n), m, n)
					for _, bias := range [][]float32{nil, values(m)} {
						for _, relu := range []bool{false, true} {
							name := fmt.Sprintf("%s %dx%d·%dx%d bias=%v relu=%v", fill.name, m, k, k, n, bias != nil, relu)
							bothPaths(t, "MatMul "+name, dst, func(d *Matrix) { MatMulFusedInto(d, a, b, bias, relu) })
							bothPaths(t, "SpMM "+name, dst, func(d *Matrix) { SpMMFusedInto(d, csr, b, bias, relu) })
						}
					}
				}
			}
		}
	}
}

// TestCaffenetShapesAVXMatchSSE2 runs every Caffenet conv's per-group
// product through both paths, dense and on 50% filter-pruned CSR weights,
// with the fused bias and ReLU, and compares them bit for bit.
func TestCaffenetShapesAVXMatchSSE2(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX on this CPU")
	}
	rng := rand.New(rand.NewSource(23))
	for _, s := range caffenetGEMMs {
		w := MatrixFromSlice(normalFloats(rng, s.m*s.k), s.m, s.k)
		x := MatrixFromSlice(normalFloats(rng, s.k*s.n), s.k, s.n)
		bias := normalFloats(rng, s.m)
		csr := ToCSR(filterPruned(w))
		dst := NewMatrix(s.m, s.n)
		bothPaths(t, s.name+" dense", dst, func(d *Matrix) { MatMulFusedInto(d, w, x, bias, true) })
		bothPaths(t, s.name+" csr", dst, func(d *Matrix) { SpMMFusedInto(d, csr, x, bias, true) })
	}
}

// TestFusedKernelsZeroAllocs pins that neither path allocates: the tiles
// read A and B in place and write straight into dst. A batch of
// matrix-vector products below the parallel size allocates nothing either.
func TestFusedKernelsZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := randMatrix(rng, 10, 40, 0.5)
	b := randMatrix(rng, 40, 150, 0)
	csr := ToCSR(a)
	bias := make([]float32, 10)
	dst := NewMatrix(10, 150)
	xs := [][]float32{b.Row(0)[:40], b.Row(1)[:40], b.Row(2)[:40]}
	ys := [][]float32{dst.Row(0)[:10], dst.Row(1)[:10], dst.Row(2)[:10]}
	forEachPath(t, func(t *testing.T) {
		for name, kernel := range map[string]func(){
			"MatMulFusedInto":          func() { MatMulFusedInto(dst, a, b, bias, true) },
			"SpMMFusedInto":            func() { SpMMFusedInto(dst, csr, b, bias, true) },
			"MatVecFusedInto":          func() { MatVecFusedInto(ys[0], a, xs[0], bias, true) },
			"ParallelMatVecsFusedInto": func() { ParallelMatVecsFusedInto(ys, a, xs, bias, true, 2) },
		} {
			if allocs := testing.AllocsPerRun(20, kernel); allocs != 0 {
				t.Errorf("%s allocs = %v, want 0", name, allocs)
			}
		}
	})
}
