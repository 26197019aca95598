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

// rowPatterns lay out CSR rows for the quad walk of spmmRowsAVX: F is a
// full row (no zero), P a partial one (one exact zero) and E an empty
// one. Each names a case the walk must get right: a quad with empty rows
// between its members, a partial row inside or before a run, the 0–3
// full rows a run leaves, and a layer with every filter pruned.
var rowPatterns = []string{"FFFF", "FEFEFEF", "FFPFFFF", "PFFFF", "FFF", "FFFFF", "FFFFFFFFE", "EEEE"}

// randomRowPattern returns 0–13 rows, half of them full.
func randomRowPattern(rng *rand.Rand) string {
	p := make([]byte, rng.Intn(14))
	for i := range p {
		p[i] = "FFPE"[rng.Intn(4)]
	}
	return string(p)
}

// patternRows returns a len(pattern)×k matrix of values laid out as
// pattern says. At k = 1 a P row is empty.
func patternRows(rng *rand.Rand, pattern string, k int, values func(int) []float32) *Matrix {
	a := MatrixFromSlice(values(len(pattern)*k), len(pattern), k)
	for i := range pattern {
		row := a.Row(i)
		for j, v := range row {
			if v == 0 {
				row[j] = 1
			}
		}
		switch {
		case pattern[i] == 'P' && k > 0:
			row[rng.Intn(k)] = 0
		case pattern[i] == 'E':
			clear(row)
		}
	}
	return a
}

// TestAVXPathMatchesSSE2 compares the AVX tile walks with the SSE2 loops,
// bit for bit, through MatMulFusedInto and SpMMFusedInto: row counts
// that leave every remainder after the row quads, widths on both sides of
// a tile and of a panel, K from 0 and across two k-block edges, with and
// without bias and ReLU, on normal inputs and on inputs mixed with
// specialFloats and zeros. SpMMFusedInto also runs on rowPatterns and
// random row patterns, in B and in the nonzeros alike. Each fill draws
// from its own seeded rng, so every run sees the same inputs.
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
	widths := []int{1, 15, 17, 33, avxPanel - 1, avxPanel, avxPanel + 9, 2*avxPanel + 31}
	depths := []int{0, 1, 9, 2*gemmBlockK + 3}
	for fi, fill := range fills {
		rng := rand.New(rand.NewSource(22 + int64(fi)))
		values := func(n int) []float32 { return fill.draw(rng, n) }
		for _, m := range []int{1, 4, 6, 11} {
			for _, n := range widths {
				for _, k := range depths {
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
		patterns := append([]string(nil), rowPatterns...)
		for range 8 {
			patterns = append(patterns, randomRowPattern(rng))
		}
		for _, pattern := range patterns {
			m := len(pattern)
			for _, n := range widths {
				for _, k := range depths {
					csr := ToCSR(patternRows(rng, pattern, k, values))
					b := MatrixFromSlice(values(k*n), k, n)
					dst := MatrixFromSlice(values(m*n), m, n)
					for _, bias := range [][]float32{nil, values(m)} {
						for _, relu := range []bool{false, true} {
							name := fmt.Sprintf("SpMM %s rows %q·%dx%d bias=%v relu=%v", fill.name, pattern, k, n, bias != nil, relu)
							bothPaths(t, name, dst, func(d *Matrix) { SpMMFusedInto(d, csr, b, bias, relu) })
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
// read A and B in place and write straight into dst, and the CSR quad
// walk (on filter-pruned weights) stages its outputs on the stack. A
// batch of matrix-vector products below the parallel size allocates
// nothing either.
func TestFusedKernelsZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := randMatrix(rng, 10, 40, 0.5)
	b := randMatrix(rng, 40, 150, 0)
	csr := ToCSR(a)
	filters := ToCSR(filterPruned(randMatrix(rng, 10, 40, 0)))
	bias := make([]float32, 10)
	dst := NewMatrix(10, 150)
	xs := [][]float32{b.Row(0)[:40], b.Row(1)[:40], b.Row(2)[:40]}
	ys := [][]float32{dst.Row(0)[:10], dst.Row(1)[:10], dst.Row(2)[:10]}
	forEachPath(t, func(t *testing.T) {
		for name, kernel := range map[string]func(){
			"MatMulFusedInto":          func() { MatMulFusedInto(dst, a, b, bias, true) },
			"SpMMFusedInto":            func() { SpMMFusedInto(dst, csr, b, bias, true) },
			"SpMMFusedInto/filters":    func() { SpMMFusedInto(dst, filters, b, bias, true) },
			"MatVecFusedInto":          func() { MatVecFusedInto(ys[0], a, xs[0], bias, true) },
			"ParallelMatVecsFusedInto": func() { ParallelMatVecsFusedInto(ys, a, xs, bias, true, 2) },
		} {
			if allocs := testing.AllocsPerRun(20, kernel); allocs != 0 {
				t.Errorf("%s allocs = %v, want 0", name, allocs)
			}
		}
	})
}
