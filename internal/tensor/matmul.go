package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// Matrix is a dense row-major 2-D view. Rows*Cols == len(Data).
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative matrix dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// MatrixFromSlice wraps data without copying.
func MatrixFromSlice(data []float32, rows, cols int) *Matrix {
	if rows*cols != len(data) {
		panic(fmt.Sprintf("tensor: matrix %dx%d needs %d elements, got %d", rows, cols, rows*cols, len(data)))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Reset rebinds the matrix header to data with the given dims, without
// allocating — the workspace path reuses one header across forward calls.
func (m *Matrix) Reset(data []float32, rows, cols int) {
	if rows*cols != len(data) {
		panic(fmt.Sprintf("tensor: matrix %dx%d needs %d elements, got %d", rows, cols, rows*cols, len(data)))
	}
	m.Rows, m.Cols, m.Data = rows, cols, data
}

// At returns element (r,c).
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set stores v at (r,c).
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns a slice aliasing row r.
func (m *Matrix) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// NNZ returns the number of non-zero entries.
func (m *Matrix) NNZ() int {
	n := 0
	for _, v := range m.Data {
		if v != 0 {
			n++
		}
	}
	return n
}

// Sparsity returns the zero fraction in [0,1].
func (m *Matrix) Sparsity() float64 {
	if len(m.Data) == 0 {
		return 0
	}
	return 1 - float64(m.NNZ())/float64(len(m.Data))
}

// GEMM cache-blocking parameters (see docs/KERNELS.md). The kernel is
// tiled over j and k, but the tiles engage only when the B operand
// exceeds gemmCacheBudget. When B is LLC-resident — every model-zoo conv
// GEMM in this repo — tiling bought nothing: with the scalar inner loop it
// cost 15–30% on the Caffenet conv2 shape, and with the SSE2 one conv2
// runs at the same speed flat or tiled. Oversized products fall back to a
// blockK×blockJ B panel (2 MiB) that stays cache-resident while every A
// row quad streams over it. Accumulation order per output element is
// ascending k regardless of tiling, so blocked and unblocked paths produce
// bit-identical results.
const (
	gemmBlockJ      = 1024
	gemmBlockK      = 512
	gemmCacheBudget = 8 << 20
)

// ParallelThreshold is the dst element count below which row-parallel GEMM
// dispatch falls back to the serial kernel: goroutine fan-out costs more
// than it saves on small products.
const ParallelThreshold = 1 << 14

// MatMul computes C = A × B into a freshly allocated matrix.
// It panics on dimension mismatch.
func MatMul(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	MatMulInto(c, a, b)
	return c
}

// MatMulInto computes C = A × B into dst, overwriting it. dst must be
// a.Rows × b.Cols and must not alias a or b. It panics on mismatch.
func MatMulInto(dst, a, b *Matrix) {
	MatMulFusedInto(dst, a, b, nil, false)
}

// MatMulFusedInto computes C = A × B into dst with a fused epilogue: each
// output row i is initialized to bias[i] (zero when bias is nil) before
// accumulation, and relu clamps the finished rows to max(0, ·) — the
// conv/fc fast path runs GEMM, bias and activation as one kernel call
// instead of three passes over the output.
func MatMulFusedInto(dst, a, b *Matrix, bias []float32, relu bool) {
	checkGEMM("MatMul", dst, a, b, bias)
	gemmRows(dst, a, b, bias, relu, 0, a.Rows)
}

// ParallelMatMul computes C = A × B splitting rows of A across workers.
// workers <= 0 uses GOMAXPROCS.
func ParallelMatMul(a, b *Matrix, workers int) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	ParallelMatMulFusedInto(c, a, b, nil, false, workers)
	return c
}

// ParallelMatMulInto computes C = A × B into dst, splitting rows of A
// across workers. Small products (dst smaller than ParallelThreshold
// elements) run serially.
func ParallelMatMulInto(dst, a, b *Matrix, workers int) {
	ParallelMatMulFusedInto(dst, a, b, nil, false, workers)
}

// ParallelMatMulFusedInto is MatMulFusedInto with rows of A split across
// workers (≤ 0 uses GOMAXPROCS). The epilogue is row-local, so each worker
// fuses bias and activation for its own row range.
func ParallelMatMulFusedInto(dst, a, b *Matrix, bias []float32, relu bool, workers int) {
	checkGEMM("ParallelMatMul", dst, a, b, bias)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > a.Rows {
		workers = a.Rows
	}
	if workers <= 1 || a.Rows*b.Cols < ParallelThreshold {
		gemmRows(dst, a, b, bias, relu, 0, a.Rows)
		return
	}
	var wg sync.WaitGroup
	chunk := (a.Rows + workers - 1) / workers
	for r0 := 0; r0 < a.Rows; r0 += chunk {
		r1 := r0 + chunk
		if r1 > a.Rows {
			r1 = a.Rows
		}
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			gemmRows(dst, a, b, bias, relu, r0, r1)
		}(r0, r1)
	}
	wg.Wait()
}

func checkGEMM(kernel string, dst, a, b *Matrix, bias []float32) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: %s %dx%d × %dx%d", kernel, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s dst %dx%d, want %dx%d", kernel, dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	if bias != nil && len(bias) != a.Rows {
		panic(fmt.Sprintf("tensor: %s bias len %d, want %d", kernel, len(bias), a.Rows))
	}
}

// gemmRows computes rows [r0,r1) of C = A×B with register blocking (quads
// of A rows share each streamed B row), bias row initialization and an
// optional ReLU epilogue. B operands within gemmCacheBudget — every
// model-zoo shape — take the flat single-tile path; larger products go
// through the j/k-tiled panel walk.
func gemmRows(dst, a, b *Matrix, bias []float32, relu bool, r0, r1 int) {
	if b.Cols == 0 {
		return
	}
	if a.Cols*b.Cols*4 <= gemmCacheBudget {
		gemmRowsFlat(dst, a, b, bias, r0, r1)
	} else {
		gemmRowsTiled(dst, a, b, bias, r0, r1)
	}
	if relu {
		reluInPlace(dst.Data[r0*dst.Cols : r1*dst.Cols])
	}
}

// initRow seeds one output row with its bias value (zero when bias is nil).
func initRow(ci []float32, bias []float32, i int) {
	if bias == nil {
		clear(ci)
		return
	}
	v := bias[i]
	for j := range ci {
		ci[j] = v
	}
}

// gemmQuad accumulates four output row segments against their A rows:
// cX[j] += aX[k]·b[k·stride+j] for k in [0,len(a0)). There is no
// zero-skip branch: it pays ~15% on dense weights and sparse ones
// execute through CSR instead.
func gemmQuad(c0, c1, c2, c3, a0, a1, a2, a3, b []float32, stride int) {
	w := len(c0)
	a1 = a1[:len(a0)]
	a2 = a2[:len(a0)]
	a3 = a3[:len(a0)]
	for k := range a0 {
		axpy4(b[k*stride:k*stride+w], c0, c1, c2, c3, a0[k], a1[k], a2[k], a3[k])
	}
}

// gemmRow is the single-row remainder kernel: ci[j] += ai[k]·b[k·stride+j].
// Unlike the quad kernel it skips zero A entries — with one row the branch
// is cheap and pruned-but-dense weights still benefit.
func gemmRow(ci, ai, b []float32, stride int) {
	w := len(ci)
	for k, av := range ai {
		if av == 0 {
			continue
		}
		axpy1(b[k*stride:k*stride+w], ci, av)
	}
}

// gemmRowsFlat is the in-cache fast path: full-width rows, no j/k tiling.
func gemmRowsFlat(dst, a, b *Matrix, bias []float32, r0, r1 int) {
	n := b.Cols
	kTot := a.Cols
	i := r0
	for ; i+4 <= r1; i += 4 {
		c0 := dst.Data[(i+0)*n : (i+1)*n]
		c1 := dst.Data[(i+1)*n : (i+2)*n]
		c2 := dst.Data[(i+2)*n : (i+3)*n]
		c3 := dst.Data[(i+3)*n : (i+4)*n]
		initRow(c0, bias, i+0)
		initRow(c1, bias, i+1)
		initRow(c2, bias, i+2)
		initRow(c3, bias, i+3)
		gemmQuad(c0, c1, c2, c3,
			a.Data[(i+0)*kTot:(i+1)*kTot],
			a.Data[(i+1)*kTot:(i+2)*kTot],
			a.Data[(i+2)*kTot:(i+3)*kTot],
			a.Data[(i+3)*kTot:(i+4)*kTot],
			b.Data, n)
	}
	for ; i < r1; i++ {
		ci := dst.Data[i*n : (i+1)*n]
		initRow(ci, bias, i)
		gemmRow(ci, a.Data[i*kTot:(i+1)*kTot], b.Data, n)
	}
}

// gemmRowsTiled walks B in blockK×blockJ panels so each panel stays
// cache-resident while every A row quad streams over it. Per-element
// accumulation order is still ascending k, so results are bit-identical
// to the flat path.
func gemmRowsTiled(dst, a, b *Matrix, bias []float32, r0, r1 int) {
	n := b.Cols
	kTot := a.Cols
	for i := r0; i < r1; i++ {
		initRow(dst.Data[i*n:(i+1)*n], bias, i)
	}
	for jj := 0; jj < n; jj += gemmBlockJ {
		jw := gemmBlockJ
		if jj+jw > n {
			jw = n - jj
		}
		for kk := 0; kk < kTot; kk += gemmBlockK {
			kw := kk + gemmBlockK
			if kw > kTot {
				kw = kTot
			}
			// B panel for this tile, offset so row k of the panel
			// starts at element k·n.
			bp := b.Data[kk*n+jj:]
			i := r0
			for ; i+4 <= r1; i += 4 {
				gemmQuad(
					dst.Data[(i+0)*n+jj:(i+0)*n+jj+jw],
					dst.Data[(i+1)*n+jj:(i+1)*n+jj+jw],
					dst.Data[(i+2)*n+jj:(i+2)*n+jj+jw],
					dst.Data[(i+3)*n+jj:(i+3)*n+jj+jw],
					a.Data[(i+0)*kTot+kk:(i+0)*kTot+kw],
					a.Data[(i+1)*kTot+kk:(i+1)*kTot+kw],
					a.Data[(i+2)*kTot+kk:(i+2)*kTot+kw],
					a.Data[(i+3)*kTot+kk:(i+3)*kTot+kw],
					bp, n)
			}
			for ; i < r1; i++ {
				gemmRow(dst.Data[i*n+jj:i*n+jj+jw],
					a.Data[i*kTot+kk:i*kTot+kw], bp, n)
			}
		}
	}
}

// MatVec computes y = A × x. It panics on dimension mismatch.
func MatVec(a *Matrix, x []float32) []float32 {
	y := make([]float32, a.Rows)
	MatVecInto(y, a, x)
	return y
}

// MatVecInto computes y = A × x into y (len a.Rows), overwriting it.
func MatVecInto(y []float32, a *Matrix, x []float32) {
	MatVecFusedInto(y, a, x, nil, false)
}

// MatVecFusedInto computes y = A × x + bias with an optional ReLU clamp,
// into y. bias may be nil (zero). This is the fully-connected fast path.
func MatVecFusedInto(y []float32, a *Matrix, x []float32, bias []float32, relu bool) {
	if a.Cols != len(x) {
		panic(fmt.Sprintf("tensor: MatVec %dx%d × %d", a.Rows, a.Cols, len(x)))
	}
	if len(y) != a.Rows {
		panic(fmt.Sprintf("tensor: MatVec dst len %d, want %d", len(y), a.Rows))
	}
	if bias != nil && len(bias) != a.Rows {
		panic(fmt.Sprintf("tensor: MatVec bias len %d, want %d", len(bias), a.Rows))
	}
	// Four rows share each pass over x. Every row keeps its own single
	// accumulator summed in ascending j, so each output is bit-identical
	// to the one-row loop the remainder rows take.
	i := 0
	for ; i+4 <= a.Rows; i += 4 {
		r0 := a.Row(i)
		r1 := a.Row(i + 1)[:len(r0)]
		r2 := a.Row(i + 2)[:len(r0)]
		r3 := a.Row(i + 3)[:len(r0)]
		x := x[:len(r0)]
		var s0, s1, s2, s3 float32
		for j, xv := range x {
			s0 += r0[j] * xv
			s1 += r1[j] * xv
			s2 += r2[j] * xv
			s3 += r3[j] * xv
		}
		y[i] = matVecOut(s0, bias, i, relu)
		y[i+1] = matVecOut(s1, bias, i+1, relu)
		y[i+2] = matVecOut(s2, bias, i+2, relu)
		y[i+3] = matVecOut(s3, bias, i+3, relu)
	}
	for ; i < a.Rows; i++ {
		y[i] = matVecOut(dotRow(a.Row(i), x), bias, i, relu)
	}
}

// dotRow is one row of MatVec: Σ row[j]·x[j] in ascending j.
func dotRow(row, x []float32) float32 {
	var s float32
	for j, v := range row {
		s += v * x[j]
	}
	return s
}

// matVecOut is the MatVec epilogue for output i: add bias[i] (when bias
// is non-nil), then clamp to max(0, ·) when relu is set.
func matVecOut(s float32, bias []float32, i int, relu bool) float32 {
	if bias != nil {
		s += bias[i]
	}
	if relu && s < 0 {
		s = 0
	}
	return s
}

// Transpose returns Aᵀ.
func Transpose(a *Matrix) *Matrix {
	t := NewMatrix(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			t.Data[j*a.Rows+i] = a.Data[i*a.Cols+j]
		}
	}
	return t
}
