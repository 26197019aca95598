package tensor

import "fmt"

// CSR is a compressed-sparse-row matrix. Pruned CNN layers are executed
// through CSR kernels, mirroring the sparse-BLAS extensions of the Caffe
// fork the paper uses.
type CSR struct {
	Rows, Cols int
	RowPtr     []int32   // len Rows+1
	ColIdx     []int32   // len NNZ, ascending within each row
	Val        []float32 // len NNZ
}

// ToCSR converts a dense matrix to CSR, dropping exact zeros.
func ToCSR(m *Matrix) *CSR {
	c := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int32, m.Rows+1)}
	nnz := m.NNZ()
	c.ColIdx = make([]int32, 0, nnz)
	c.Val = make([]float32, 0, nnz)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			if v != 0 {
				c.ColIdx = append(c.ColIdx, int32(j))
				c.Val = append(c.Val, v)
			}
		}
		c.RowPtr[i+1] = int32(len(c.Val))
	}
	return c
}

// ToDense converts back to a dense matrix.
func (c *CSR) ToDense() *Matrix {
	m := NewMatrix(c.Rows, c.Cols)
	for i := 0; i < c.Rows; i++ {
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			m.Data[i*c.Cols+int(c.ColIdx[p])] = c.Val[p]
		}
	}
	return m
}

// NNZ returns the stored non-zero count.
func (c *CSR) NNZ() int { return len(c.Val) }

// Sparsity returns the zero fraction in [0,1].
func (c *CSR) Sparsity() float64 {
	total := c.Rows * c.Cols
	if total == 0 {
		return 0
	}
	return 1 - float64(len(c.Val))/float64(total)
}

// At returns element (r,c) by scanning row r.
func (c *CSR) At(r, col int) float32 {
	for p := c.RowPtr[r]; p < c.RowPtr[r+1]; p++ {
		if int(c.ColIdx[p]) == col {
			return c.Val[p]
		}
	}
	return 0
}

// SpMM computes C = S × B where S is sparse and B dense.
// This is the kernel pruned convolution layers run through: its work is
// proportional to NNZ(S)·B.Cols rather than S.Rows·S.Cols·B.Cols.
func SpMM(s *CSR, b *Matrix) *Matrix {
	c := NewMatrix(s.Rows, b.Cols)
	SpMMInto(c, s, b)
	return c
}

// SpMMInto computes C = S × B into dst, overwriting it. dst must be
// s.Rows × b.Cols and must not alias b.
func SpMMInto(dst *Matrix, s *CSR, b *Matrix) {
	SpMMFusedInto(dst, s, b, nil, false)
}

// SpMMFusedInto is SpMMInto with the fused epilogue of MatMulFusedInto:
// row i is initialized to bias[i] (zero when bias is nil) before
// accumulation and relu clamps finished rows to max(0, ·). Sparse and
// dense execution of a pruned layer thus share one epilogue contract.
func SpMMFusedInto(dst *Matrix, s *CSR, b *Matrix, bias []float32, relu bool) {
	if s.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: SpMM %dx%d × %dx%d", s.Rows, s.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != s.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: SpMM dst %dx%d, want %dx%d", dst.Rows, dst.Cols, s.Rows, b.Cols))
	}
	if bias != nil && len(bias) != s.Rows {
		panic(fmt.Sprintf("tensor: SpMM bias len %d, want %d", len(bias), s.Rows))
	}
	n := b.Cols
	if useAVX {
		spmmRowsAVX(dst, s, b, bias)
		if relu {
			reluInPlace(dst.Data)
		}
		return
	}
	for i := 0; i < s.Rows; i++ {
		ci := dst.Data[i*n : (i+1)*n]
		initRow(ci, bias, i)
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			k := int(s.ColIdx[p])
			axpy1(b.Data[k*n:(k+1)*n], ci, s.Val[p])
		}
		if relu {
			reluInPlace(ci)
		}
	}
}

// spmmRowsAVX accumulates every row of S × B, one avxPanel-column panel
// of B at a time with every row streaming over it. Each output is summed
// over the row's nonzeros in stored order, as the axpy1 loop sums it.
//
// A row that holds all Cols nonzeros is a kept filter, as filter pruning
// leaves one. Its columns are 0..Cols-1 in order, so four such rows with
// only empty rows between them sit in Val as a dense 4×Cols block, and
// spmmQuad runs them through the 4×16 GEMM tile, which shares each B load
// among the four rows. A partial row ends the run, since its Val segment
// lies between theirs. It, and the 0–3 full rows a run leaves, take the
// 1×32 tile. Both tiles do the same per-lane VMULPS and VADDPS, so the
// output does not depend on which one a row takes.
func spmmRowsAVX(dst *Matrix, s *CSR, b *Matrix, bias []float32) {
	n := b.Cols
	for i := 0; i < s.Rows; i++ {
		initRow(dst.Data[i*n:(i+1)*n], bias, i)
	}
	row := func(i, jj, w int) {
		p0, p1 := s.RowPtr[i], s.RowPtr[i+1]
		spmmRow(dst.Data[i*n+jj:i*n+jj+w], b.Data[jj:], n, s.Val[p0:p1], s.ColIdx[p0:p1])
	}
	for jj := 0; jj < n; jj += avxPanel {
		w := min(avxPanel, n-jj)
		var run [4]int // the full rows since the last quad or partial row
		q := 0
		for i := 0; i < s.Rows; i++ {
			p0, p1 := s.RowPtr[i], s.RowPtr[i+1]
			if p0 == p1 {
				continue // an empty (pruned) row keeps its bias
			}
			if int(p1-p0) == s.Cols {
				run[q] = i
				if q++; q == 4 {
					spmmQuad(dst, s, b, run, jj, w)
					q = 0
				}
				continue
			}
			for _, r := range run[:q] {
				row(r, jj, w)
			}
			q = 0
			row(i, jj, w)
		}
		for _, r := range run[:q] {
			row(r, jj, w)
		}
	}
}

// spmmQuad adds the product of four full CSR rows, adjacent in Val, into
// their outputs' panel at column jj, w wide, through the 4×16 tile: A is
// Val from the first row on with lda = Cols, and B is read in place. The
// four output rows are not one stride apart, so the tile runs on a copy
// of their segments, avxPanel apart on the stack, that is copied back.
func spmmQuad(dst *Matrix, s *CSR, b *Matrix, rows [4]int, jj, w int) {
	n := b.Cols
	var stage [4 * avxPanel]float32
	for r, i := range rows {
		copy(stage[r*avxPanel:r*avxPanel+w], dst.Data[i*n+jj:])
	}
	gemmTile4(stage[:], avxPanel, s.Val[s.RowPtr[rows[0]]:], s.Cols, b.Data[jj:], n, s.Cols, w)
	for r, i := range rows {
		copy(dst.Data[i*n+jj:i*n+jj+w], stage[r*avxPanel:])
	}
}

// SpMV computes y = S × x.
func SpMV(s *CSR, x []float32) []float32 {
	y := make([]float32, s.Rows)
	SpMVInto(y, s, x)
	return y
}

// SpMVInto computes y = S × x into y (len s.Rows), overwriting it.
func SpMVInto(y []float32, s *CSR, x []float32) {
	SpMVFusedInto(y, s, x, nil, false)
}

// SpMVFusedInto computes y = S × x + bias with an optional ReLU clamp,
// into y. bias may be nil (zero) — the sparse fully-connected fast path.
func SpMVFusedInto(y []float32, s *CSR, x []float32, bias []float32, relu bool) {
	if s.Cols != len(x) {
		panic(fmt.Sprintf("tensor: SpMV %dx%d × %d", s.Rows, s.Cols, len(x)))
	}
	if len(y) != s.Rows {
		panic(fmt.Sprintf("tensor: SpMV dst len %d, want %d", len(y), s.Rows))
	}
	if bias != nil && len(bias) != s.Rows {
		panic(fmt.Sprintf("tensor: SpMV bias len %d, want %d", len(bias), s.Rows))
	}
	for i := 0; i < s.Rows; i++ {
		var sum float32
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			sum += s.Val[p] * x[int(s.ColIdx[p])]
		}
		if bias != nil {
			sum += bias[i]
		}
		if relu && sum < 0 {
			sum = 0
		}
		y[i] = sum
	}
}
