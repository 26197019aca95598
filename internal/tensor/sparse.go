package tensor

import "fmt"

// CSR is a compressed-sparse-row matrix. Pruned CNN layers are executed
// through CSR kernels, mirroring the sparse-BLAS extensions of the Caffe
// fork the paper uses.
type CSR struct {
	Rows, Cols int
	RowPtr     []int32   // len Rows+1
	ColIdx     []int32   // len NNZ
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
