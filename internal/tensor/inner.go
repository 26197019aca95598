package tensor

// The inner loops of the GEMM, CSR SpMM and fused-ReLU epilogue. On amd64
// the axpy loops and the ReLU clamp run as four-lane SSE2 kernels
// (inner_amd64.s), and on CPUs with AVX the GEMM, SpMM and MatVec run
// through the eight-lane tiles of avx_amd64.s instead. These Go loops (and
// MatVec's, in matmul.go) are the implementation on every other GOARCH and
// the reference every kernel is tested against bit for bit (inner_test.go).

// useAVX sends gemmRows, SpMMFusedInto and matVecRows through the AVX
// tiles. It is hasAVX, read from CPUID at init; only tests switch it, to
// run both paths.
var useAVX = hasAVX

// axpy4Go accumulates one streamed B row into four output row segments:
// cX[j] += avX·bk[j]. It is deliberately a noinline leaf — with only the
// j-loop state live, the four row pointers stay in registers; inlined
// into the k loop the register allocator spills them to the stack on
// every iteration (measured ~30% slower on the Caffenet conv2 shape).
//
//go:noinline
func axpy4Go(bk, c0, c1, c2, c3 []float32, av0, av1, av2, av3 float32) {
	c0 = c0[:len(bk)]
	c1 = c1[:len(bk)]
	c2 = c2[:len(bk)]
	c3 = c3[:len(bk)]
	for j, bv := range bk {
		c0[j] += av0 * bv
		c1[j] += av1 * bv
		c2[j] += av2 * bv
		c3[j] += av3 * bv
	}
}

// axpy1Go accumulates one streamed B row into one output row segment:
// c[j] += av·bk[j].
func axpy1Go(bk, c []float32, av float32) {
	c = c[:len(bk)]
	for j, bv := range bk {
		c[j] += av * bv
	}
}

// reluInPlaceGo clamps s to max(0, ·) in place. NaN and −0 are kept, as the
// comparison is false for both.
func reluInPlaceGo(s []float32) {
	for i, v := range s {
		if v < 0 {
			s[i] = 0
		}
	}
}

// gemmTile4Go is gemmTile4 as the Go loops compute it: one axpy4Go per k
// over the tile's w columns.
func gemmTile4Go(c []float32, ldc int, a []float32, lda int, b []float32, ldb, k, w int) {
	for kk := 0; kk < k; kk++ {
		axpy4Go(b[kk*ldb:kk*ldb+w], c[:w], c[ldc:ldc+w], c[2*ldc:2*ldc+w], c[3*ldc:3*ldc+w],
			a[kk], a[lda+kk], a[2*lda+kk], a[3*lda+kk])
	}
}

// spmmRowGo is spmmRow as the Go loops compute it: one axpy1Go per
// nonzero over the whole segment.
func spmmRowGo(c, b []float32, ldb int, val []float32, col []int32) {
	for p, v := range val {
		k := int(col[p])
		axpy1Go(b[k*ldb:k*ldb+len(c)], c, v)
	}
}
