package tensor

// The inner loops of the GEMM, CSR SpMM and fused-ReLU epilogue. On amd64
// they run as four-lane SSE2 kernels (inner_amd64.s); these Go loops are
// the implementation on every other GOARCH and the reference the assembly
// is tested against bit for bit (inner_test.go).

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
