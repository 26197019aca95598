package tensor

// The wrappers reslice every output to len(bk) before entering assembly,
// so a short destination panics here exactly as the Go loops do.

func axpy4(bk, c0, c1, c2, c3 []float32, av0, av1, av2, av3 float32) {
	axpy4SSE(bk, c0[:len(bk)], c1[:len(bk)], c2[:len(bk)], c3[:len(bk)], av0, av1, av2, av3)
}

func axpy1(bk, c []float32, av float32) { axpy1SSE(bk, c[:len(bk)], av) }

//go:noescape
func axpy4SSE(bk, c0, c1, c2, c3 []float32, av0, av1, av2, av3 float32)

//go:noescape
func axpy1SSE(bk, c []float32, av float32)

// reluInPlace has no output to reslice, so it is the assembly itself.
//
//go:noescape
func reluInPlace(s []float32)
