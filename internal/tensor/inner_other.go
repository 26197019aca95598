//go:build !amd64

package tensor

func axpy4(bk, c0, c1, c2, c3 []float32, av0, av1, av2, av3 float32) {
	axpy4Go(bk, c0, c1, c2, c3, av0, av1, av2, av3)
}

func axpy1(bk, c []float32, av float32) { axpy1Go(bk, c, av) }

func reluInPlace(s []float32) { reluInPlaceGo(s) }
