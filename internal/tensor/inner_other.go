//go:build !amd64

package tensor

// hasAVX is false off amd64: useAVX never routes a product through the
// tiles, and gemmRows, SpMMFusedInto and matVecRows run the Go loops.
const hasAVX = false

func axpy4(bk, c0, c1, c2, c3 []float32, av0, av1, av2, av3 float32) {
	axpy4Go(bk, c0, c1, c2, c3, av0, av1, av2, av3)
}

func axpy1(bk, c []float32, av float32) { axpy1Go(bk, c, av) }

func reluInPlace(s []float32) { reluInPlaceGo(s) }

func gemmTile4(c []float32, ldc int, a []float32, lda int, b []float32, ldb, k, w int) {
	gemmTile4Go(c, ldc, a, lda, b, ldb, k, w)
}

func spmmRow(c, b []float32, ldb int, val []float32, col []int32) {
	spmmRowGo(c, b, ldb, val, col)
}

// matVecTile8 is only reached through useAVX, which is false here.
func matVecTile8(s *[16]float32, w []float32, ldw int, x0, x1 []float32, k int) {
	panic("tensor: matVecTile8 without AVX")
}
