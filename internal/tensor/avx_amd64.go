package tensor

// hasAVX reports whether the CPU has AVX and the OS saves YMM state:
// CPUID leaf 1 must set OSXSAVE (ECX bit 27) and AVX (bit 28), and XCR0
// must enable XMM (bit 1) and YMM (bit 2) state. It is read once here;
// there is no option, environment variable or build tag.
var hasAVX = cpuHasAVX()

func cpuHasAVX() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 1 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	return xgetbv0()&6 == 6
}

// gemmTile4 adds a 4-row × w-column product of a and b into c, each
// output summed in ascending k from the value it holds:
// c[r·ldc+j] += Σ_{kk<k} a[r·lda+kk]·b[kk·ldb+j] for r < 4, j < w.
// It checks that every element the kernel touches lies inside its slice,
// so a wrong stride or offset panics here instead of in assembly.
func gemmTile4(c []float32, ldc int, a []float32, lda int, b []float32, ldb, k, w int) {
	if w == 0 && k >= 0 {
		return
	}
	if k < 0 || !spans(c, 4, ldc, w) || (k > 0 && (!spans(a, 4, lda, k) || !spans(b, k, ldb, w))) {
		panic("tensor: gemm tile out of range")
	}
	gemmTile4AVX(c, ldc, a, lda, b, ldb, k, w)
}

// spmmRow adds one CSR row into the output segment c, each output summed
// in ascending p from the value it holds:
// c[j] += Σ_p val[p]·b[col[p]·ldb+j] for j < len(c). Like gemmTile4 it
// checks every column index against b before entering assembly.
func spmmRow(c, b []float32, ldb int, val []float32, col []int32) {
	w := len(c)
	if w == 0 || len(val) == 0 {
		return
	}
	col = col[:len(val)]
	if !spans(b, 1, ldb, w) {
		panic("tensor: spmm tile out of range")
	}
	last := (len(b) - w) / ldb // highest B row the segment fits in
	for _, k := range col {
		if uint(k) > uint(last) {
			panic("tensor: spmm column index out of range")
		}
	}
	spmmRowAVX(c, b, ldb, val, col)
}

// matVecTile8 sums eight rows of w, ldw apart, against one or two
// images: s[r] = Σ_{j<k} w[r·ldw+j]·x0[j] and, when x1 is not empty,
// s[8+r] = Σ_{j<k} w[r·ldw+j]·x1[j], for r < 8, each summed in ascending
// j from +0 as dotRow sums it. k is a multiple of 8; the caller continues
// each sum over the columns past k. Like gemmTile4 it checks that every
// element the kernel reads lies inside its slice.
func matVecTile8(s *[16]float32, w []float32, ldw int, x0, x1 []float32, k int) {
	if k < 0 || k%8 != 0 || len(x0) < k || (len(x1) > 0 && len(x1) < k) || (k > 0 && !spans(w, 8, ldw, k)) {
		panic("tensor: matvec tile out of range")
	}
	matVecTile8AVX(s, w, ldw, x0, x1, k)
}

// spans reports whether s holds rows rows of w elements each, ld apart
// (s[r·ld : r·ld+w] for r < rows), without the rows overlapping.
func spans(s []float32, rows, ld, w int) bool {
	return rows > 0 && w > 0 && w <= ld && w <= len(s) && rows-1 <= (len(s)-w)/ld
}

//go:noescape
func gemmTile4AVX(c []float32, ldc int, a []float32, lda int, b []float32, ldb, k, w int)

//go:noescape
func spmmRowAVX(c, b []float32, ldb int, val []float32, col []int32)

//go:noescape
func matVecTile8AVX(s *[16]float32, w []float32, ldw int, x0, x1 []float32, k int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)
