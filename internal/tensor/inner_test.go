package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// specialFloats are mixed into every kernel-identity input: signed zeros,
// NaNs with distinct signs and payloads (one signaling), infinities (whose
// products with zero make yet another NaN), subnormals and ordinary
// values. When both operands of an add or multiply are NaN, the result's
// payload depends on operand order, so these catch a swapped operand.
var specialFloats = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00001),
	math.Float32frombits(0x7fc12345), math.Float32frombits(0xff800003),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	1e-39, -1e-39, // subnormal
	math.MaxFloat32, -math.MaxFloat32,
	1, -1, 0.5, -2.75,
}

// mixedFloats returns n values, about half of them special.
func mixedFloats(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		if rng.Intn(2) == 0 {
			s[i] = specialFloats[rng.Intn(len(specialFloats))]
		} else {
			s[i] = float32(rng.NormFloat64())
		}
	}
	return s
}

// sameBits reports the first index where got and want differ in their bit
// patterns, or -1. NaN payloads and the sign of zero both count.
func sameBits(got, want []float32) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

// sameMatVec is sameBits for a matrix-vector output checked against
// dotRow and matVecOut, except that under the race detector two NaNs
// match whatever their payloads. The race build instruments the Go
// loop's loads, and the compiler then puts the other operand first in
// its ADDSS, so the reference returns the other NaN's payload when both
// are NaN; the tile is assembly and does not change. scripts/check.sh
// also runs these tests without -race, where every bit is compared.
func sameMatVec(got, want []float32) int {
	if !raceBuild {
		return sameBits(got, want)
	}
	if len(got) != len(want) {
		return 0
	}
	for i, g := range got {
		if w := want[i]; math.Float32bits(g) != math.Float32bits(w) && (g == g || w == w) {
			return i
		}
	}
	return -1
}

// innerOffsets shift each slice's start inside its buffer, so the kernels
// meet every 16-byte misalignment a float32 slice can have.
var innerOffsets = []int{0, 1, 2, 3}

// guarded returns a copy of v at offset off inside a buffer with guard
// values on both sides, and the buffer, so a kernel that writes outside
// v is caught.
func guarded(v []float32, off int) (s, buf []float32) {
	buf = make([]float32, off+len(v)+5)
	for i := range buf {
		buf[i] = -777
	}
	s = buf[off : off+len(v)]
	copy(s, v)
	return s, buf
}

func checkGuards(t *testing.T, name string, n int, buf []float32, off, length int) {
	t.Helper()
	for i, v := range buf {
		if (i < off || i >= off+length) && v != -777 {
			t.Fatalf("%s n=%d off=%d: wrote outside the slice at buffer index %d", name, n, off, i)
		}
	}
}

// TestInnerKernelsMatchGo checks the kernels the GEMM, SpMM and epilogues
// call against the portable Go loops, bit for bit, at every length from 0
// to 67 — every tail length after every count of four-lane steps.
func TestInnerKernelsMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for n := 0; n <= 67; n++ {
		for _, off := range innerOffsets {
			bk, _ := guarded(mixedFloats(rng, n), off)
			var cs, want [4][]float32
			var bufs [4][]float32
			for r := range cs {
				init := mixedFloats(rng, n)
				cs[r], bufs[r] = guarded(init, (off+r)%4)
				want[r] = append([]float32(nil), init...)
			}
			av := mixedFloats(rng, 4)

			axpy4(bk, cs[0], cs[1], cs[2], cs[3], av[0], av[1], av[2], av[3])
			axpy4Go(bk, want[0], want[1], want[2], want[3], av[0], av[1], av[2], av[3])
			for r := range cs {
				if i := sameBits(cs[r], want[r]); i >= 0 {
					t.Fatalf("axpy4 n=%d off=%d row %d: c[%d] = %v (%#x), want %v (%#x)",
						n, off, r, i, cs[r][i], math.Float32bits(cs[r][i]), want[r][i], math.Float32bits(want[r][i]))
				}
				checkGuards(t, "axpy4", n, bufs[r], (off+r)%4, n)
			}

			axpy1(bk, cs[0], av[1])
			axpy1Go(bk, want[0], av[1])
			if i := sameBits(cs[0], want[0]); i >= 0 {
				t.Fatalf("axpy1 n=%d off=%d: c[%d] = %v (%#x), want %v (%#x)",
					n, off, i, cs[0][i], math.Float32bits(cs[0][i]), want[0][i], math.Float32bits(want[0][i]))
			}
			checkGuards(t, "axpy1", n, bufs[0], off, n)

			vals := mixedFloats(rng, n)
			s, buf := guarded(vals, off)
			reluInPlace(s)
			reluInPlaceGo(vals)
			if i := sameBits(s, vals); i >= 0 {
				t.Fatalf("reluInPlace n=%d off=%d: s[%d] = %v (%#x), want %v (%#x)",
					n, off, i, s[i], math.Float32bits(s[i]), vals[i], math.Float32bits(vals[i]))
			}
			checkGuards(t, "reluInPlace", n, buf, off, n)
		}
	}
}

// TestInnerKernelsPanicOnShortOutput pins the wrappers' reslice: an output
// shorter than the streamed row panics instead of writing past its end.
func TestInnerKernelsPanicOnShortOutput(t *testing.T) {
	bk := make([]float32, 9)
	long, short := make([]float32, 9), make([]float32, 8)
	for name, call := range map[string]func(){
		"axpy4": func() { axpy4(bk, long, long, long, short, 1, 1, 1, 1) },
		"axpy1": func() { axpy1(bk, short, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: short output did not panic", name)
				}
			}()
			call()
		}()
	}
}

// TestMatVecFusedIntoMatchesOneRowLoop checks MatVecFusedInto and
// ParallelMatVecsFusedInto against dotRow and matVecOut per image, bit for
// bit, on both paths: batches of 1 to 5 images; 0 to 19 rows, which
// leave every remainder after zero, one and two blocks of eight, and
// 8k±1 rows; K from 0 to 19 and from 4096 to 4103, every K % 8 tail
// after zero, one, two and 512 tile steps; every 4-byte misalignment of
// W and of x; and inputs mixed with specialFloats, so NaN payloads meet
// in both operands of the products and sums of the kernel body and of
// the tail. Each output sits between guard cells and starts as a guard,
// so a skipped or stray write fails too. The 65-row shapes are large
// enough for the rows to be split across workers. Under -race the NaN
// payloads are not compared (sameMatVec).
func TestMatVecFusedIntoMatchesOneRowLoop(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(18))
		for k := 0; k < 20; k++ {
			for _, rows := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 23, 25} {
				matchOneRowLoop(t, rng, rows, k)
			}
		}
		for k := 4096; k < 4104; k++ {
			for _, rows := range []int{7, 9, 63, 65} {
				matchOneRowLoop(t, rng, rows, k)
			}
		}
	})
}

// matchOneRowLoop runs one rows × k shape at every batch size and W offset
// and compares each image with dotRow and matVecOut.
func matchOneRowLoop(t *testing.T, rng *rand.Rand, rows, k int) {
	t.Helper()
	const maxBatch = 5
	fill := mixedFloats
	if (rows+k)%3 == 2 {
		fill = normalFloats // ordinary sums catch a column summed out of order
	}
	w := fill(rng, rows*k)
	var bias []float32
	if (rows+k)%2 == 0 {
		bias = fill(rng, rows)
	}
	relu := (rows+k)%4 < 2
	xs := make([][]float32, maxBatch)
	want := make([][]float32, maxBatch)
	for b := range xs {
		xs[b] = fill(rng, k)
		want[b] = make([]float32, rows)
		for i := range want[b] {
			want[b][i] = matVecOut(dotRow(w[i*k:(i+1)*k], xs[b]), bias, i, relu)
		}
	}
	offs := innerOffsets
	if k > 19 {
		offs = innerOffsets[(rows+k)%4:][:1] // one offset per long shape
	}
	for batch := 1; batch <= maxBatch; batch++ {
		for _, off := range offs {
			wbuf := make([]float32, off+len(w))
			copy(wbuf[off:], w)
			a := MatrixFromSlice(wbuf[off:], rows, k)
			x := make([][]float32, batch)
			for b := range x {
				x[b], _ = guarded(xs[b], (off+b+1)%4)
			}
			workers := 1 + (batch+off)%3
			name := fmt.Sprintf("rows=%d k=%d batch=%d off=%d workers=%d bias=%v relu=%v", rows, k, batch, off, workers, bias != nil, relu)
			run := func(entry string, call func(ys [][]float32)) {
				ys, bufs := make([][]float32, batch), make([][]float32, batch)
				for b := range ys {
					ys[b], bufs[b] = guarded(make([]float32, rows), (off+b)%4)
					for i := range ys[b] {
						ys[b][i] = tileGuard
					}
				}
				call(ys)
				for b := range ys {
					if i := sameMatVec(ys[b], want[b]); i >= 0 {
						t.Fatalf("%s %s: image %d y[%d] = %v (%#x), want %v (%#x)", entry, name, b, i,
							ys[b][i], math.Float32bits(ys[b][i]), want[b][i], math.Float32bits(want[b][i]))
					}
					checkGuards(t, entry+" "+name, rows, bufs[b], (off+b)%4, rows)
				}
			}
			run("ParallelMatVecsFusedInto", func(ys [][]float32) { ParallelMatVecsFusedInto(ys, a, x, bias, relu, workers) })
			if batch == 1 {
				run("MatVecFusedInto", func(ys [][]float32) { MatVecFusedInto(ys[0], a, x[0], bias, relu) })
			}
		}
	}
}

func TestMatVecFusedIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := randMatrix(rng, 11, 40, 0)
	x := make([]float32, 40)
	bias := make([]float32, 11)
	y := make([]float32, 11)
	if allocs := testing.AllocsPerRun(100, func() { MatVecFusedInto(y, a, x, bias, true) }); allocs != 0 {
		t.Fatalf("MatVecFusedInto allocs = %v, want 0", allocs)
	}
}

// tileGuard fills every buffer cell a tile must not write.
const tileGuard = -777

// guardedRows lays rows rows of w values ld = w+gap apart at offset off in
// a guard-filled buffer, with gap guard cells after the last row too, and
// returns the buffer and the slice that starts at row 0. gap is at least a
// tile's width, so a store to any lane past w lands on a guard.
func guardedRows(rng *rand.Rand, rows, w, gap, off int) (s, buf []float32, ld int) {
	ld = w + gap
	buf = make([]float32, off+rows*ld)
	for i := range buf {
		buf[i] = tileGuard
	}
	for r := 0; r < rows; r++ {
		copy(buf[off+r*ld:], mixedFloats(rng, w))
	}
	return buf[off:], buf, ld
}

// checkTile compares a tile's buffer with the Go loops' buffer bit for
// bit. Guards count as elements, so a write outside the tile fails too.
func checkTile(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if i := sameBits(got, want); i >= 0 {
		kind := "output"
		if math.Float32bits(want[i]) == math.Float32bits(tileGuard) {
			kind = "guard"
		}
		t.Fatalf("%s: %s cell %d = %v (%#x), want %v (%#x)",
			name, kind, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
	}
}

// TestGEMMTileMatchesGo checks the 4×16 GEMM tile against the Go loops,
// bit for bit, at every width from 0 to 47 (every tail from 1 to 15 after
// zero, one and two full tiles), K from 0, every 4-byte misalignment of
// C, A and B, and inputs mixed with specialFloats. Each output row sits
// between guard cells at least a tile wide.
func TestGEMMTileMatchesGo(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX: gemmTile4 is gemmTile4Go")
	}
	rng := rand.New(rand.NewSource(20))
	for w := 0; w <= 47; w++ {
		for _, k := range []int{0, 1, 2, 5} {
			for _, off := range innerOffsets {
				c, cbuf, ldc := guardedRows(rng, 4, w, 16, off)
				a, _, lda := guardedRows(rng, 4, k, 3, (off+1)%4)
				b, _, ldb := guardedRows(rng, k, w, 5, (off+2)%4)
				want := append([]float32(nil), cbuf...)
				gemmTile4(c, ldc, a, lda, b, ldb, k, w)
				gemmTile4Go(want[off:], ldc, a, lda, b, ldb, k, w)
				checkTile(t, fmt.Sprintf("gemmTile4 w=%d k=%d off=%d", w, k, off), cbuf, want)
			}
		}
	}
}

// TestSpMMTileMatchesGo checks the 1×32 CSR tile against the Go loops the
// same way: every width from 0 to 95 (every tail from 1 to 31 after zero,
// one and two full tiles), rows with 0 to 7 nonzeros, repeated and
// out-of-order column indices, every misalignment, and guard cells a
// tile wide on both sides of the output segment.
func TestSpMMTileMatchesGo(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX: spmmRow is spmmRowGo")
	}
	rng := rand.New(rand.NewSource(21))
	const bRows = 6
	for w := 0; w <= 95; w++ {
		for _, nnz := range []int{0, 1, 3, 7} {
			for _, off := range innerOffsets {
				_, cbuf, _ := guardedRows(rng, 1, w, 32, 32+off)
				c := cbuf[32+off : 32+off+w]
				b, _, ldb := guardedRows(rng, bRows, w, 3, (off+3)%4)
				val := mixedFloats(rng, nnz)
				col := make([]int32, nnz)
				for p := range col {
					col[p] = int32(rng.Intn(bRows))
				}
				want := append([]float32(nil), cbuf...)
				spmmRow(c, b, ldb, val, col)
				spmmRowGo(want[32+off:32+off+w], b, ldb, val, col)
				checkTile(t, fmt.Sprintf("spmmRow w=%d nnz=%d off=%d", w, nnz, off), cbuf, want)
			}
		}
	}
}

// TestTilesPanicOutOfRange pins the wrappers' checks: a stride, length or
// column index that would reach past a slice panics before the assembly
// runs, and so does a matrix-vector tile whose k is not a whole number of
// eight-column steps.
func TestTilesPanicOutOfRange(t *testing.T) {
	buf := make([]float32, 64)
	var s [16]float32
	for name, call := range map[string]func(){
		"matvec w short":    func() { matVecTile8(&s, buf[:7*8+7], 8, buf, nil, 8) },
		"matvec k over ld":  func() { matVecTile8(&s, buf, 4, buf, nil, 8) },
		"matvec x0 short":   func() { matVecTile8(&s, buf, 8, buf[:7], nil, 8) },
		"matvec x1 short":   func() { matVecTile8(&s, buf, 8, buf, buf[:7], 8) },
		"matvec k not ×8":   func() { matVecTile8(&s, buf, 8, buf, buf, 4) },
		"matvec negative k": func() { matVecTile8(&s, buf, 8, buf, nil, -8) },
		"gemm c short":      func() { gemmTile4(buf[:3*16+15], 16, buf, 16, buf, 16, 1, 16) },
		"gemm a short":      func() { gemmTile4(buf, 16, buf[:3*16+4], 16, buf, 16, 5, 16) },
		"gemm b short":      func() { gemmTile4(buf, 16, buf, 16, buf[:16*3+15], 16, 4, 16) },
		"gemm w over ld":    func() { gemmTile4(buf, 8, buf, 16, buf, 16, 1, 9) },
		"gemm negative k":   func() { gemmTile4(buf, 16, buf, 16, buf, 16, -1, 0) },
		"spmm col too big":  func() { spmmRow(buf[:8], buf, 16, []float32{1}, []int32{4}) },
		"spmm col negative": func() { spmmRow(buf[:8], buf, 16, []float32{1}, []int32{-1}) },
		"spmm col short":    func() { spmmRow(buf[:8], buf, 16, []float32{1, 2}, []int32{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: did not panic", name)
				}
			}()
			call()
		}()
	}
}
