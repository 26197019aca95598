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

// TestMatVecFusedIntoMatchesOneRowLoop checks the four-row MatVec against
// the one-row loop, bit for bit, at row counts that leave every remainder
// after zero, one and two four-row passes.
func TestMatVecFusedIntoMatchesOneRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for rows := 0; rows <= 9; rows++ {
		for _, cols := range []int{0, 1, 7, 37} {
			a := MatrixFromSlice(mixedFloats(rng, rows*cols), rows, cols)
			x := mixedFloats(rng, cols)
			for _, bias := range [][]float32{nil, mixedFloats(rng, rows)} {
				for _, relu := range []bool{false, true} {
					want := make([]float32, rows)
					for i := range want {
						want[i] = matVecOut(dotRow(a.Row(i), x), bias, i, relu)
					}
					got := make([]float32, rows)
					MatVecFusedInto(got, a, x, bias, relu)
					if i := sameBits(got, want); i >= 0 {
						t.Fatalf("rows=%d cols=%d bias=%v relu=%v: y[%d] = %v (%#x), want %v (%#x)",
							rows, cols, bias != nil, relu, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
					}
				}
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
// runs.
func TestTilesPanicOutOfRange(t *testing.T) {
	buf := make([]float32, 64)
	for name, call := range map[string]func(){
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
