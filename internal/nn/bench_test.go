package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"ccperf/internal/tensor"
)

func benchNet(b *testing.B) (*Net, *tensor.Tensor) {
	b.Helper()
	n := NewNet("bench", Shape{C: 3, H: 64, W: 64})
	n.Add(
		NewConv("c1", 32, 3, 3, 1, 1, 1, 1, 1),
		NewReLU("r1"),
		NewMaxPool("p1", 2, 2),
		NewConv("c2", 64, 3, 3, 1, 1, 1, 1, 1),
		NewReLU("r2"),
		NewGlobalAvgPool("gap"),
		NewFlatten("f"),
		NewFC("fc", 100),
		NewSoftmax("sm"),
	)
	if err := n.Init(1); err != nil {
		b.Fatal(err)
	}
	in := tensor.New(3, 64, 64)
	for i := range in.Data {
		in.Data[i] = float32(i%13)/13 - 0.4
	}
	return n, in
}

// BenchmarkNetForward measures a full single-image forward pass.
func BenchmarkNetForward(b *testing.B) {
	n, in := benchNet(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.Forward(in, nil)
	}
}

// BenchmarkNetForwardBatch measures engine-level batch parallelism.
func BenchmarkNetForwardBatch(b *testing.B) {
	n, in := benchNet(b)
	batch := make([]*tensor.Tensor, 8)
	for i := range batch {
		batch[i] = in
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n.ForwardBatch(batch, workers)
			}
		})
	}
}

// BenchmarkForwardWorkspace measures the same full forward pass as
// BenchmarkNetForward through a warmed workspace — the zero-allocation
// serving path. allocs/op is part of the regression signal (expected 0).
// Gated by the benchdiff CI pattern.
func BenchmarkForwardWorkspace(b *testing.B) {
	n, in := benchNet(b)
	ws := NewWorkspace()
	n.Forward(in, ws) // warm buckets, headers and im2col scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Forward(in, ws)
	}
}

// BenchmarkConvForward measures one Caffenet-conv2-scale convolution
// (48×27×27 input, 128 5×5 filters) through a warmed workspace: Im2ColInto
// plus the fused-bias GEMM, no allocation. Gated by the benchdiff CI
// pattern.
func BenchmarkConvForward(b *testing.B) {
	in := tensor.New(48, 27, 27)
	for i := range in.Data {
		in.Data[i] = float32(i%11)/11 - 0.5
	}
	c := NewConv("c", 128, 5, 5, 1, 1, 2, 2, 1)
	if err := c.Init(48, 7); err != nil {
		b.Fatal(err)
	}
	ws := NewWorkspace()
	ws.Release(c.Forward(in, ws)) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Release(c.Forward(in, ws))
	}
}

// BenchmarkConvForwardDenseVsSparse measures the dense→CSR execution
// crossover on one convolution at 0/50/90 % weight sparsity.
func BenchmarkConvForwardDenseVsSparse(b *testing.B) {
	in := tensor.New(48, 27, 27)
	for i := range in.Data {
		in.Data[i] = float32(i%11)/11 - 0.5
	}
	for _, sparsity := range []int{0, 50, 90} {
		c := NewConv("c", 128, 5, 5, 1, 1, 2, 2, 1)
		if err := c.Init(48, 7); err != nil {
			b.Fatal(err)
		}
		w := c.Weights()
		for i := range w.Data {
			if i%100 < sparsity {
				w.Data[i] = 0
			}
		}
		c.Rebuild()
		b.Run(fmt.Sprintf("sparsity=%d%%/csr=%v", sparsity, c.UsesSparseKernel()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Forward(in, nil)
			}
		})
	}
}

// BenchmarkMaxPool measures unpadded 2-D max pooling at Caffenet pool1
// (96×55×55, 3×3 stride 2) and TinyNet pool1 (16×32×32, 2×2 stride 2)
// through a warmed workspace. The input is post-ReLU-like — half zeros,
// half positive — so ties and unpredictable maxima both occur.
func BenchmarkMaxPool(b *testing.B) {
	for _, bc := range []struct {
		name      string
		in        Shape
		k, stride int
	}{
		{"caffenet-pool1", Shape{C: 96, H: 55, W: 55}, 3, 2},
		{"tinynet-pool1", Shape{C: 16, H: 32, W: 32}, 2, 2},
	} {
		in := tensor.New(bc.in.C, bc.in.H, bc.in.W)
		rng := rand.New(rand.NewSource(1))
		for i := range in.Data {
			if rng.Intn(2) == 0 {
				in.Data[i] = rng.Float32()
			}
		}
		p := NewMaxPool("p", bc.k, bc.stride)
		b.Run(bc.name, func(b *testing.B) {
			ws := NewWorkspace()
			ws.Release(p.Forward(in, ws))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.Release(p.Forward(in, ws))
			}
		})
	}
}
