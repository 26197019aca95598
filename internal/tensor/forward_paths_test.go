package tensor_test

import (
	"fmt"
	"testing"

	"ccperf/internal/nn"
	"ccperf/internal/tensor"
)

// pathNet is a small network whose convs take the tiles: a dense conv
// with a fused ReLU, a grouped conv, and a conv pruned past the CSR
// threshold, with LRN, pooling and FC layers between them.
func pathNet(t *testing.T) *nn.Net {
	t.Helper()
	n := nn.NewNet("paths", nn.Shape{C: 3, H: 19, W: 19})
	n.Add(
		nn.NewConv("conv1", 12, 3, 3, 1, 1, 1, 1, 1),
		nn.NewReLU("relu1"),
		nn.NewLRN("norm1"),
		nn.NewConv("conv2", 8, 3, 3, 1, 1, 1, 1, 2),
		nn.NewReLU("relu2"),
		nn.NewMaxPool("pool2", 2, 2),
		nn.NewConv("conv3", 9, 3, 3, 1, 1, 1, 1, 1),
		nn.NewReLU("relu3"),
		nn.NewFlatten("flat"),
		nn.NewFC("fc", 10),
		nn.NewSoftmax("prob"),
	)
	if err := n.Init(3); err != nil {
		t.Fatal(err)
	}
	p, _ := n.PrunableByName("conv3")
	w := p.Weights()
	for i := range w.Data {
		if i%2 == 0 {
			w.Data[i] = 0
		}
	}
	p.Rebuild()
	if !p.(*nn.Conv).UsesSparseKernel() {
		t.Fatal("conv3 did not switch to CSR")
	}
	return n
}

// TestForwardPathsMatch runs the workspace-against-alloc and zero-alloc
// checks of the nn package on the SSE2 loops and on the AVX tiles, checks
// that a batch through the shared FC pass gives each image's ForwardAlloc
// output, and then compares the two paths' outputs bit for bit.
func TestForwardPathsMatch(t *testing.T) {
	n := pathNet(t)
	imgs := make([]*tensor.Tensor, 3)
	for b := range imgs {
		imgs[b] = tensor.New(3, 19, 19)
		for i := range imgs[b].Data {
			imgs[b].Data[i] = float32((i+7*b)%23)/23 - 0.45
		}
	}
	img := imgs[0]
	var outs [][]float32
	for _, avx := range []bool{false, true} {
		if avx && !tensor.HasAVX {
			continue
		}
		t.Run(fmt.Sprintf("avx=%v", avx), func(t *testing.T) {
			defer tensor.SetAVX(avx)()
			want := n.ForwardAlloc(img)
			ws := nn.NewWorkspace()
			for pass := 0; pass < 2; pass++ {
				if i := tensor.SameBits(n.Forward(img, ws).Data, want.Data); i >= 0 {
					t.Fatalf("pass %d: workspace out[%d] differs from ForwardAlloc", pass, i)
				}
			}
			if allocs := testing.AllocsPerRun(10, func() { n.Forward(img, ws) }); allocs != 0 {
				t.Fatalf("warmed Net.Forward allocs/run = %v, want 0", allocs)
			}
			for b, out := range n.ForwardBatchPool(imgs, 2, nn.NewWorkspacePool(1)) {
				if i := tensor.SameBits(out.Data, n.ForwardAlloc(imgs[b]).Data); i >= 0 {
					t.Fatalf("batch image %d: out[%d] differs from ForwardAlloc", b, i)
				}
			}
			outs = append(outs, want.Data)
		})
	}
	if len(outs) == 2 {
		if i := tensor.SameBits(outs[1], outs[0]); i >= 0 {
			t.Fatalf("AVX out[%d] = %v, SSE2 %v", i, outs[1][i], outs[0][i])
		}
	}
}
