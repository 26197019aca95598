package nn

import (
	"fmt"
	"math"
	"testing"

	"ccperf/internal/tensor"
)

func batchNet(t *testing.T) *Net {
	t.Helper()
	n := NewNet("b", Shape{C: 2, H: 8, W: 8})
	n.Add(
		NewConv("c1", 4, 3, 3, 1, 1, 1, 1, 1),
		NewReLU("r1"),
		NewMaxPool("p1", 2, 2),
		NewFlatten("f"),
		NewFC("fc", 6),
		NewSoftmax("sm"),
	)
	if err := n.Init(5); err != nil {
		t.Fatal(err)
	}
	return n
}

func batchImages(n int, s Shape) []*tensor.Tensor {
	imgs := make([]*tensor.Tensor, n)
	for i := range imgs {
		img := tensor.New(s.C, s.H, s.W)
		for j := range img.Data {
			img.Data[j] = float32((i*131+j*17)%23)/23 - 0.5
		}
		imgs[i] = img
	}
	return imgs
}

// tailNet ends in two dense FCs and a CSR FC, then Dropout and Softmax.
// fc2's rows (13) and K (19) are not multiples of eight, so its products
// take the kernel's row and column remainders.
func tailNet(t *testing.T) *Net {
	t.Helper()
	n := NewNet("tail", Shape{C: 3, H: 9, W: 9})
	n.Add(
		NewConv("c1", 4, 3, 3, 1, 1, 1, 1, 1),
		NewReLU("r1"),
		NewMaxPool("p1", 2, 2),
		NewFlatten("f"),
		NewFC("fc1", 19),
		NewReLU("r2"),
		NewFC("fc2", 13),
		NewReLU("r3"),
		NewFC("fc3", 10),
		NewDropout("d", 0.5),
		NewSoftmax("sm"),
	)
	if err := n.Init(11); err != nil {
		t.Fatal(err)
	}
	fc3 := n.Layers()[8].(*FC)
	for i := range fc3.Weights().Data {
		if i%3 != 0 {
			fc3.Weights().Data[i] = 0
		}
	}
	fc3.Rebuild()
	if !fc3.useCSR {
		t.Fatal("fc3 did not switch to CSR")
	}
	// Forward reads fc3's CSR form, so this weight, set after Rebuild,
	// changes the outputs only of a path that runs fc3 as a dense FC.
	fc3.Weights().Data[1] = 1
	return n
}

// noTailNet puts Dropout between its FC and ReLU, so the ReLU is not
// fused and runs per image after the batched FC.
func noTailNet(t *testing.T) *Net {
	t.Helper()
	n := NewNet("notail", Shape{C: 2, H: 8, W: 8})
	n.Add(
		NewConv("c1", 4, 3, 3, 1, 1, 1, 1, 1),
		NewMaxPool("p1", 2, 2),
		NewFlatten("f"),
		NewFC("fc", 9),
		NewDropout("d", 0.5),
		NewReLU("r"),
		NewSoftmax("sm"),
	)
	if err := n.Init(12); err != nil {
		t.Fatal(err)
	}
	return n
}

// bitDiff returns the first index where got and want differ in their bit
// patterns, or -1. NaN payloads and the sign of zero both count.
func bitDiff(got, want []float32) int {
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

// TestForwardBatchMatchesSequential checks ForwardBatch and
// ForwardBatchPool against Forward per image, bit for bit, on nets whose
// FCs end the net or are followed by an unfused ReLU, at batches of 1 to
// 5 and 17 images and 0 to 4 and 32 workers, without a pool and with one
// pool reused across batches.
func TestForwardBatchMatchesSequential(t *testing.T) {
	for _, n := range []*Net{batchNet(t), tailNet(t), noTailNet(t)} {
		imgs := batchImages(17, n.Input)
		seq := make([]*tensor.Tensor, len(imgs))
		for i, img := range imgs {
			seq[i] = n.Forward(img, nil)
		}
		pool := NewWorkspacePool(1)
		for _, batch := range []int{1, 2, 3, 4, 5, 17} {
			for _, workers := range []int{0, 1, 2, 3, 4, 32} {
				for _, p := range []*WorkspacePool{nil, pool} {
					name := fmt.Sprintf("%s batch=%d workers=%d pool=%v", n.Name, batch, workers, p != nil)
					got := n.ForwardBatchPool(imgs[:batch], workers, p)
					for i := range got {
						if j := bitDiff(got[i].Data, seq[i].Data); j >= 0 {
							t.Fatalf("%s: image %d out[%d] = %#x, want %#x", name, i, j,
								math.Float32bits(got[i].Data[j]), math.Float32bits(seq[i].Data[j]))
						}
					}
				}
			}
		}
		par := n.ForwardBatch(imgs, 2)
		for i := range seq {
			if j := bitDiff(par[i].Data, seq[i].Data); j >= 0 {
				t.Fatalf("%s ForwardBatch: image %d differs at %d", n.Name, i, j)
			}
		}
	}
}

func TestForwardBatchEmpty(t *testing.T) {
	n := batchNet(t)
	if out := n.ForwardBatch(nil, 4); len(out) != 0 {
		t.Fatal("empty batch must return empty")
	}
}

func TestClassify(t *testing.T) {
	n := batchNet(t)
	img := batchImages(1, n.Input)[0]
	top1, topK, err := n.Classify(img, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(topK) != 3 || topK[0] != top1 {
		t.Fatalf("classify = %d %v", top1, topK)
	}
	if _, _, err := n.Classify(img, 0); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, _, err := n.Classify(img, 7); err == nil {
		t.Fatal("expected error for k > classes")
	}
}

func TestAccuracyOn(t *testing.T) {
	n := batchNet(t)
	imgs := batchImages(10, n.Input)
	// Label every image with its own predicted class → accuracy 1.
	labels := make([]int, len(imgs))
	for i, img := range imgs {
		top1, _, err := n.Classify(img, 1)
		if err != nil {
			t.Fatal(err)
		}
		labels[i] = top1
	}
	top1, topK, err := n.AccuracyOn(imgs, labels, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if top1 != 1 || topK != 1 {
		t.Fatalf("accuracy = %v/%v, want 1/1", top1, topK)
	}
	// Wrong labels → 0 Top-1 (but Top-3 may still catch some).
	for i := range labels {
		labels[i] = (labels[i] + 1) % 6
	}
	top1, _, err = n.AccuracyOn(imgs, labels, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if top1 != 0 {
		t.Fatalf("shifted labels top1 = %v, want 0", top1)
	}
}

func TestAccuracyOnValidation(t *testing.T) {
	n := batchNet(t)
	imgs := batchImages(3, n.Input)
	if _, _, err := n.AccuracyOn(nil, nil, 1, 1); err == nil {
		t.Fatal("expected error for empty set")
	}
	if _, _, err := n.AccuracyOn(imgs, []int{1}, 1, 1); err == nil {
		t.Fatal("expected error for label mismatch")
	}
	if _, _, err := n.AccuracyOn(imgs, []int{1, 2, 3}, 99, 1); err == nil {
		t.Fatal("expected error for bad k")
	}
}
