package nn_test

import (
	"math"
	"math/rand"
	"testing"

	"ccperf/internal/models"
	"ccperf/internal/nn"
	"ccperf/internal/prune"
	"ccperf/internal/tensor"
)

// lrnHead returns the layers of full up to and including its last LRN as
// a net of their own. Init seeds each layer by its index, so the head's
// weights are the full net's, without Caffenet's 234 MB of FC weights.
func lrnHead(t testing.TB, full *nn.Net) *nn.Net {
	t.Helper()
	layers := full.Layers()
	last := -1
	for i, l := range layers {
		if _, ok := l.(*nn.LRN); ok {
			last = i
		}
	}
	head := nn.NewNet(full.Name, full.Input)
	head.Add(layers[:last+1]...)
	if err := head.Init(1); err != nil {
		t.Fatal(err)
	}
	return head
}

// checkLRNs runs img through net layer by layer and checks every LRN's
// output against nn.ReferenceLRN bit for bit. It returns the number of
// LRN elements and how many of them took math.Pow.
func checkLRNs(t *testing.T, net *nn.Net, img *tensor.Tensor) (elems, declined int) {
	t.Helper()
	x := img
	for _, l := range net.Layers() {
		y := l.Forward(x, nil)
		if lrn, ok := l.(*nn.LRN); ok {
			want := nn.ReferenceLRN(lrn, x)
			for i := range want.Data {
				if math.Float32bits(y.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%s %s: element %d (input %g) = %g, want %g",
						net.Name, l.Name(), i, x.Data[i], y.Data[i], want.Data[i])
				}
			}
			elems += len(want.Data)
			declined += nn.LRNDeclines(lrn, x)
		}
		x = y
	}
	return elems, declined
}

// TestLRNMatchesOracleOnModels checks every LRN of Caffenet, dense and
// 50% L1-filter-pruned as infer-caffenet prunes it, and of GoogLeNet
// against the oracle on the activations of two synthetic images each.
func TestLRNMatchesOracleOnModels(t *testing.T) {
	// The head holds conv1 and conv2; pruning is per layer, so they get
	// the weights the whole pruned net would.
	pruned := lrnHead(t, models.Caffenet())
	if err := prune.Apply(pruned, prune.Uniform([]string{"conv1", "conv2"}, 0.5), prune.L1Filter); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		net  *nn.Net
	}{
		{"caffenet", lrnHead(t, models.Caffenet())},
		{"caffenet-pruned", pruned},
		{"googlenet", lrnHead(t, models.Googlenet())},
	} {
		var elems, declined int
		for seed := int64(1); seed <= 2; seed++ {
			e, d := checkLRNs(t, c.net, syntheticImage(c.net.Input, seed))
			elems, declined = elems+e, declined+d
		}
		t.Logf("%s: %d LRN elements, %d took math.Pow", c.name, elems, declined)
	}
}

// BenchmarkLRN measures Caffenet's norm1 (96×27×27) and norm2
// (256×13×13) through a warmed workspace, on their inputs from one
// synthetic image. Real activations matter here: how long math.Pow takes
// depends on its base, and it returns at once when a window is all zero.
func BenchmarkLRN(b *testing.B) {
	head := lrnHead(b, models.Caffenet())
	x := syntheticImage(head.Input, 1)
	for _, l := range head.Layers() {
		if lrn, ok := l.(*nn.LRN); ok {
			in := x
			b.Run(l.Name(), func(b *testing.B) {
				ws := nn.NewWorkspace()
				ws.Release(lrn.Forward(in, ws))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ws.Release(lrn.Forward(in, ws))
				}
			})
		}
		x = l.Forward(x, nil)
	}
}

// syntheticImage is a standard-normal CHW image.
func syntheticImage(s nn.Shape, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	img := tensor.New(s.C, s.H, s.W)
	for i := range img.Data {
		img.Data[i] = float32(rng.NormFloat64())
	}
	return img
}
