package serving

import (
	"context"
	"fmt"

	"ccperf/internal/engine"
	"ccperf/internal/measure"
	"ccperf/internal/models"
	"ccperf/internal/nn"
	"ccperf/internal/prune"
)

// Variant is one rung of the pruning ladder: a pre-built pruned model plus
// the accuracy proxy the gateway reports for requests served at this rung.
type Variant struct {
	Degree prune.Degree
	Net    *nn.Net
	// Accuracy is the variant's Top-1 accuracy proxy (from the calibrated
	// curves of internal/accuracy, or measured by the caller).
	Accuracy float64
}

// BuildLadder constructs the variant ladder: for each degree (least pruned
// first) it builds a fresh network, applies the degree with the method,
// and attaches the Top-1 accuracy predicted by src (any engine
// AccuracySource — pass an engine.Cache to share calibration evaluations
// with the planning layers, or nil to skip calibration). Building each
// variant once up front is what makes runtime switching free — the
// controller flips an index instead of re-pruning live weights.
func BuildLadder(ctx context.Context, build func() (*nn.Net, error), degrees []prune.Degree, m prune.Method, src engine.AccuracySource) ([]Variant, error) {
	if len(degrees) == 0 {
		return nil, fmt.Errorf("serving: empty degree ladder")
	}
	out := make([]Variant, 0, len(degrees))
	for _, d := range degrees {
		net, err := build()
		if err != nil {
			return nil, fmt.Errorf("serving: building variant %s: %w", d.Label(), err)
		}
		if err := prune.Apply(net, d, m); err != nil {
			return nil, fmt.Errorf("serving: pruning variant %s: %w", d.Label(), err)
		}
		v := Variant{Degree: d, Net: net}
		if src != nil {
			a, err := src.Accuracy(ctx, d)
			if err != nil {
				return nil, fmt.Errorf("serving: evaluating variant %s: %w", d.Label(), err)
			}
			v.Accuracy = a.Top1
		}
		out = append(out, v)
	}
	return out, nil
}

// TinyShape is the demo model's input (a reduced-resolution stand-in for
// the paper's 224×224×3, sized so a pure-Go forward stays sub-millisecond
// and a loadtest can push thousands of requests through it).
var TinyShape = nn.Shape{C: 3, H: 32, W: 32}

// TinyClasses is the demo model's output width.
const TinyClasses = 10

// TinyNet builds and initializes the demo serving CNN: conv1/conv2 blocks
// (named after Caffenet's so the calibrated accuracy curves apply) and a
// small classifier head. Pruning conv1/conv2 genuinely shrinks the dense
// GEMM work — the ladder's speedup is real, not simulated.
func TinyNet() (*nn.Net, error) {
	n := nn.NewNet("tinynet", TinyShape)
	n.Add(
		nn.NewConv("conv1", 16, 3, 3, 1, 1, 1, 1, 1),
		nn.NewReLU("relu1"),
		nn.NewMaxPool("pool1", 2, 2),
		nn.NewConv("conv2", 32, 3, 3, 1, 1, 1, 1, 1),
		nn.NewReLU("relu2"),
		nn.NewMaxPool("pool2", 2, 2),
		nn.NewFlatten("flatten"),
		nn.NewFC("fc1", TinyClasses),
		nn.NewSoftmax("prob"),
	)
	if err := n.Init(7); err != nil {
		return nil, err
	}
	return n, nil
}

// DefaultLadderRatios are the demo ladder's uniform conv1+conv2 prune
// ratios, least pruned first.
var DefaultLadderRatios = []float64{0, 0.3, 0.5, 0.7, 0.9}

// DemoLadder builds the ladder `ccperf serve -gateway` and `ccperf
// loadtest` use: TinyNet pruned uniformly over conv1+conv2 at
// DefaultLadderRatios, with accuracy proxies from the paper's calibrated
// Caffenet curves (the degrees address conv1/conv2, which those curves
// cover).
func DemoLadder(ratios []float64) ([]Variant, error) {
	if len(ratios) == 0 {
		ratios = DefaultLadderRatios
	}
	h, err := measure.NewHarness(models.CaffenetName)
	if err != nil {
		return nil, err
	}
	degrees := make([]prune.Degree, len(ratios))
	for i, r := range ratios {
		if !(r >= 0 && r <= 1) {
			return nil, fmt.Errorf("serving: ladder ratio %v out of [0,1]", r)
		}
		degrees[i] = prune.Uniform([]string{"conv1", "conv2"}, r)
	}
	return BuildLadder(context.Background(), TinyNet, degrees, prune.L1Filter, engine.NewCache(h))
}
