package models

import (
	"fmt"
	"strconv"
	"strings"

	"ccperf/internal/nn"
)

// ParseSpec builds a network from a compact text specification — the
// Caffe-prototxt role in this reproduction, so custom architectures can be
// defined without writing Go. One directive per line; '#' starts a
// comment. The first directive must be `input CxHxW`.
//
//	input 3x32x32
//	conv name=c1 filters=16 k=3 stride=1 pad=1 groups=1
//	batchnorm
//	relu
//	maxpool k=3 stride=2
//	resblock name=b1 filters=32 stride=2      # two 3x3 convs + batchnorms
//	inception name=i3a 64 96 128 16 32 32
//	avgpool k=2 stride=2
//	gap                                        # global average pool
//	flatten
//	dropout rate=0.5
//	fc name=fc1 out=10
//	softmax
//
// Defaults: conv stride=1 pad=(k-1)/2 groups=1; pools stride=k; names are
// auto-generated (`conv3`, `pool5`, …) when omitted.
func ParseSpec(name, spec string) (*nn.Net, error) {
	var net *nn.Net
	var shape nn.Shape // the output shape of the layers so far
	lineNo := 0
	auto := 0
	autoName := func(kind string) string {
		auto++
		return fmt.Sprintf("%s%d", kind, auto)
	}
	for _, raw := range strings.Split(spec, "\n") {
		lineNo++
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		directive := fields[0]
		args, pos, err := parseArgs(fields[1:])
		if err != nil {
			return nil, fmt.Errorf("models: line %d: %w", lineNo, err)
		}
		if net == nil {
			if directive != "input" {
				return nil, fmt.Errorf("models: line %d: first directive must be input, got %q", lineNo, directive)
			}
			if len(pos) != 1 {
				return nil, fmt.Errorf("models: line %d: input wants CxHxW", lineNo)
			}
			if shape, err = parseShape(pos[0]); err != nil {
				return nil, fmt.Errorf("models: line %d: %w", lineNo, err)
			}
			net = nn.NewNet(name, shape)
			continue
		}
		layer, err := buildLayer(directive, args, pos, autoName)
		if err != nil {
			return nil, fmt.Errorf("models: line %d: %w", lineNo, err)
		}
		shape = layer.OutShape(shape)
		if shape.C < 1 || shape.H < 1 || shape.W < 1 {
			return nil, fmt.Errorf("models: line %d: %s outputs %dx%dx%d, a dimension below 1", lineNo, layer.Name(), shape.C, shape.H, shape.W)
		}
		net.Add(layer)
	}
	if net == nil {
		return nil, fmt.Errorf("models: empty specification")
	}
	return net, nil
}

// parseArgs splits fields into key=value args and positional ints.
func parseArgs(fields []string) (map[string]string, []string, error) {
	args := map[string]string{}
	var pos []string
	for _, f := range fields {
		if k, v, ok := strings.Cut(f, "="); ok {
			if k == "" || v == "" {
				return nil, nil, fmt.Errorf("bad argument %q", f)
			}
			args[k] = v
		} else {
			pos = append(pos, f)
		}
	}
	return args, pos, nil
}

func parseShape(s string) (nn.Shape, error) {
	parts := strings.Split(s, "x")
	if len(parts) != 3 {
		return nn.Shape{}, fmt.Errorf("shape %q: want CxHxW", s)
	}
	var dims [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 1 {
			return nn.Shape{}, fmt.Errorf("shape %q: bad dimension %q", s, p)
		}
		dims[i] = v
	}
	return nn.Shape{C: dims[0], H: dims[1], W: dims[2]}, nil
}

func intArg(args map[string]string, key string, def int) (int, error) {
	v, ok := args[key]
	if !ok {
		if def < 0 {
			return 0, fmt.Errorf("missing required argument %s", key)
		}
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("argument %s=%q: %w", key, v, err)
	}
	return n, nil
}

// maxWidth bounds every integer a layer takes: channel counts, where the
// constructors that allocate per channel (batchnorm, resblock) would
// panic on a negative count, and exhaust memory on a huge one, before
// Init; and kernels, strides, groups and pads, which must leave the
// output shape computable.
const maxWidth = 1 << 16

// checkRange rejects an argument outside [lo, maxWidth].
func checkRange(key string, n, lo int) error {
	if n < lo || n > maxWidth {
		return fmt.Errorf("argument %s=%d out of [%d, %d]", key, n, lo, maxWidth)
	}
	return nil
}

// boundedArg is intArg limited to [lo, maxWidth].
func boundedArg(args map[string]string, key string, def, lo int) (int, error) {
	n, err := intArg(args, key, def)
	if err != nil {
		return 0, err
	}
	return n, checkRange(key, n, lo)
}

func buildLayer(directive string, args map[string]string, pos []string, autoName func(string) string) (nn.Layer, error) {
	name := args["name"]
	switch directive {
	case "conv":
		if name == "" {
			name = autoName("conv")
		}
		filters, err := boundedArg(args, "filters", -1, 1)
		if err != nil {
			return nil, err
		}
		k, err := boundedArg(args, "k", 3, 1)
		if err != nil {
			return nil, err
		}
		stride, err := boundedArg(args, "stride", 1, 1)
		if err != nil {
			return nil, err
		}
		pad, err := boundedArg(args, "pad", (k-1)/2, 0)
		if err != nil {
			return nil, err
		}
		groups, err := boundedArg(args, "groups", 1, 1)
		if err != nil {
			return nil, err
		}
		return nn.NewConv(name, filters, k, k, stride, stride, pad, pad, groups), nil
	case "fc":
		if name == "" {
			name = autoName("fc")
		}
		out, err := boundedArg(args, "out", -1, 1)
		if err != nil {
			return nil, err
		}
		return nn.NewFC(name, out), nil
	case "maxpool", "avgpool":
		if name == "" {
			name = autoName("pool")
		}
		k, err := boundedArg(args, "k", 2, 1)
		if err != nil {
			return nil, err
		}
		stride, err := boundedArg(args, "stride", k, 1)
		if err != nil {
			return nil, err
		}
		if directive == "maxpool" {
			p := nn.NewMaxPool(name, k, stride)
			return p, nil
		}
		return nn.NewAvgPool(name, k, stride), nil
	case "gap":
		if name == "" {
			name = autoName("gap")
		}
		return nn.NewGlobalAvgPool(name), nil
	case "relu":
		if name == "" {
			name = autoName("relu")
		}
		return nn.NewReLU(name), nil
	case "lrn":
		if name == "" {
			name = autoName("lrn")
		}
		return nn.NewLRN(name), nil
	case "batchnorm":
		// Channel count is resolved at Init time via a thin wrapper: the
		// spec cannot know it, so require channels=N or defer.
		c, err := intArg(args, "channels", -1)
		if err != nil {
			return nil, fmt.Errorf("batchnorm requires channels=N (the spec parser cannot infer it)")
		}
		if err := checkRange("channels", c, 1); err != nil {
			return nil, err
		}
		if name == "" {
			name = autoName("bn")
		}
		return nn.NewBatchNorm(name, c), nil
	case "dropout":
		if name == "" {
			name = autoName("drop")
		}
		rate := 0.5
		if v, ok := args["rate"]; ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 || f >= 1 {
				return nil, fmt.Errorf("bad dropout rate %q", v)
			}
			rate = f
		}
		return nn.NewDropout(name, rate), nil
	case "flatten":
		if name == "" {
			name = autoName("flatten")
		}
		return nn.NewFlatten(name), nil
	case "softmax":
		if name == "" {
			name = autoName("softmax")
		}
		return nn.NewSoftmax(name), nil
	case "inception":
		if name == "" {
			name = autoName("inception")
		}
		if len(pos) != 6 {
			return nil, fmt.Errorf("inception wants 6 branch widths (c1 r3 c3 r5 c5 proj), got %d", len(pos))
		}
		var w [6]int
		for i, p := range pos {
			v, err := strconv.Atoi(p)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("inception width %q", p)
			}
			w[i] = v
		}
		return nn.NewInception(name, w[0], w[1], w[2], w[3], w[4], w[5]), nil
	case "resblock":
		if name == "" {
			name = autoName("res")
		}
		filters, err := boundedArg(args, "filters", -1, 1)
		if err != nil {
			return nil, err
		}
		stride, err := boundedArg(args, "stride", 1, 1)
		if err != nil {
			return nil, err
		}
		return nn.NewResidual(name,
			nn.NewConv(name+"-conv1", filters, 3, 3, stride, stride, 1, 1, 1),
			nn.NewBatchNorm(name+"-bn1", filters),
			nn.NewReLU(name+"-relu"),
			nn.NewConv(name+"-conv2", filters, 3, 3, 1, 1, 1, 1, 1),
			nn.NewBatchNorm(name+"-bn2", filters),
		), nil
	default:
		return nil, fmt.Errorf("unknown directive %q", directive)
	}
}
