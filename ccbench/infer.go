package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"ccperf/internal/accuracy"
	"ccperf/internal/cloud"
	"ccperf/internal/measure"
	"ccperf/internal/models"
	"ccperf/internal/nn"
	"ccperf/internal/prune"
	"ccperf/internal/serving"
	"ccperf/internal/tensor"
)

// Offline-inference workload parameters. A round is one fixed batch on
// the dense net followed by one on the pruned net; each batch holds one
// image per forward worker.
const (
	inferWorkers    = 2
	inferBatch      = 2
	inferImages     = 8   // distinct input images, cycled
	inferPruneRatio = 0.5 // L1-filter ratio on conv1..conv5, past the 25% CSR threshold
	inferWeightSeed = 1
	inferTracedFrac = 0.75 // share of a traced pass spent in the layer-by-layer forward
)

var (
	caffenetConvs       = models.CaffenetConvNames()
	caffenetFCs         = []string{"fc1", "fc2", "fc3"}
	caffenetTimedLayers = []string{
		"conv1", "pool1", "norm1", "conv2", "pool2", "norm2",
		"conv3", "conv4", "conv5", "pool5", "fc1", "fc2", "fc3",
	}
	inferVariants = []string{"dense", "pruned"}
)

type infer struct {
	seed    int64
	nets    [2]*nn.Net // dense, pruned
	acc     [2]float64 // Top-1 proxy of each net
	degree  prune.Degree
	imgs    []*tensor.Tensor
	pool    *nn.WorkspacePool
	harness *measure.Harness
}

func setupInfer(seed int64) (runner, error) {
	w := &infer{seed: seed, degree: prune.Uniform(caffenetConvs, inferPruneRatio), pool: nn.NewWorkspacePool(1)}
	for i := range w.nets {
		net := models.Caffenet()
		if err := net.Init(inferWeightSeed); err != nil {
			return nil, err
		}
		w.nets[i] = net
	}
	if err := prune.Apply(w.nets[1], w.degree, prune.L1Filter); err != nil {
		return nil, err
	}
	for _, name := range caffenetConvs {
		p, _ := w.nets[1].PrunableByName(name)
		if c, ok := p.(*nn.Conv); !ok || !c.UsesSparseKernel() {
			return nil, fmt.Errorf("pruned %s does not run the CSR kernel", name)
		}
	}
	ev, err := accuracy.NewCalibrated(models.CaffenetName)
	if err != nil {
		return nil, err
	}
	pa, err := ev.Evaluate(w.degree)
	if err != nil {
		return nil, err
	}
	w.acc = [2]float64{ev.Baseline().Top1, pa.Top1}
	in := w.nets[0].Input
	for i := 0; i < inferImages; i++ {
		w.imgs = append(w.imgs, serving.SyntheticImage(in.C, in.H, in.W, seed*1_000_003+int64(i)))
	}
	if w.harness, err = measure.NewHarness(models.CaffenetName); err != nil {
		return nil, err
	}
	// Warm one workspace per forward worker on each net.
	for _, net := range w.nets {
		net.ForwardBatchPool(w.imgs[:inferWorkers], inferWorkers, w.pool)
	}
	return w, nil
}

func (w *infer) params() map[string]any {
	return map[string]any{
		"model": "caffenet 224x224", "forward_workers": inferWorkers, "batch": inferBatch,
		"pruned_degree": w.degree.Label(), "prune_method": prune.L1Filter.String(), "images": inferImages,
	}
}

// batch returns the images of batch k.
func (w *infer) batch(k int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, inferBatch)
	for i := range out {
		out[i] = w.imgs[(k*inferBatch+i)%len(w.imgs)]
	}
	return out
}

func (w *infer) run(seconds float64, rec *recorder) (*outcome, error) {
	o := newOutcome()
	budget := seconds
	if rec != nil {
		budget = seconds * inferTracedFrac
	}
	var rounds []float64
	var images [2]int
	var sample [2]*tensor.Tensor // one output of each net, kept for checking
	var sampleImg [2]*tensor.Tensor
	lt := newLayerTracer(rec, w.nets)
	alloc0 := allocated()
	start := time.Now()
	for k := 0; time.Since(start).Seconds() < budget; k++ {
		t0 := time.Now()
		for v, net := range w.nets {
			imgs := w.batch(2*k + v)
			var outs []*tensor.Tensor
			if rec == nil {
				outs = net.ForwardBatchPool(imgs, inferWorkers, w.pool)
			} else {
				outs = lt.forwardBatch(v, imgs, w.pool)
			}
			images[v] += len(imgs)
			sample[v], sampleImg[v] = outs[0], imgs[0]
		}
		rounds = append(rounds, ms(time.Since(t0)))
	}
	elapsed := time.Since(start).Seconds()
	alloc := allocated() - alloc0

	// Sampled outputs must equal the allocating reference path exactly.
	for v, net := range w.nets {
		if want := net.ForwardAlloc(sampleImg[v]); !sameValues(sample[v], want) {
			o.checkf("%s output differs from ForwardAlloc", inferVariants[v])
		}
	}
	n := images[0] + images[1]
	o.attempted = int64(len(rounds) * 2)
	o.failed = int64(len(o.checks))
	o.e2e["rate_per_s"] = float64(n) / elapsed
	o.e2e["alloc_kb_per_op"] = alloc / 1024 / float64(n)
	o.e2e["p50_ms"] = quantile(rounds, 0.5)
	o.e2e["tail_ms"] = quantile(rounds, 0.9)
	o.e2e["ok_frac"] = 1 - float64(o.failed)/float64(o.attempted)
	o.e2e["mean_accuracy"] = (float64(images[0])*w.acc[0] + float64(images[1])*w.acc[1]) / float64(n)
	o.notef("%d rounds of a %d-image dense batch then a %d-image pruned batch (%s), %d images in %.2f s",
		len(rounds), inferBatch, inferBatch, w.degree.Label(), n, elapsed)
	o.notef("images_per_s %.3f 1/s (rate_per_s); per round p50_ms %.2f ms, p90_ms %.2f ms (tail_ms)",
		o.e2e["rate_per_s"], o.e2e["p50_ms"], o.e2e["tail_ms"])
	if rec != nil {
		if err := w.traceLayers(o, lt, rec, start, seconds); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// sameValues reports whether two tensors hold bit-identical values.
func sameValues(a, b *tensor.Tensor) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// fused reports whether layer i is a ReLU folded into the conv or FC layer
// before it — the rule Net.Forward applies — so the layer-by-layer path
// skips it exactly as Net.Forward does.
func fused(layers []nn.Layer, i int) bool {
	if _, ok := layers[i].(*nn.ReLU); !ok || i == 0 {
		return false
	}
	switch layers[i-1].(type) {
	case *nn.Conv, *nn.FC:
		return true
	}
	return false
}

// layerTracer runs a net layer by layer from outside, with one span per
// Layer.Forward call.
type layerTracer struct {
	rec   *recorder
	nets  [2]*nn.Net
	names [2][]string // span name per layer index
}

func newLayerTracer(rec *recorder, nets [2]*nn.Net) *layerTracer {
	lt := &layerTracer{rec: rec, nets: nets}
	for v, net := range nets {
		for _, l := range net.Layers() {
			lt.names[v] = append(lt.names[v], "nn.layer."+inferVariants[v]+"."+l.Name())
		}
	}
	return lt
}

// forward is Net.Forward done from outside: each layer's Forward in order,
// fused ReLUs skipped, each consumed intermediate released to ws. The
// result is valid until ws is next reset.
func (lt *layerTracer) forward(v int, img *tensor.Tensor, ws *nn.Workspace) *tensor.Tensor {
	ws.Reset()
	layers := lt.nets[v].Layers()
	root := lt.rec.begin("nn.image."+inferVariants[v], 0)
	x := img
	for i, l := range layers {
		if fused(layers, i) {
			continue
		}
		id := lt.rec.begin(lt.names[v][i], root)
		y := l.Forward(x, ws)
		lt.rec.end(id)
		if x != img && x != y && !(len(x.Data) > 0 && len(y.Data) > 0 && &x.Data[0] == &y.Data[0]) {
			ws.Release(x)
		}
		x = y
	}
	lt.rec.end(root)
	return x
}

// forwardBatch mirrors ForwardBatchPool: inferWorkers goroutines, each
// with its own workspace, share the batch's images.
func (lt *layerTracer) forwardBatch(v int, imgs []*tensor.Tensor, pool *nn.WorkspacePool) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(imgs))
	var wg sync.WaitGroup
	for wkr := 0; wkr < inferWorkers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			ws := pool.Get()
			defer pool.Put(ws)
			for i := wkr; i < len(imgs); i += inferWorkers {
				out[i] = lt.forward(v, imgs[i], ws).Clone()
			}
		}(wkr)
	}
	wg.Wait()
	return out
}

// traceLayers turns the traced forward pass into per-layer metrics, checks
// the layer-by-layer path against Net.Forward, replays the tensor kernels
// for the rest of the pass, and prints the Figure 3 cross-check.
func (w *infer) traceLayers(o *outcome, lt *layerTracer, rec *recorder, start time.Time, seconds float64) error {
	self := rec.selfTimes()
	for v, net := range w.nets {
		ws := nn.NewWorkspace()
		ref := net.Forward(w.imgs[0], nil)
		if got := lt.forward(v, w.imgs[0], ws); !sameValues(got, ref) {
			o.checkf("%s layer-by-layer output differs from Net.Forward", inferVariants[v])
		}
		for _, l := range caffenetTimedLayers {
			o.layers["nn.layer_ms."+inferVariants[v]+"."+l] = median(self["nn.layer."+inferVariants[v]+"."+l])
		}
	}
	w.replayKernels(o, rec, start, seconds)
	return w.figure3(o, self)
}

// figure3 prints, per layer of the dense net, its measured share of the
// forward pass beside gpusim's Figure 3 share on p2.xlarge and its FLOP
// share. It is a report, not a check.
func (w *infer) figure3(o *outcome, self map[string][]float64) error {
	dense := w.nets[0]
	inst, err := cloud.ByName("p2.xlarge")
	if err != nil {
		return err
	}
	sim, err := w.harness.LayerDistribution(context.Background(), dense, prune.Degree{}, inst)
	if err != nil {
		return err
	}
	simShare := map[string]float64{}
	for _, s := range sim {
		simShare[s.Name] = s.Share
	}
	costs := dense.LayerCosts()
	var flops, measured float64
	for _, c := range costs {
		flops += float64(c.Cost.FLOPs)
		measured += median(self["nn.layer.dense."+c.Layer.Name()])
	}
	o.notef("Figure 3 cross-check (dense caffenet; report only): layer  measured%%  gpusim-p2.xlarge%%  FLOP%%")
	for _, c := range costs {
		name := c.Layer.Name()
		if _, timed := self["nn.layer.dense."+name]; !timed {
			continue
		}
		o.notef("  %-8s %6.2f %6.2f %6.2f", name,
			100*median(self["nn.layer.dense."+name])/measured, 100*simShare[name], 100*float64(c.Cost.FLOPs)/flops)
	}
	return nil
}

// convReplay is one conv layer's kernels set up for replay from outside,
// per group: the dense net's input slice and im2col buffer, the pruned
// net's im2col matrix, dense and CSR weights, biases, an output buffer,
// and the layer outputs the replays must reproduce.
type convReplay struct {
	name         string
	geom         tensor.ConvGeom
	relu         bool
	in           [][]float32
	cols, pcols  []*tensor.Matrix
	dst          []*tensor.Matrix
	dense        []*tensor.Matrix
	csr          []*tensor.CSR
	bias, pbias  [][]float32
	want, pwant  [][]float32
	gemmF, spmmF float64 // FLOPs of one replay over all groups
}

// fcReplay is one fully-connected layer's matrix-vector product.
type fcReplay struct {
	name       string
	relu       bool
	w          *tensor.Matrix
	x, bias, y []float32
	want       []float32
}

// capture runs one image layer by layer and returns each layer's input
// and output, keyed by layer name.
func capture(net *nn.Net, img *tensor.Tensor) (ins, outs map[string]*tensor.Tensor) {
	ins, outs = map[string]*tensor.Tensor{}, map[string]*tensor.Tensor{}
	layers := net.Layers()
	x := img
	for i, l := range layers {
		if fused(layers, i) {
			continue
		}
		y := l.Forward(x, nil)
		ins[l.Name()], outs[l.Name()] = x, y
		x = y
	}
	return ins, outs
}

// newReplays prepares every conv layer of both nets at its per-group
// geometry, and every FC layer of the dense net, from the layers' real
// weights and the inputs one image gives them.
func (w *infer) newReplays() ([]*convReplay, []*fcReplay) {
	dIns, dOuts := capture(w.nets[0], w.imgs[0])
	pIns, pOuts := capture(w.nets[1], w.imgs[0])
	var convs []*convReplay
	var fcs []*fcReplay
	dl, pl := w.nets[0].Layers(), w.nets[1].Layers()
	for i, l := range dl {
		relu := i+1 < len(dl) && fused(dl, i+1)
		if f, ok := l.(*nn.FC); ok {
			fcs = append(fcs, &fcReplay{
				name: f.Name(), relu: relu, w: f.Weights(), x: dIns[f.Name()].Data, bias: f.Bias(),
				y: make([]float32, f.Out), want: dOuts[f.Name()].Data,
			})
			continue
		}
		c, ok := l.(*nn.Conv)
		if !ok {
			continue
		}
		pc := pl[i].(*nn.Conv)
		in, pin := dIns[c.Name()], pIns[c.Name()]
		g := tensor.ConvGeom{
			InC: in.Dim(0) / c.Groups, InH: in.Dim(1), InW: in.Dim(2), KH: c.KH, KW: c.KW,
			StrideH: c.StrideH, StrideW: c.StrideW, PadH: c.PadH, PadW: c.PadW,
		}
		r := &convReplay{name: c.Name(), geom: g, relu: relu}
		outCg, plane := c.OutC/c.Groups, g.OutH()*g.OutW()
		rows, chunk, wcols := g.InC*c.KH*c.KW, g.InC*g.InH*g.InW, c.Weights().Cols
		for grp := 0; grp < c.Groups; grp++ {
			wrows := func(m *tensor.Matrix) *tensor.Matrix {
				return tensor.MatrixFromSlice(m.Data[grp*outCg*wcols:(grp+1)*outCg*wcols], outCg, wcols)
			}
			seg := func(t *tensor.Tensor) []float32 { return t.Data[grp*outCg*plane : (grp+1)*outCg*plane] }
			r.in = append(r.in, in.Data[grp*chunk:(grp+1)*chunk])
			r.cols = append(r.cols, tensor.NewMatrix(rows, plane))
			r.pcols = append(r.pcols, tensor.Im2Col(g, pin.Data[grp*chunk:(grp+1)*chunk]))
			r.dst = append(r.dst, tensor.NewMatrix(outCg, plane))
			r.dense = append(r.dense, wrows(c.Weights()))
			csr := tensor.ToCSR(wrows(pc.Weights()))
			r.csr = append(r.csr, csr)
			r.bias = append(r.bias, c.Bias()[grp*outCg:(grp+1)*outCg])
			r.pbias = append(r.pbias, pc.Bias()[grp*outCg:(grp+1)*outCg])
			r.want = append(r.want, seg(dOuts[c.Name()]))
			r.pwant = append(r.pwant, seg(pOuts[c.Name()]))
			r.gemmF += 2 * float64(outCg) * float64(rows) * float64(plane)
			r.spmmF += 2 * float64(csr.NNZ()) * float64(plane)
		}
		convs = append(convs, r)
	}
	return convs, fcs
}

func (r *convReplay) im2col() {
	for grp := range r.in {
		tensor.Im2ColInto(r.geom, r.in[grp], r.cols[grp])
	}
}

// gemm runs the dense net's kernel, serial as a one-worker workspace runs it.
func (r *convReplay) gemm() {
	for grp := range r.cols {
		tensor.ParallelMatMulFusedInto(r.dst[grp], r.dense[grp], r.cols[grp], r.bias[grp], r.relu, 1)
	}
}

func (r *convReplay) spmm() {
	for grp := range r.pcols {
		tensor.SpMMFusedInto(r.dst[grp], r.csr[grp], r.pcols[grp], r.pbias[grp], r.relu)
	}
}

func (r *fcReplay) matvec() { tensor.MatVecFusedInto(r.y, r.w, r.x, r.bias, r.relu) }

// matches reports whether the output buffers equal want bit for bit.
func matches(dst []*tensor.Matrix, want [][]float32) bool {
	for grp := range dst {
		if !sameValues(tensor.FromSlice(dst[grp].Data, len(dst[grp].Data)), tensor.FromSlice(want[grp], len(want[grp]))) {
			return false
		}
	}
	return true
}

// replayKernels times each conv layer's im2col, GEMM (dense net) and CSR
// SpMM (pruned net) and each FC layer's matrix-vector product until the
// pass's time is up, after checking that each replay reproduces its
// layer's output. GFLOP/s figures are computed operation counts over
// measured time.
func (w *infer) replayKernels(o *outcome, rec *recorder, start time.Time, seconds float64) {
	convs, fcs := w.newReplays()
	for _, r := range convs {
		r.im2col()
		r.gemm()
		if !matches(r.dst, r.want) {
			o.checkf("%s: im2col+GEMM replay differs from the dense layer output", r.name)
		}
		r.spmm()
		if !matches(r.dst, r.pwant) {
			o.checkf("%s: CSR SpMM replay differs from the pruned layer output", r.name)
		}
	}
	for _, r := range fcs {
		r.matvec()
		if !sameValues(tensor.FromSlice(r.y, len(r.y)), tensor.FromSlice(r.want, len(r.want))) {
			o.checkf("%s: matvec replay differs from the layer output", r.name)
		}
	}
	samples := map[string][]float64{}
	timeIt := func(name string, f func()) {
		id := rec.begin(name, 0)
		t0 := time.Now()
		f()
		samples[name] = append(samples[name], ms(time.Since(t0)))
		rec.end(id)
	}
	for rep := 0; rep < 3 || time.Since(start).Seconds() < seconds; rep++ {
		for _, r := range convs {
			timeIt("tensor.im2col_ms."+r.name, r.im2col)
			timeIt("tensor.gemm_ms."+r.name, r.gemm)
			timeIt("tensor.spmm_ms."+r.name, r.spmm)
		}
		for _, r := range fcs {
			timeIt("tensor.matvec_ms."+r.name, r.matvec)
		}
	}
	var gemmF, gemmMS, spmmF, spmmMS float64
	for _, r := range convs {
		o.layers["tensor.im2col_ms."+r.name] = median(samples["tensor.im2col_ms."+r.name])
		g, s := median(samples["tensor.gemm_ms."+r.name]), median(samples["tensor.spmm_ms."+r.name])
		o.layers["tensor.gemm_ms."+r.name], o.layers["tensor.spmm_ms."+r.name] = g, s
		gemmF, gemmMS, spmmF, spmmMS = gemmF+r.gemmF, gemmMS+g, spmmF+r.spmmF, spmmMS+s
	}
	for _, r := range fcs {
		o.layers["tensor.matvec_ms."+r.name] = median(samples["tensor.matvec_ms."+r.name])
	}
	o.layers["tensor.gemm_gflops"] = gemmF / gemmMS / 1e6
	o.layers["tensor.spmm_gflops"] = spmmF / spmmMS / 1e6
	o.notef("kernel replay: %d reps per kernel; tensor.gemm_gflops %.2f and tensor.spmm_gflops %.2f are computed FLOP counts over measured time",
		len(samples["tensor.gemm_ms.conv1"]), o.layers["tensor.gemm_gflops"], o.layers["tensor.spmm_gflops"])
}
