package nn

import (
	"fmt"

	"ccperf/internal/tensor"
)

// sparseExecThreshold is the weight sparsity above which a convolution
// switches from dense GEMM to CSR SpMM. Below it, sparse bookkeeping costs
// more than the skipped multiplies — the same crossover the paper's
// sparse-Caffe substrate exhibits. Measured after the fused
// register-blocked GEMM landed, the kernels tied at ≈25% sparsity at the
// Caffenet-conv2 shape; with the SSE2 inner loops on amd64 they tied at
// ≈40%, and with the AVX tiles they tie at ≈50% at conv1 and conv2 and
// ≈55–60% at conv3, for random and for filter sparsity alike. It stays at
// 0.25, so layers between it and the tie take the slower CSR kernel;
// moving it changes which kernel a pruned model runs (ROADMAP item 2).
// Measurement tables in docs/KERNELS.md.
const sparseExecThreshold = 0.25

// Conv is a 2-D convolution layer with optional groups (Caffenet's conv2,
// conv4 and conv5 are grouped, which is why Table 1 lists filter depths of
// 48 and 192 against wider inputs).
type Conv struct {
	name             string
	OutC             int
	KH, KW           int
	StrideH, StrideW int
	PadH, PadW       int
	Groups           int

	weights *tensor.Matrix // OutC × (inCg*KH*KW), filter-major
	bias    []float32
	inCg    int // input channels per group; fixed at Init
	csr     *tensor.CSR
	useCSR  bool

	// fuseReLU folds the following ReLU into the GEMM/SpMM epilogue.
	// Set by Net.planFusion (and Inception/Residual Init) — the fused
	// kernels clamp rows as they finish, so the separate ReLU layer is
	// skipped at execution time.
	fuseReLU bool

	// Execution caches, refreshed by Rebuild so Forward allocates nothing:
	// per-group dense weight headers, per-group CSR slices, and the weight
	// NNZ (so Cost stops rescanning the whole matrix per call).
	groupW   []tensor.Matrix
	groupCSR []*tensor.CSR
	nnz      int
}

// NewConv constructs an uninitialized convolution. Init must be called with
// the input shape before Forward. groups must divide both the input
// channels and OutC.
func NewConv(name string, outC, kh, kw, strideH, strideW, padH, padW, groups int) *Conv {
	if groups < 1 {
		groups = 1
	}
	return &Conv{
		name: name, OutC: outC, KH: kh, KW: kw,
		StrideH: strideH, StrideW: strideW, PadH: padH, PadW: padW,
		Groups: groups,
	}
}

// Name implements Layer.
func (c *Conv) Name() string { return c.name }

// Kind implements Layer.
func (c *Conv) Kind() string { return "conv" }

// Init allocates weights for the given input channel count using a
// deterministic pseudo-random initialization derived from seed.
func (c *Conv) Init(inC int, seed int64) error {
	if inC < 1 {
		return fmt.Errorf("nn: conv %q input channels %d < 1", c.name, inC)
	}
	if inC%c.Groups != 0 || c.OutC%c.Groups != 0 {
		return fmt.Errorf("nn: conv %q groups=%d does not divide inC=%d outC=%d", c.name, c.Groups, inC, c.OutC)
	}
	c.inCg = inC / c.Groups
	c.weights = tensor.NewMatrix(c.OutC, c.inCg*c.KH*c.KW)
	fillGaussian(c.weights.Data, seed, 0, 0.05)
	c.bias = make([]float32, c.OutC)
	c.Rebuild()
	return nil
}

func (c *Conv) geom(in Shape) tensor.ConvGeom {
	return tensor.ConvGeom{
		InC: c.inCg, InH: in.H, InW: in.W,
		KH: c.KH, KW: c.KW,
		StrideH: c.StrideH, StrideW: c.StrideW,
		PadH: c.PadH, PadW: c.PadW,
	}
}

// OutShape implements Layer.
func (c *Conv) OutShape(in Shape) Shape {
	g := c.geom(in)
	return Shape{C: c.OutC, H: g.OutH(), W: g.OutW()}
}

// Forward implements Layer via im2col + GEMM (dense) or SpMM (pruned).
// The GEMM writes straight into the output tensor's group segment with the
// bias (and a fused ReLU, when the following layer was folded in) applied
// in the kernel epilogue — no intermediate result matrix, no separate bias
// pass. Dense GEMMs above tensor.ParallelThreshold fan out across
// ws.Workers goroutines.
func (c *Conv) Forward(in *tensor.Tensor, ws *Workspace) *tensor.Tensor {
	inS := Shape{C: in.Dim(0), H: in.Dim(1), W: in.Dim(2)}
	g := c.geom(inS)
	oh, ow := g.OutH(), g.OutW()
	out := wsAcquire(ws, c.OutC, oh, ow)
	outCg := c.OutC / c.Groups
	chVol := inS.H * inS.W
	plane := oh * ow
	rows, cols := c.inCg*c.KH*c.KW, plane
	workers := 1
	if ws != nil {
		workers = ws.Workers
	}
	for grp := 0; grp < c.Groups; grp++ {
		sub := in.Data[grp*c.inCg*chVol : (grp+1)*c.inCg*chVol]
		var colsM *tensor.Matrix
		if ws != nil {
			colsM = ws.Im2colScratch(rows, cols)
		} else {
			colsM = tensor.NewMatrix(rows, cols)
		}
		tensor.Im2ColInto(g, sub, colsM)
		seg := out.Data[grp*outCg*plane : (grp+1)*outCg*plane]
		var dst *tensor.Matrix
		if ws != nil {
			dst = ws.BindMatrix(seg, outCg, plane)
		} else {
			dst = tensor.MatrixFromSlice(seg, outCg, plane)
		}
		biasSeg := c.bias[grp*outCg : (grp+1)*outCg]
		if c.useCSR {
			tensor.SpMMFusedInto(dst, c.groupCSR[grp], colsM, biasSeg, c.fuseReLU)
		} else {
			tensor.ParallelMatMulFusedInto(dst, &c.groupW[grp], colsM, biasSeg, c.fuseReLU, workers)
		}
	}
	return out
}

// Cost implements Layer.
func (c *Conv) Cost(in Shape) Cost {
	g := c.geom(in)
	dense := tensor.ConvFLOPs(g, c.OutC/c.Groups) * int64(c.Groups)
	params := int64(c.OutC)*int64(c.inCg*c.KH*c.KW) + int64(c.OutC)
	nnz := params
	eff := dense
	if c.weights != nil {
		// c.nnz is cached by Rebuild — Cost runs inside explore's
		// enumeration loop and must not rescan the weight matrix.
		wnnz := int64(c.nnz)
		nnz = wnnz + int64(c.OutC)
		density := float64(wnnz) / float64(len(c.weights.Data))
		eff = int64(float64(dense) * density)
	}
	out := c.OutShape(in)
	return Cost{
		FLOPs:           dense,
		EffectiveFLOPs:  eff,
		Params:          params,
		NNZ:             nnz,
		WeightBytes:     4 * nnz,
		ActivationBytes: 4 * int64(in.Volume()+out.Volume()),
	}
}

// Weights implements Prunable.
func (c *Conv) Weights() *tensor.Matrix { return c.weights }

// Bias returns the live bias vector.
func (c *Conv) Bias() []float32 { return c.bias }

// Rebuild implements Prunable: refreshes every execution cache — the
// cached NNZ (so Cost never rescans weights), the per-group dense weight
// headers, and when sparsity crosses the threshold, the full CSR plus
// per-group CSR row slices (so Forward never rebuilds RowPtr tables).
func (c *Conv) Rebuild() {
	if c.weights == nil {
		return
	}
	c.nnz = c.weights.NNZ()
	outCg := c.OutC / c.Groups
	if cap(c.groupW) < c.Groups {
		c.groupW = make([]tensor.Matrix, c.Groups)
	}
	c.groupW = c.groupW[:c.Groups]
	for grp := 0; grp < c.Groups; grp++ {
		c.groupW[grp].Reset(
			c.weights.Data[grp*outCg*c.weights.Cols:(grp+1)*outCg*c.weights.Cols],
			outCg, c.weights.Cols)
	}
	if c.Sparsity() >= sparseExecThreshold {
		c.csr = tensor.ToCSR(c.weights)
		c.useCSR = true
		c.groupCSR = c.groupCSR[:0]
		if c.Groups == 1 {
			c.groupCSR = append(c.groupCSR, c.csr)
		} else {
			for grp := 0; grp < c.Groups; grp++ {
				c.groupCSR = append(c.groupCSR, c.csrGroup(grp, outCg))
			}
		}
	} else {
		c.csr = nil
		c.useCSR = false
		c.groupCSR = c.groupCSR[:0]
	}
}

// csrGroup extracts group grp's rows from the cached CSR weights; called
// only from Rebuild so Forward reuses the precomputed slices.
func (c *Conv) csrGroup(grp, outCg int) *tensor.CSR {
	r0, r1 := grp*outCg, (grp+1)*outCg
	p0, p1 := c.csr.RowPtr[r0], c.csr.RowPtr[r1]
	sub := &tensor.CSR{
		Rows: outCg, Cols: c.csr.Cols,
		RowPtr: make([]int32, outCg+1),
		ColIdx: c.csr.ColIdx[p0:p1],
		Val:    c.csr.Val[p0:p1],
	}
	for i := 0; i <= outCg; i++ {
		sub.RowPtr[i] = c.csr.RowPtr[r0+i] - p0
	}
	return sub
}

// Sparsity returns the zero fraction from the cached NNZ.
func (c *Conv) Sparsity() float64 {
	if c.weights == nil || len(c.weights.Data) == 0 {
		return 0
	}
	return 1 - float64(c.nnz)/float64(len(c.weights.Data))
}

// WeightSparsity implements Prunable. Like Cost it reads the NNZ cached at
// the last Rebuild.
func (c *Conv) WeightSparsity() float64 { return c.Sparsity() }

// UsesSparseKernel reports whether Forward currently runs through SpMM.
func (c *Conv) UsesSparseKernel() bool { return c.useCSR }

// fillGaussian writes a deterministic N(mean, std) sample stream derived
// from seed, using a splitmix-style generator plus Box-Muller. Avoids
// importing math/rand so layer init order cannot perturb other consumers.
func fillGaussian(dst []float32, seed int64, mean, std float64) {
	s := uint64(seed)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	next := func() float64 {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		return float64(z>>11) / (1 << 53)
	}
	for i := 0; i < len(dst); i += 2 {
		u1, u2 := next(), next()
		if u1 < 1e-300 {
			u1 = 1e-300
		}
		r := std * sqrtNeg2Log(u1)
		dst[i] = float32(mean + r*cosTau(u2))
		if i+1 < len(dst) {
			dst[i+1] = float32(mean + r*sinTau(u2))
		}
	}
}
