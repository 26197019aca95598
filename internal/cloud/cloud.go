// Package cloud models the Amazon EC2 GPU instances of Table 3 and the
// paper's analytical time and cost models (Section 3.4, Equations 1–4):
// per-second pro-rated pay-per-use pricing, workload distribution across a
// resource configuration, and total time/cost estimation from per-batch
// inference measurements.
package cloud

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// GPUKind names a GPU device model.
type GPUKind string

// GPU device kinds used by the paper's instance types. V100 backs the
// p3 transfer targets: instances the measurement harness has never
// profiled, reachable only through engine transfer prediction.
const (
	K80  GPUKind = "NVIDIA K80"
	M60  GPUKind = "NVIDIA M60"
	V100 GPUKind = "NVIDIA V100"
)

// Instance is one EC2 instance type row of Table 3.
//
// TFLOPs and MemBWGBs are the per-GPU roofline device features the
// transfer predictor (internal/engine) fits against: single-precision
// peak throughput and memory bandwidth of one GPU of the instance.
type Instance struct {
	Name         string
	VCPUs        int
	GPUs         int
	MemGB        int
	GPUMemGB     int
	PricePerHour float64 // USD
	GPU          GPUKind
	TFLOPs       float64 // per-GPU peak fp32 TFLOP/s
	MemBWGBs     float64 // per-GPU memory bandwidth, GB/s
}

// PricePerSecond returns the pro-rated per-second price (Section 4.1.2:
// the hourly price is pro-rated to the nearest second).
func (i *Instance) PricePerSecond() float64 { return i.PricePerHour / 3600 }

// Per-GPU device features: GK210 (one of the K80's two chips), GM204
// (one of the M60's two), and GV100 — published fp32 peak and memory
// bandwidth per GPU.
const (
	k80TFLOPs, k80MemBWGBs   = 4.37, 240.0
	m60TFLOPs, m60MemBWGBs   = 4.8, 160.0
	v100TFLOPs, v100MemBWGBs = 15.7, 900.0
)

// Catalog returns Table 3: the six Amazon EC2 GPU instance types (Oregon
// region) the paper evaluates.
func Catalog() []*Instance {
	return []*Instance{
		{Name: "p2.xlarge", VCPUs: 4, GPUs: 1, MemGB: 61, GPUMemGB: 12, PricePerHour: 0.9, GPU: K80, TFLOPs: k80TFLOPs, MemBWGBs: k80MemBWGBs},
		{Name: "p2.8xlarge", VCPUs: 32, GPUs: 8, MemGB: 488, GPUMemGB: 96, PricePerHour: 7.2, GPU: K80, TFLOPs: k80TFLOPs, MemBWGBs: k80MemBWGBs},
		{Name: "p2.16xlarge", VCPUs: 64, GPUs: 16, MemGB: 732, GPUMemGB: 192, PricePerHour: 14.4, GPU: K80, TFLOPs: k80TFLOPs, MemBWGBs: k80MemBWGBs},
		{Name: "g3.4xlarge", VCPUs: 16, GPUs: 1, MemGB: 122, GPUMemGB: 8, PricePerHour: 1.14, GPU: M60, TFLOPs: m60TFLOPs, MemBWGBs: m60MemBWGBs},
		{Name: "g3.8xlarge", VCPUs: 32, GPUs: 2, MemGB: 244, GPUMemGB: 16, PricePerHour: 2.28, GPU: M60, TFLOPs: m60TFLOPs, MemBWGBs: m60MemBWGBs},
		{Name: "g3.16xlarge", VCPUs: 64, GPUs: 4, MemGB: 488, GPUMemGB: 32, PricePerHour: 4.56, GPU: M60, TFLOPs: m60TFLOPs, MemBWGBs: m60MemBWGBs},
	}
}

// TransferTargets returns the p3 (V100) family: instance types the paper
// never profiled and the GPU simulator has no device model for. Their
// batch times are reachable only through the transfer predictor, which
// extrapolates from the calibrated catalog's roofline features.
func TransferTargets() []*Instance {
	return []*Instance{
		{Name: "p3.2xlarge", VCPUs: 8, GPUs: 1, MemGB: 61, GPUMemGB: 16, PricePerHour: 3.06, GPU: V100, TFLOPs: v100TFLOPs, MemBWGBs: v100MemBWGBs},
		{Name: "p3.8xlarge", VCPUs: 32, GPUs: 4, MemGB: 244, GPUMemGB: 64, PricePerHour: 12.24, GPU: V100, TFLOPs: v100TFLOPs, MemBWGBs: v100MemBWGBs},
		{Name: "p3.16xlarge", VCPUs: 64, GPUs: 8, MemGB: 488, GPUMemGB: 128, PricePerHour: 24.48, GPU: V100, TFLOPs: v100TFLOPs, MemBWGBs: v100MemBWGBs},
	}
}

// AllTypes returns the calibrated catalog followed by the transfer
// targets — the full instance universe the predict surface plans over.
func AllTypes() []*Instance {
	return append(Catalog(), TransferTargets()...)
}

// ByName returns the catalog instance with the given name.
func ByName(name string) (*Instance, error) {
	return byNameIn(Catalog(), name)
}

// ByNameAll resolves a name against the full instance universe (catalog +
// transfer targets). Commands that can serve uncalibrated instances (the
// predict surface) resolve through this; everything that needs the
// measurement harness keeps using ByName, so an unprofiled type stays an
// explicit error rather than a panic deep in the simulator.
func ByNameAll(name string) (*Instance, error) {
	return byNameIn(AllTypes(), name)
}

func byNameIn(types []*Instance, name string) (*Instance, error) {
	for _, i := range types {
		if i.Name == name {
			return i, nil
		}
	}
	return nil, fmt.Errorf("cloud: unknown instance type %q", name)
}

// P2Types returns the three p2-category types (the Figure 9/10 pool).
func P2Types() []*Instance {
	return []*Instance{
		mustByName("p2.xlarge"), mustByName("p2.8xlarge"), mustByName("p2.16xlarge"),
	}
}

func mustByName(n string) *Instance {
	i, err := ByName(n)
	if err != nil {
		panic(err)
	}
	return i
}

// Config is a cloud resource configuration R: a multiset of instances,
// stored as sorted instance pointers. The paper forms configurations as
// subsets of a finite pool G of available resource instances.
type Config struct {
	Instances []*Instance
}

// NewConfig builds a configuration from instances (order normalized).
func NewConfig(instances ...*Instance) Config {
	c := Config{Instances: append([]*Instance(nil), instances...)}
	sortByName(c.Instances)
	return c
}

// sortByName orders instances by type name. The sort is not stable:
// distinct instances sharing a name keep the order pdqsort leaves them in.
func sortByName(insts []*Instance) {
	slices.SortFunc(insts, func(a, b *Instance) int { return strings.Compare(a.Name, b.Name) })
}

// Size returns |R|, the number of resource instances.
func (c Config) Size() int { return len(c.Instances) }

// Empty reports whether the configuration has no instances.
func (c Config) Empty() bool { return len(c.Instances) == 0 }

// HourlyPrice returns Σ cᵢ in $/hour.
func (c Config) HourlyPrice() float64 {
	var s float64
	for _, i := range c.Instances {
		s += i.PricePerHour
	}
	return s
}

// Label renders a stable multiset label, e.g. "2xp2.xlarge+1xp2.8xlarge".
func (c Config) Label() string {
	if c.Empty() {
		return "empty"
	}
	counts := map[string]int{}
	var order []string
	for _, i := range c.Instances {
		if counts[i.Name] == 0 {
			order = append(order, i.Name)
		}
		counts[i.Name]++
	}
	sort.Strings(order)
	parts := make([]string, len(order))
	for k, n := range order {
		parts[k] = fmt.Sprintf("%dx%s", counts[n], n)
	}
	return strings.Join(parts, "+")
}

// Perf supplies the per-instance measurements the analytical model consumes:
// t_{b,a}, the time for one batch of b parallel inferences at the current
// application accuracy (degree of pruning), and b_i, the instance's maximum
// parallel inference count. Implementations come from the GPU simulator via
// internal/measure.
type Perf interface {
	// BatchTime returns the seconds one instance of type it needs to run
	// one full batch of b parallel inferences.
	BatchTime(it *Instance, b int) float64
	// MaxBatch returns b_i, the saturating parallel inference count for
	// the instance (all GPUs).
	MaxBatch(it *Instance) int
}

// Estimate is the output of the analytical model for one configuration.
type Estimate struct {
	Config  Config
	Seconds float64 // T, Equation 2
	Cost    float64 // C, Equation 1
}

// Hours returns T in hours.
func (e Estimate) Hours() float64 { return e.Seconds / 3600 }

// EstimateRun applies Equations 1–4 to configuration cfg for W inference
// images: images are distributed evenly (Wᵢ = W/|R|, Equation 4), each
// instance runs nᵢ = ⌈Wᵢ/bᵢ⌉ batches (Equation 3), total time is the
// slowest instance (Equation 2), and cost is T·Σcᵢ with per-second
// pro-rating (Equation 1).
func EstimateRun(cfg Config, w int64, perf Perf) (Estimate, error) {
	if cfg.Empty() {
		return Estimate{}, fmt.Errorf("cloud: cannot estimate empty configuration")
	}
	if w <= 0 {
		return Estimate{}, fmt.Errorf("cloud: non-positive workload %d", w)
	}
	wi := float64(w) / float64(cfg.Size())
	var t float64
	for _, inst := range cfg.Instances {
		b := perf.MaxBatch(inst)
		if b <= 0 {
			return Estimate{}, fmt.Errorf("cloud: instance %s has non-positive batch size", inst.Name)
		}
		n := math.Ceil(wi / float64(b))
		ti := n * perf.BatchTime(inst, b)
		if ti > t {
			t = ti
		}
	}
	billed := math.Ceil(t) // pro-rated to the nearest second
	cost := 0.0
	for _, inst := range cfg.Instances {
		cost += billed * inst.PricePerSecond()
	}
	return Estimate{Config: cfg, Seconds: t, Cost: cost}, nil
}

// Pool is the paper's G: a concrete set of available resource instances.
// BuildPool replicates each type n times (e.g. 3 types × 3 instances for
// Figures 9–10, giving 2^9−1 non-empty subsets).
func BuildPool(types []*Instance, perType int) []*Instance {
	var pool []*Instance
	for _, t := range types {
		for k := 0; k < perType; k++ {
			pool = append(pool, t)
		}
	}
	return pool
}

// Subsets enumerates every non-empty subset of the pool as a Config. This
// is the exponential configuration space (O(2^|G|)) that Algorithm 1's
// greedy heuristic avoids. Identical instances produce duplicate multisets,
// which are kept: the paper counts configurations over subsets of G.
func Subsets(pool []*Instance) []Config {
	n := len(pool)
	if n > 20 {
		panic(fmt.Sprintf("cloud: refusing to enumerate 2^%d subsets", n))
	}
	out := make([]Config, 0, (1<<n)-1)
	if n == 0 {
		return out
	}
	// Each instance is in half of the subsets, so one array of n·2^(n−1)
	// pointers holds every configuration's slice.
	all := make([]*Instance, 0, n<<(n-1))
	for mask := 1; mask < 1<<n; mask++ {
		start := len(all)
		for b := 0; b < n; b++ {
			if mask&(1<<b) != 0 {
				all = append(all, pool[b])
			}
		}
		insts := all[start:len(all):len(all)]
		sortByName(insts)
		out = append(out, Config{Instances: insts})
	}
	return out
}

// UniqueMultisets deduplicates configurations that are the same multiset of
// instance types.
func UniqueMultisets(cfgs []Config) []Config {
	seen := map[string]bool{}
	var out []Config
	for _, c := range cfgs {
		l := c.Label()
		if !seen[l] {
			seen[l] = true
			out = append(out, c)
		}
	}
	return out
}
