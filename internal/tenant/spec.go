// Package tenant declares the tenants one serving.Gateway hosts on a
// shared replica fleet — each with its own pruning ladder, calibrated
// accuracy proxy, latency SLO, admission quota, fair-share weight and
// budget share — and drives open-loop multi-tenant load against it.
//
// The paper prices a single model's cost-accuracy frontier on one
// instance at a time; Perseus and "No DNN Left Behind" (PAPERS.md) show
// the dominant serving-cost win comes from co-locating models on shared
// capacity. The mechanisms co-location needs (per-tenant token-bucket
// quotas, deficit-round-robin batching, per-tenant ladders and SLOs) live
// in the gateway itself; this package supplies the spec-file format
// (Spec, ParseSpecs, NewRegistry), NewGateway, which builds a gateway from
// specs, and Arrivals, each tenant's Poisson arrivals for serving.RunLoad.
// autoscale.Scaler drives the resulting gateway like any fleet: which
// tenant degrades first (largest accuracy-per-dollar slack), which gets
// freed capacity, per-tenant $/hr enforcement.
//
// The tenant spec format, fairness model and degrade-order semantics are
// documented in docs/MULTITENANT.md.
package tenant

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"time"

	"ccperf/internal/serving"
)

// Spec declares one tenant to the fleet. JSON tags define the spec-file
// format `ccperf loadtest -tenants` and `serve -tenants` accept (a JSON
// array of these objects).
type Spec struct {
	// Name identifies the tenant (required, unique within a registry).
	Name string `json:"name"`
	// Ladder lists the tenant's prune ratios, least pruned first (empty =
	// serving.DefaultLadderRatios). Each tenant's ladder is built as its
	// own variant set — rungs are never shared across tenants.
	Ladder []float64 `json:"ladder,omitempty"`
	// SLOMS is the tenant's p99 latency objective in milliseconds
	// (default 50). On-time accounting and the scaler defend it.
	SLOMS float64 `json:"slo_ms,omitempty"`
	// DeadlineMS is the per-request deadline in milliseconds applied at
	// admission when the caller supplies none (0 = no deadline).
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
	// QPS is the admission quota in requests/second (0 = unlimited).
	// Requests beyond the bucket are rejected with ErrQuotaExceeded.
	QPS float64 `json:"qps,omitempty"`
	// Burst is the token-bucket depth (default max(1, ceil(QPS))).
	Burst float64 `json:"burst,omitempty"`
	// Weight is the tenant's deficit-round-robin share of replica time
	// (default 1): a weight-2 tenant is offered twice the batch quantum
	// of a weight-1 tenant each scheduling round.
	Weight float64 `json:"weight,omitempty"`
	// QueueCap bounds the tenant's private backlog (default 64); overflow
	// is shed with serving.ErrOverloaded.
	QueueCap int `json:"queue_cap,omitempty"`
	// MaxCostPerHour caps the tenant's attributed share of the fleet burn
	// rate (0 = uncapped); the scaler degrades a tenant over its
	// cap regardless of fleet health.
	MaxCostPerHour float64 `json:"max_cost_per_hour,omitempty"`
	// OfferedQPS is the open-loop load Arrivals generates for this tenant
	// (0 = QPS, or 20/s when both are unset). Offered > QPS exercises
	// quota rejection — the flooding-tenant scenario.
	OfferedQPS float64 `json:"offered_qps,omitempty"`
	// Images is the tenant's offline batch demand for `ccperf pack`
	// (0 = the command's -images default). Unused by the serving path.
	Images int64 `json:"images,omitempty"`
	// PackDeadlineHours is the tenant's offline completion deadline for
	// `ccperf pack`, in hours (0 = none). Distinct from DeadlineMS, which
	// bounds one online request. Unused by the serving path.
	PackDeadlineHours float64 `json:"pack_deadline_hours,omitempty"`
}

// withDefaults fills the documented defaults on zero fields.
func (s Spec) withDefaults() Spec {
	if len(s.Ladder) == 0 {
		s.Ladder = nil // NewGateway's build func substitutes serving.DefaultLadderRatios
	}
	if s.SLOMS <= 0 {
		s.SLOMS = 50
	}
	if s.QPS < 0 {
		s.QPS = 0
	}
	if s.Burst <= 0 && s.QPS > 0 {
		s.Burst = s.QPS
		if s.Burst < 1 {
			s.Burst = 1
		}
	}
	if s.Weight <= 0 {
		s.Weight = 1
	}
	if s.QueueCap <= 0 {
		s.QueueCap = 64
	}
	return s
}

// Bounds on a spec's rates and latencies: a positive qps or offered_qps
// lies in [MinSpecQPS, MaxSpecQPS] (requests/second), a positive slo_ms
// or deadline_ms in [MinSpecMS, serving.MaxLatencyMS]. They sit far
// outside any real tenant (examples/tenants.json asks for 10–60 req/s and
// 250–500 ms) and keep every derived duration representable: SLO() and
// Deadline() neither round to zero nor overflow, and Arrivals'
// inter-arrival gaps neither round to zero (at offered_qps 1e12 every gap
// did, so the replay never advanced) nor overflow.
const (
	MinSpecQPS = 1e-3
	MaxSpecQPS = 1e6
	MinSpecMS  = 1e-3
)

// Validate rejects a spec the fleet cannot host. Every numeric field must
// be finite and non-negative, and the rate and latency fields within
// their bounds; the error names the tenant and the field.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("tenant: spec needs a name")
	}
	for _, r := range s.Ladder {
		if !(r >= 0 && r <= 1) {
			return fmt.Errorf("tenant %s: ladder ratio %v out of [0,1]", s.Name, r)
		}
	}
	if s.Images < 0 {
		return fmt.Errorf("tenant %s: negative images", s.Name)
	}
	for _, f := range []struct {
		name      string
		v, lo, hi float64
	}{
		{"qps", s.QPS, MinSpecQPS, MaxSpecQPS},
		{"offered_qps", s.OfferedQPS, MinSpecQPS, MaxSpecQPS},
		{"slo_ms", s.SLOMS, MinSpecMS, serving.MaxLatencyMS},
		{"deadline_ms", s.DeadlineMS, MinSpecMS, serving.MaxLatencyMS},
		{"burst", s.Burst, 0, math.MaxFloat64},
		{"weight", s.Weight, 0, math.MaxFloat64},
		{"max_cost_per_hour", s.MaxCostPerHour, 0, math.MaxFloat64},
		{"pack_deadline_hours", s.PackDeadlineHours, 0, math.MaxFloat64},
	} {
		switch {
		case math.IsNaN(f.v) || math.IsInf(f.v, 0):
			return fmt.Errorf("tenant %s: %s %v is not finite", s.Name, f.name, f.v)
		case f.v < 0:
			return fmt.Errorf("tenant %s: negative %s", s.Name, f.name)
		case f.v > 0 && (f.v < f.lo || f.v > f.hi):
			return fmt.Errorf("tenant %s: %s %v outside [%v, %v]", s.Name, f.name, f.v, f.lo, f.hi)
		}
	}
	return nil
}

// SLO returns the latency objective as a duration.
func (s Spec) SLO() time.Duration {
	return time.Duration(s.SLOMS * float64(time.Millisecond))
}

// Deadline returns the per-request deadline offset (0 = none).
func (s Spec) Deadline() time.Duration {
	return time.Duration(s.DeadlineMS * float64(time.Millisecond))
}

// Registry is a validated, defaulted tenant set with stable iteration
// order (sorted by name, so every consumer — scheduler rounds, status
// rows, reports — sees the same deterministic order).
type Registry struct {
	specs  []Spec
	byName map[string]int
}

// NewRegistry validates and defaults the specs. Names must be unique.
func NewRegistry(specs []Spec) (*Registry, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("tenant: registry needs at least one spec")
	}
	r := &Registry{byName: make(map[string]int, len(specs))}
	r.specs = make([]Spec, len(specs))
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		r.specs[i] = s.withDefaults()
	}
	sort.Slice(r.specs, func(i, j int) bool { return r.specs[i].Name < r.specs[j].Name })
	for i, s := range r.specs {
		if _, dup := r.byName[s.Name]; dup {
			return nil, fmt.Errorf("tenant: duplicate tenant name %q", s.Name)
		}
		r.byName[s.Name] = i
	}
	return r, nil
}

// Len returns the tenant count.
func (r *Registry) Len() int { return len(r.specs) }

// Specs returns the defaulted specs in name order (shared slice: do not
// mutate).
func (r *Registry) Specs() []Spec { return r.specs }

// Names returns the tenant names in registry (sorted) order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.specs))
	for i, s := range r.specs {
		out[i] = s.Name
	}
	return out
}

// Get returns the named spec and whether it exists.
func (r *Registry) Get(name string) (Spec, bool) {
	i, ok := r.byName[name]
	if !ok {
		return Spec{}, false
	}
	return r.specs[i], true
}

// ParseSpecs decodes a tenant spec file: a JSON array of Spec objects
// (optionally wrapped as {"tenants": [...]}).
func ParseSpecs(rd io.Reader) ([]Spec, error) {
	raw, err := io.ReadAll(rd)
	if err != nil {
		return nil, fmt.Errorf("tenant: reading specs: %w", err)
	}
	var specs []Spec
	if err := json.Unmarshal(raw, &specs); err != nil {
		var wrapped struct {
			Tenants []Spec `json:"tenants"`
		}
		if err2 := json.Unmarshal(raw, &wrapped); err2 != nil || len(wrapped.Tenants) == 0 {
			return nil, fmt.Errorf("tenant: decoding specs: %w", err)
		}
		specs = wrapped.Tenants
	}
	return specs, nil
}

// LoadSpecs reads and parses a tenant spec file.
func LoadSpecs(path string) ([]Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseSpecs(f)
}

// NewGateway validates the specs, builds each tenant's ladder from its
// prune ratios with build (nil = serving.DemoLadder), and returns a
// gateway (not yet serving) hosting the tenants in name order on the
// fleet cfg describes. cfg sets neither Tenants nor Ladder.
func NewGateway(specs []Spec, build func(ratios []float64) ([]serving.Variant, error), cfg serving.Config) (*serving.Gateway, error) {
	reg, err := NewRegistry(specs)
	if err != nil {
		return nil, err
	}
	if build == nil {
		build = serving.DemoLadder
	}
	cfg.Tenants = make([]serving.Tenant, 0, reg.Len())
	for _, s := range reg.Specs() {
		ladder, err := build(s.Ladder)
		if err != nil {
			return nil, fmt.Errorf("tenant %s: building ladder: %w", s.Name, err)
		}
		cfg.Tenants = append(cfg.Tenants, serving.Tenant{
			Name: s.Name, Ladder: ladder, SLO: s.SLO(), Deadline: s.Deadline(),
			QueueCap: s.QueueCap, Weight: s.Weight, QPS: s.QPS, Burst: s.Burst,
			MaxCostPerHour: s.MaxCostPerHour,
		})
	}
	return serving.New(cfg)
}

// Arrivals merges one Poisson process per tenant into a replay for
// serving.RunLoad: each tenant offers its OfferedQPS (else its QPS quota,
// else 20/s) over d, and tenant i in name order, the order NewGateway
// hosts them in, draws from seed+i.
func Arrivals(specs []Spec, d time.Duration, seed int64) ([]serving.Arrival, error) {
	reg, err := NewRegistry(specs)
	if err != nil {
		return nil, err
	}
	var out []serving.Arrival
	for i, s := range reg.Specs() {
		rate := s.OfferedQPS
		if rate <= 0 {
			rate = s.QPS
		}
		if rate <= 0 {
			rate = 20
		}
		rng := rand.New(rand.NewSource(seed + int64(i)))
		for at := time.Duration(0); ; {
			at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			if at >= d {
				break
			}
			out = append(out, serving.Arrival{At: at, Tenant: s.Name})
		}
	}
	slices.SortStableFunc(out, func(a, b serving.Arrival) int { return cmp.Compare(a.At, b.At) })
	return out, nil
}
