package serving

import (
	"sync"

	"ccperf/internal/stats"
)

// MaxWindowSamples caps a latency window between two drains. One control
// tick sees far fewer completions (2,500 at 10k req/s and a 250 ms tick),
// so the cap only bites on a window no control loop drains.
const MaxWindowSamples = 1 << 16

// Window collects completed-request latencies (seconds) between two
// control ticks. Past MaxWindowSamples it drops samples until the next
// Drain, so a fleet nobody controls holds a bounded window. The gateway
// keeps one; the tenant mux keeps one per tenant.
type Window struct {
	mu      sync.Mutex
	samples []float64
}

// Add records one latency.
func (w *Window) Add(sec float64) {
	w.mu.Lock()
	if len(w.samples) < MaxWindowSamples {
		w.samples = append(w.samples, sec)
	}
	w.mu.Unlock()
}

// Drain empties the window and returns its p99 and sample count.
func (w *Window) Drain() (p99 float64, samples int) {
	w.mu.Lock()
	s := w.samples
	w.samples = nil
	w.mu.Unlock()
	return stats.Percentile(s, 0.99), len(s)
}

// Observation is one tenant's view over a control tick: its drained
// latency window, queue fill and rung, the SLO and cost cap it is held to,
// and the cumulative counters a control loop turns into rates. A gateway
// reports one row, for DefaultTenant; a tenant mux reports one per tenant.
type Observation struct {
	Name string `json:"name"`
	// SLOSeconds is the tenant's p99 objective; MaxCostPerHour caps its
	// attributed share of the fleet's burn rate (0 = uncapped).
	SLOSeconds     float64 `json:"slo_seconds"`
	MaxCostPerHour float64 `json:"max_cost_per_hour"`
	// P99 and Samples summarize the window drained by this observation.
	P99       float64 `json:"p99_seconds"`
	Samples   int     `json:"samples"`
	QueueFrac float64 `json:"queue_frac"`
	Variant   int     `json:"variant"`
	// Submitted counts every request that knocked: admitted, shed, or
	// rejected by a tenant's quota (a gateway has none).
	Submitted int64 `json:"submitted"`
	Shed      int64 `json:"shed"`
	Expired   int64 `json:"expired"`
	Faulted   int64 `json:"faulted"`
	Served    int64 `json:"served"`
	// OnTime counts served requests that beat the SLO. The gateway does
	// not count them, so its row reads 0.
	OnTime int64 `json:"on_time"`
}

// Tenants names the gateway's one tenant.
func (g *Gateway) Tenants() []string { return []string{DefaultTenant} }

// Ladder returns the variant ladder of DefaultTenant (or ""), nil for any
// other tenant.
func (g *Gateway) Ladder(tenant string) []Variant {
	if tenant != "" && tenant != DefaultTenant {
		return nil
	}
	return g.cfg.Ladder
}

// Observe drains the latency window and snapshots the gateway's counters:
// one row, for DefaultTenant. Every control loop reads the window through
// here — the built-in controller, the autoscaler, the shard balancer — and
// only one of them should run per gateway, or each sees part of the
// window's samples.
func (g *Gateway) Observe() []Observation { return []Observation{g.observe()} }

func (g *Gateway) observe() Observation {
	p99, n := g.window.Drain()
	shed := g.m.shed.Value()
	return Observation{
		Name:       DefaultTenant,
		SLOSeconds: g.cfg.SLO.Seconds(),
		P99:        p99,
		Samples:    n,
		QueueFrac:  float64(len(g.queue)) / float64(g.cfg.QueueCap),
		Variant:    int(g.variant.Load()),
		Submitted:  g.m.admitted.Value() + shed,
		Shed:       shed,
		Expired:    g.m.expired.Value(),
		Faulted:    g.m.faulted.Value(),
		Served:     g.m.served.Value(),
	}
}
