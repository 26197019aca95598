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
// keeps one per tenant.
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
// reports one row per tenant.
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
	// rejected by the tenant's quota.
	Submitted int64 `json:"submitted"`
	Shed      int64 `json:"shed"`
	Expired   int64 `json:"expired"`
	Faulted   int64 `json:"faulted"`
	Served    int64 `json:"served"`
	// OnTime counts served requests that beat the SLO.
	OnTime int64 `json:"on_time"`
}

// Tenants names the gateway's tenants in scheduling order.
func (g *Gateway) Tenants() []string {
	out := make([]string, len(g.tenants))
	for i, t := range g.tenants {
		out[i] = t.Name
	}
	return out
}

// Ladder returns the named tenant's variant ladder ("" is DefaultTenant),
// nil for a tenant the gateway does not host (shared slice: do not
// mutate).
func (g *Gateway) Ladder(tenant string) []Variant {
	if t := g.tenant(tenant); t != nil {
		return t.Ladder
	}
	return nil
}

// Observe drains every tenant's latency window and snapshots its counters:
// one row per tenant, in scheduling order. Every control loop reads the
// windows through here — the built-in controller, the autoscaler, the
// shard balancer — and only one of them should run per gateway, or each
// sees part of the windows' samples.
func (g *Gateway) Observe() []Observation {
	out := make([]Observation, len(g.tenants))
	for i, t := range g.tenants {
		out[i] = g.observe(t)
	}
	return out
}

func (g *Gateway) observe(t *tenantState) Observation {
	p99, n := t.window.Drain()
	g.qMu.Lock()
	backlog := t.backlog.len()
	g.qMu.Unlock()
	return Observation{
		Name:           t.Name,
		SLOSeconds:     t.SLO.Seconds(),
		MaxCostPerHour: t.MaxCostPerHour,
		P99:            p99,
		Samples:        n,
		QueueFrac:      float64(backlog) / float64(t.QueueCap),
		Variant:        int(t.variant.Load()),
		Submitted:      t.m.submitted.Value(),
		Shed:           t.m.shed.own.Value(),
		Expired:        t.m.expired.own.Value(),
		Faulted:        t.m.faulted.own.Value(),
		Served:         t.m.served.own.Value(),
		OnTime:         t.m.onTime.Value(),
	}
}
