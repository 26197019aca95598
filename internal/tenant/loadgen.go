package tenant

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"ccperf/internal/autoscale"
	"ccperf/internal/serving"
	"ccperf/internal/stats"
	"ccperf/internal/telemetry"
)

// LoadConfig parameterizes one open-loop multi-tenant replay. Each tenant
// generates its own Poisson arrival process at Spec.OfferedQPS (falling
// back to its QPS quota, then 20/s), so a flooding tenant is expressed as
// OfferedQPS ≫ QPS in the spec file.
type LoadConfig struct {
	// Duration is the wall-clock length of the replay (required).
	Duration time.Duration
	// Seed drives every tenant's arrival process (tenant i draws from
	// Seed+i in registry order, so runs replay deterministically).
	Seed int64
	// Cooldown keeps the fleet running idle after the last arrival so the
	// scaler can observe recovery (0 = none).
	Cooldown time.Duration
	// Scaler, when non-nil, folds the scaler's placement status —
	// per-tenant attributed cost, $/million-on-time, who degraded first —
	// into the report.
	Scaler *autoscale.Scaler
}

// TenantReport is one tenant's slice of a multi-tenant load test.
type TenantReport struct {
	Name       string  `json:"name"`
	OfferedQPS float64 `json:"offered_qps"`
	QPSQuota   float64 `json:"qps_quota"`
	SLOMS      float64 `json:"slo_ms"`

	Submitted int `json:"submitted"`
	OK        int `json:"ok"`
	// Rejected counts quota rejections (the 429s) — deliberate
	// back-pressure on a tenant exceeding its own quota, excluded from
	// ErrorRate.
	Rejected int `json:"rejected"`
	Shed     int `json:"shed"`
	Expired  int `json:"expired"`
	Faulted  int `json:"faulted"`
	// Other counts every failure outside those classes (ErrStopped, a
	// wrapped error of any other kind).
	Other   int   `json:"other_errors"`
	Retries int64 `json:"retries"`

	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`

	// OnTime counts served requests that beat the tenant's SLO;
	// OnTimeFrac is their fraction of OK.
	OnTime     int64   `json:"on_time"`
	OnTimeFrac float64 `json:"on_time_frac"`

	MeanAccuracy float64 `json:"mean_accuracy"`
	PerVariant   []int   `json:"per_variant"`
	Degrades     int64   `json:"degrades"`
	Restores     int64   `json:"restores"`

	// Stages attributes this tenant's latency to pipeline stages.
	Stages serving.Stages `json:"stages"`
}

// ErrorRate is the tenant's shed+expired+faulted+other fraction of
// submissions. Quota rejections are excluded: a tenant over its own quota
// being told 429 is the isolation mechanism working, not a service
// failure.
func (t *TenantReport) ErrorRate() float64 {
	if t.Submitted == 0 {
		return 0
	}
	return float64(t.Shed+t.Expired+t.Faulted+t.Other) / float64(t.Submitted)
}

// Report summarizes one multi-tenant load test: per-tenant rows plus the
// joint placement view.
type Report struct {
	Tenants     []TenantReport `json:"tenants"`
	WallSeconds float64        `json:"wall_seconds"`
	// Throughput is fleet-wide served requests per wall second.
	Throughput float64 `json:"throughput_rps"`
	// Joint is the scaler's final status (nil when no scaler ran): the
	// fleet bill split per tenant, $/million-on-time, degrade order.
	Joint *autoscale.Status `json:"joint,omitempty"`
}

// Tenant returns the named row (nil when absent).
func (r *Report) Tenant(name string) *TenantReport {
	for i := range r.Tenants {
		if r.Tenants[i].Name == name {
			return &r.Tenants[i]
		}
	}
	return nil
}

// ErrorRate is the worst per-tenant error rate — the chaos smoke gates on
// the fleet's weakest tenant, since a mean would let a noisy neighbor
// hide a starved one.
func (r *Report) ErrorRate() float64 {
	worst := 0.0
	for i := range r.Tenants {
		if e := r.Tenants[i].ErrorRate(); e > worst {
			worst = e
		}
	}
	return worst
}

// RunLoad replays every tenant's Poisson arrival process open-loop
// against the gateway: arrivals fire at their scheduled offsets whether or
// not earlier requests completed. Each tenant offers its spec's
// OfferedQPS (falling back to its QPS quota, then 20/s); specs name the
// gateway's tenants. It returns after every response has arrived and the
// cooldown has elapsed. The caller owns gateway Start/Stop (and Scaler
// Start/Stop).
func RunLoad(g *serving.Gateway, specs []Spec, cfg LoadConfig) (*Report, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("tenant: load config needs a positive duration")
	}
	offered := make(map[string]float64, len(specs))
	for _, s := range specs {
		offered[s.Name] = s.OfferedQPS
	}
	names := g.Tenants()
	rep := &Report{Tenants: make([]TenantReport, len(names))}

	ctx, finishReplay := g.Config().Tracer.StartSpan(context.Background(), "loadtest.replay")
	start := time.Now()
	var wg sync.WaitGroup

	for i, name := range names {
		st := g.TenantStats(name)
		rate := offered[name]
		if rate <= 0 {
			rate = st.QPSQuota
		}
		if rate <= 0 {
			rate = 20
		}
		tr := &rep.Tenants[i]
		tr.Name = name
		tr.OfferedQPS = rate
		tr.QPSQuota = st.QPSQuota
		tr.SLOMS = st.SLOMS
		ladder := g.Ladder(name)
		tr.PerVariant = make([]int, len(ladder))

		wg.Add(1)
		go func(tr *TenantReport, rate float64, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			shape := ladder[0].Net.Input
			var mu sync.Mutex
			latencies := []float64{}
			var inner sync.WaitGroup
			elapsed := time.Duration(0)
			for n := int64(0); ; n++ {
				// Poisson process: exponential inter-arrival at the rate.
				elapsed += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
				if elapsed >= cfg.Duration {
					break
				}
				if d := time.Until(start.Add(elapsed)); d > 0 {
					time.Sleep(d)
				}
				img := serving.SyntheticImage(shape.C, shape.H, shape.W, seed+n)
				mu.Lock()
				tr.Submitted++
				mu.Unlock()
				ch, err := g.SubmitAs(ctx, tr.Name, img, time.Time{})
				if err != nil {
					mu.Lock()
					countTenantError(tr, err)
					mu.Unlock()
					continue
				}
				inner.Add(1)
				go func() {
					defer inner.Done()
					resp := <-ch
					mu.Lock()
					defer mu.Unlock()
					if resp.Err != nil {
						countTenantError(tr, resp.Err)
						return
					}
					tr.OK++
					if resp.Variant < len(tr.PerVariant) {
						tr.PerVariant[resp.Variant]++
					}
					tr.MeanAccuracy += resp.Accuracy
					latencies = append(latencies, resp.Total.Seconds())
				}()
			}
			inner.Wait()
			mu.Lock()
			defer mu.Unlock()
			if tr.OK > 0 {
				tr.MeanAccuracy /= float64(tr.OK)
				p50, p95, p99, max := stats.Summary(latencies)
				tr.P50MS, tr.P95MS, tr.P99MS, tr.MaxMS = p50*1000, p95*1000, p99*1000, max*1000
			}
		}(tr, rate, cfg.Seed+int64(i))
	}
	wg.Wait()
	finishReplay(telemetry.L("tenants", len(names)))
	if cfg.Cooldown > 0 {
		time.Sleep(cfg.Cooldown)
	}
	rep.WallSeconds = time.Since(start).Seconds()

	stages := g.StageStatsByTenant()
	totalOK := 0
	for i := range rep.Tenants {
		tr := &rep.Tenants[i]
		st := g.TenantStats(tr.Name)
		tr.Retries = st.Retries
		tr.OnTime = st.OnTime
		tr.Degrades = st.Degrades
		tr.Restores = st.Restores
		if tr.OK > 0 {
			tr.OnTimeFrac = float64(tr.OnTime) / float64(st.Served)
		}
		tr.Stages = stages[tr.Name]
		totalOK += tr.OK
	}
	if rep.WallSeconds > 0 {
		rep.Throughput = float64(totalOK) / rep.WallSeconds
	}
	if cfg.Scaler != nil {
		js := cfg.Scaler.Status()
		rep.Joint = &js
	}
	return rep, nil
}

// countTenantError files one failed request under its outcome, by
// errors.Is so a wrapped sentinel still lands in its class.
func countTenantError(tr *TenantReport, err error) {
	switch {
	case errors.Is(err, serving.ErrQuotaExceeded):
		tr.Rejected++
	case errors.Is(err, serving.ErrOverloaded):
		tr.Shed++
	case errors.Is(err, serving.ErrExpired):
		tr.Expired++
	case errors.Is(err, serving.ErrFaulted):
		tr.Faulted++
	default:
		tr.Other++
	}
}

// String renders the report for the CLI: one block per tenant plus the
// joint placement summary (the fleet's own scaler lines are the CLI's).
func (r *Report) String() string {
	var b strings.Builder
	for i := range r.Tenants {
		t := &r.Tenants[i]
		fmt.Fprintf(&b, "tenant %-10s: %d submitted, %d ok, %d rejected (429), %d shed, %d expired, %d faulted, %d other errors\n",
			t.Name, t.Submitted, t.OK, t.Rejected, t.Shed, t.Expired, t.Faulted, t.Other)
		fmt.Fprintf(&b, "  latency  : p50 %.1f ms, p99 %.1f ms (SLO %.0f ms), %.1f%% on-time, %.2f%% errors\n",
			t.P50MS, t.P99MS, t.SLOMS, t.OnTimeFrac*100, t.ErrorRate()*100)
		fmt.Fprintf(&b, "  accuracy : %.1f%% mean proxy, ladder %v (%d degrades, %d restores)\n",
			t.MeanAccuracy*100, t.PerVariant, t.Degrades, t.Restores)
	}
	fmt.Fprintf(&b, "fleet: %.0f req/s served over %.2f s\n", r.Throughput, r.WallSeconds)
	if j := r.Joint; j != nil {
		if j.DegradedFirst != "" {
			fmt.Fprintf(&b, "joint: degraded first: %s; next in line: %v\n", j.DegradedFirst, j.DegradeOrder)
		}
		for _, tc := range j.Tenants {
			fmt.Fprintf(&b, "joint: %-10s share %.0f%%, $%.4f attributed, $%.2f/M on-time (%d on-time)\n",
				tc.Name, tc.Share*100, tc.CostUSD, tc.DollarsPerMillionOnTime, tc.OnTime)
		}
	}
	return b.String()
}
