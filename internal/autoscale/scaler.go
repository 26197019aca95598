package autoscale

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"ccperf/internal/serving"
	"ccperf/internal/telemetry"
)

// Fleet is what a Scaler drives: a replica pool shared by one or more
// tenants, each serving from its own pruning ladder. A *serving.Gateway
// hosts one tenant (serving.DefaultTenant) or N.
type Fleet interface {
	// Tenants names the tenants; Ladder returns one tenant's ladder.
	Tenants() []string
	Ladder(tenant string) []serving.Variant
	// Observe drains every tenant's latency window and returns one row per
	// tenant, in a fixed order.
	Observe() []serving.Observation
	// SetVariant moves one tenant's ladder; ScaleTo resizes the pool.
	SetVariant(ctx context.Context, tenant string, rung int) (int, error)
	ScaleTo(n int) (int, error)
	ReplicaCount() int
	// ReplicaSeconds is the fleet-time integral the bill is priced from;
	// ExecStats gives the served count and busy seconds the capacity
	// estimate divides.
	ReplicaSeconds() float64
	ExecStats() (served int64, execSeconds float64)
}

// Config parameterizes a Scaler. Zero fields take the documented defaults.
type Config struct {
	// Policy is the decision table; its Limits bound the shared fleet
	// (replica caps, price, budget).
	Policy Policy
	// Profiles describes each tenant's ladder to the policy, one profile
	// per rung, keyed by tenant name (required for every tenant; build
	// with BuildProfiles).
	Profiles map[string][]Profile
	// Interval is the control tick period (default 250ms, min 1ms).
	Interval time.Duration
	// Registry and Tracer receive telemetry (nil = package defaults).
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer
}

// Decision is one applied tick, kept for /autoscale/status and tests.
type Decision struct {
	Tick     int64  `json:"tick"`
	Verb     string `json:"verb"`
	Tenant   string `json:"tenant,omitempty"`
	Replicas int    `json:"replicas"`
	Variant  int    `json:"variant"`
	Reason   string `json:"reason"`
	Signal   Signal `json:"signal"`
}

// tenantState is the scaler's per-tenant delta bookkeeping, its own tally
// of the tenant's ladder moves, and the autoscale.tenant.* instruments.
type tenantState struct {
	name               string
	profiles           []Profile
	lastSubmitted      int64
	lastErrors         int64
	degrades, restores int64

	degradeC, restoreC    *telemetry.Counter
	costG, arrivalG, p99G *telemetry.Gauge
}

// Scaler drives a Fleet along both cost-accuracy axes: the shared replica
// count and each tenant's ladder rung. Every tick it reads one row per
// tenant (arrival and error rates from counter deltas, p99 against the
// tenant's SLO, queue pressure, the tenant's served share of the bill),
// folds in the predictor-derived rung profiles, asks the pure Policy for
// a move, and actuates it through Fleet.ScaleTo / Fleet.SetVariant.
// Construct with New against a fleet nothing else controls (a gateway
// built with serving.Config.ExternalControl), then Start/Stop around the
// fleet's own lifecycle.
type Scaler struct {
	fleet    Fleet
	pol      Policy
	interval time.Duration
	tracer   *telemetry.Tracer

	stopOnce  sync.Once
	startOnce sync.Once
	stopCh    chan struct{}
	done      chan struct{}

	mu     sync.Mutex
	ticks  int64
	counts [5]int64 // per-verb decisions, indexed by Verb — this
	// scaler's own tally, independent of the (possibly shared) registry
	healthy     int
	sinceScale  int
	capEstimate float64 // rung-0 req/s per replica, last known
	lastServed  int64
	lastExecSec float64
	tenants     []*tenantState
	rows        []serving.Observation // the last tick's, for Status
	// degradedFirst records the first tenant the policy ever degraded —
	// the observable answer to "who pays for capacity pressure first".
	degradedFirst string
	last          Decision

	m scalerMetrics
}

type scalerMetrics struct {
	ticks                          *telemetry.Counter
	verbs                          [5]*telemetry.Counter // indexed by Verb
	replicas                       *telemetry.Gauge
	arrivalRate, capacityPerRep    *telemetry.Gauge
	costPerHour, budgetUtilization *telemetry.Gauge
}

// New validates the config and binds a scaler to f (not yet ticking).
// Every tenant needs a profile set as long as its ladder.
func New(f Fleet, cfg Config) (*Scaler, error) {
	if f == nil {
		return nil, fmt.Errorf("autoscale: nil fleet")
	}
	cfg.Policy = cfg.Policy.withDefaults()
	if err := cfg.Policy.validate(); err != nil {
		return nil, err
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * time.Millisecond
	}
	if cfg.Interval < time.Millisecond {
		cfg.Interval = time.Millisecond
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.Default
	}
	if cfg.Tracer == nil {
		cfg.Tracer = telemetry.DefaultTracer
	}
	reg := cfg.Registry
	s := &Scaler{
		fleet:    f,
		pol:      cfg.Policy,
		interval: cfg.Interval,
		tracer:   cfg.Tracer,
		stopCh:   make(chan struct{}),
		done:     make(chan struct{}),
		m: scalerMetrics{
			ticks:             reg.Counter("autoscale.ticks_total"),
			replicas:          reg.Gauge("autoscale.replicas"),
			arrivalRate:       reg.Gauge("autoscale.arrival_rate"),
			capacityPerRep:    reg.Gauge("autoscale.capacity_per_replica"),
			costPerHour:       reg.Gauge("autoscale.cost_per_hour"),
			budgetUtilization: reg.Gauge("autoscale.budget_utilization"),
		},
	}
	for v := Hold; v <= Restore; v++ {
		s.m.verbs[v] = reg.Counter("autoscale." + v.String() + "_total")
	}
	for _, name := range f.Tenants() {
		prof := cfg.Profiles[name]
		if len(prof) == 0 {
			return nil, fmt.Errorf("autoscale: no profiles for tenant %s", name)
		}
		if n := len(f.Ladder(name)); len(prof) != n {
			return nil, fmt.Errorf("autoscale: %d profiles for tenant %s's %d-rung ladder", len(prof), name, n)
		}
		s.tenants = append(s.tenants, &tenantState{
			name:     name,
			profiles: prof,
			degradeC: reg.Counter("autoscale.tenant.degrade_total." + name),
			restoreC: reg.Counter("autoscale.tenant.restore_total." + name),
			costG:    reg.Gauge("autoscale.tenant.cost_per_hour." + name),
			arrivalG: reg.Gauge("autoscale.tenant.arrival_rate." + name),
			p99G:     reg.Gauge("autoscale.tenant.p99_seconds." + name),
		})
	}
	// Start the cooldown satisfied so the first genuine surge can act.
	s.sinceScale = s.pol.CooldownTicks
	s.m.replicas.Set(float64(f.ReplicaCount()))
	return s, nil
}

// Policy returns the resolved (defaulted) decision table.
func (s *Scaler) Policy() Policy { return s.pol }

// Interval returns the resolved tick period.
func (s *Scaler) Interval() time.Duration { return s.interval }

// Start launches the tick loop. Call after the fleet's Start.
func (s *Scaler) Start() {
	s.startOnce.Do(func() {
		go func() {
			defer close(s.done)
			ticker := time.NewTicker(s.interval)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					s.Tick()
				case <-s.stopCh:
					return
				}
			}
		}()
	})
}

// Stop halts the tick loop (idempotent; does not stop the fleet).
func (s *Scaler) Stop() {
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.startOnce.Do(func() { close(s.done) }) // never started: unblock waiters
	<-s.done
}

// Tick runs one control step: observe every tenant, decide, actuate.
// Exported so tests and simulations can step the loop deterministically
// without the ticker.
func (s *Scaler) Tick() Decision {
	s.mu.Lock()
	defer s.mu.Unlock()

	sig := s.observeLocked()
	act := s.pol.Decide(sig)
	s.applyLocked(act, sig)

	s.ticks++
	s.last = Decision{
		Tick: s.ticks, Verb: act.Verb.String(), Tenant: act.Tenant,
		Replicas: act.Replicas, Variant: act.Variant,
		Reason: act.Reason, Signal: sig,
	}
	return s.last
}

// tenant returns the named tenant's state (nil when unknown).
func (s *Scaler) tenant(name string) *tenantState {
	for _, ts := range s.tenants {
		if ts.name == name {
			return ts
		}
	}
	return nil
}

// servedShares gives each row's fraction of the fleet's served requests —
// how the bill is attributed — split evenly before anything is served.
func servedShares(rows []serving.Observation) []float64 {
	var total int64
	for _, o := range rows {
		total += o.Served
	}
	out := make([]float64, len(rows))
	for i, o := range rows {
		out[i] = 1 / float64(len(rows))
		if total > 0 {
			out[i] = float64(o.Served) / float64(total)
		}
	}
	return out
}

// observeLocked assembles one tick's Signal: per-tenant rates and
// windows, served-share cost attribution, and the busy-time capacity
// estimator normalized to rung 0 by the served-weighted mean speed.
func (s *Scaler) observeLocked() Signal {
	dtSec := s.interval.Seconds()
	replicas := s.fleet.ReplicaCount()
	fleetRate := float64(replicas) * s.pol.Limits.PricePerReplicaHour
	s.rows = s.fleet.Observe()
	shares := servedShares(s.rows)

	sig := Signal{Replicas: replicas, Healthy: s.healthy, SinceScale: s.sinceScale}
	var speedNum, speedDen float64
	for i, o := range s.rows {
		ts := s.tenant(o.Name)
		if ts == nil {
			continue
		}
		// Offered = everything that knocked (admitted + shed + rejected);
		// errors exclude quota rejections — those are intentional
		// back-pressure, not service failures.
		errs := o.Shed + o.Expired + o.Faulted
		arrival := float64(o.Submitted-ts.lastSubmitted) / dtSec
		errRate := 0.0
		if d := o.Submitted - ts.lastSubmitted; d > 0 {
			errRate = float64(errs-ts.lastErrors) / float64(d)
		}
		ts.lastSubmitted, ts.lastErrors = o.Submitted, errs

		cost := fleetRate * shares[i]
		ts.costG.Set(cost)
		ts.arrivalG.Set(arrival)
		ts.p99G.Set(o.P99)
		t := TenantSignal{
			Name:           o.Name,
			ArrivalRate:    arrival,
			P99:            o.P99,
			Samples:        o.Samples,
			QueueFrac:      o.QueueFrac,
			ErrorRate:      errRate,
			Variant:        o.Variant,
			SLOSeconds:     o.SLOSeconds,
			CostPerHour:    cost,
			MaxCostPerHour: o.MaxCostPerHour,
			Profiles:       ts.profiles,
		}
		speedNum += float64(o.Served) * t.speed(o.Variant)
		speedDen += float64(o.Served)
		sig.Tenants = append(sig.Tenants, t)
	}

	// Capacity estimate: requests per busy-second of one batcher over the
	// tick, normalized to rung 0 by the mix's served-weighted mean speed
	// (one tenant: its rung's speed). Ticks with no executions keep the
	// last estimate (idle ≠ incapable).
	served, execSec := s.fleet.ExecStats()
	if dServed, dExec := served-s.lastServed, execSec-s.lastExecSec; dExec > 0 && dServed > 0 {
		meanSpeed := 1.0
		if speedDen > 0 {
			meanSpeed = speedNum / speedDen
		}
		s.capEstimate = float64(dServed) / dExec / meanSpeed
	}
	s.lastServed, s.lastExecSec = served, execSec
	sig.CapacityPerReplica = s.capEstimate
	return sig
}

// pressure summarizes a signal for one decision: the moved tenant's p99,
// queue fill and arrival rate, or for a fleet-wide move ("") the worst
// p99 and queue fill and the total arrival rate.
func pressure(sig Signal, tenant string) (p99, queueFrac, arrival float64) {
	for _, t := range sig.Tenants {
		if tenant != "" && t.Name != tenant {
			continue
		}
		p99 = max(p99, t.P99)
		queueFrac = max(queueFrac, t.QueueFrac)
		arrival += t.ArrivalRate
	}
	return p99, queueFrac, arrival
}

// applyLocked actuates one decision and records it.
func (s *Scaler) applyLocked(act Action, sig Signal) {
	s.healthy = act.Healthy
	s.counts[act.Verb]++
	// The verb span opens before actuation so the fleet-side span the
	// decision causes (serving.set_variant) parents
	// under it — the trace tree shows which decision moved a ladder.
	ctx := context.Background()
	var finish telemetry.FinishFunc
	if act.Verb != Hold {
		ctx, finish = s.tracer.StartSpan(ctx, "autoscale."+act.Verb.String())
	}
	switch act.Verb {
	case ScaleOut, ScaleIn:
		s.sinceScale = 0
		// ScaleTo fails only once the fleet is stopped: a last tick racing
		// Stop has nothing left to scale.
		_, _ = s.fleet.ScaleTo(act.Replicas)
	case Degrade, Restore:
		s.sinceScale++
		// SetVariant fails only for an unknown tenant, and act.Tenant comes
		// from the fleet's own rows.
		_, _ = s.fleet.SetVariant(ctx, act.Tenant, act.Variant)
		if ts := s.tenant(act.Tenant); ts != nil {
			if act.Verb == Degrade {
				ts.degrades++
				ts.degradeC.Inc()
				if s.degradedFirst == "" {
					s.degradedFirst = act.Tenant
				}
			} else {
				ts.restores++
				ts.restoreC.Inc()
			}
		}
	default:
		s.sinceScale++
	}
	s.m.ticks.Inc()
	s.m.verbs[act.Verb].Inc()
	replicas := s.fleet.ReplicaCount()
	costPerHour := float64(replicas) * s.pol.Limits.PricePerReplicaHour
	_, _, arrival := pressure(sig, "")
	s.m.replicas.Set(float64(replicas))
	s.m.arrivalRate.Set(arrival)
	s.m.capacityPerRep.Set(sig.CapacityPerReplica)
	s.m.costPerHour.Set(costPerHour)
	if b := s.pol.Limits.BudgetPerHour; b > 0 {
		s.m.budgetUtilization.Set(costPerHour / b)
	}
	if finish != nil {
		p99, queueFrac, arrival := pressure(sig, act.Tenant)
		finish(
			telemetry.L("tenant", act.Tenant),
			telemetry.L("replicas", act.Replicas),
			telemetry.L("variant", act.Variant),
			telemetry.L("p99_seconds", p99),
			telemetry.L("queue_frac", queueFrac),
			telemetry.L("arrival_rate", arrival),
			telemetry.L("reason", act.Reason),
		)
	}
}

// TenantCost is one tenant's share of the fleet bill: attributed dollars
// (by served-request share of the fleet's replica-seconds) and the
// $/million-on-time-requests headline the explore layer reports offline.
type TenantCost struct {
	Name string `json:"name"`
	// Share is the tenant's served fraction of fleet traffic.
	Share float64 `json:"share"`
	// CostUSD is the tenant's attributed slice of the fleet rental bill;
	// CostPerHour its current attributed burn rate.
	CostUSD     float64 `json:"cost_usd"`
	CostPerHour float64 `json:"cost_per_hour"`
	// OnTime counts served requests that beat the tenant's SLO;
	// DollarsPerMillionOnTime = CostUSD / OnTime × 1e6 (0 when nothing
	// was on time, and on a gateway, which does not count on-time
	// requests).
	OnTime                  int64   `json:"on_time"`
	DollarsPerMillionOnTime float64 `json:"dollars_per_million_on_time"`
	// Degrades and Restores count this scaler's moves of the tenant's
	// ladder.
	Degrades int64 `json:"degrades"`
	Restores int64 `json:"restores"`
}

// Status is the scaler's point-in-time view, served at /autoscale/status
// and folded into the loadtest reports: verb tallies, the bill split per
// tenant, who degraded first, and who degrades next.
type Status struct {
	Ticks     int64 `json:"ticks"`
	Replicas  int   `json:"replicas"`
	ScaleOuts int64 `json:"scale_outs"`
	ScaleIns  int64 `json:"scale_ins"`
	Degrades  int64 `json:"degrades"`
	Restores  int64 `json:"restores"`
	Holds     int64 `json:"holds"`
	// Cost prices the fleet's replica-seconds integral at the policy
	// price; CostPerHour is the current burn rate against BudgetPerHour.
	Cost           float64 `json:"cost_usd"`
	CostPerHour    float64 `json:"cost_per_hour"`
	BudgetPerHour  float64 `json:"budget_per_hour"`
	ReplicaSeconds float64 `json:"replica_seconds"`
	// DegradedFirst is the first tenant the policy degraded ("" = none
	// yet); DegradeOrder is who would degrade next, in policy order.
	DegradedFirst string       `json:"degraded_first,omitempty"`
	DegradeOrder  []string     `json:"degrade_order"`
	Tenants       []TenantCost `json:"tenants"`
	LastDecision  Decision     `json:"last_decision"`
}

// Status snapshots the scaler. The replica count and the bill are live;
// the per-tenant rows split the bill by the last tick's observation, so
// Status never drains a latency window (and has no rows before the first
// tick).
func (s *Scaler) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	repSec := s.fleet.ReplicaSeconds()
	price := s.pol.Limits.PricePerReplicaHour
	totalCost := repSec / 3600 * price
	replicas := s.fleet.ReplicaCount()
	fleetRate := float64(replicas) * price

	shares := servedShares(s.rows)
	tenants := make([]TenantCost, 0, len(s.rows))
	for i, o := range s.rows {
		share := shares[i]
		tc := TenantCost{
			Name:        o.Name,
			Share:       share,
			CostUSD:     totalCost * share,
			CostPerHour: fleetRate * share,
			OnTime:      o.OnTime,
		}
		if ts := s.tenant(o.Name); ts != nil {
			tc.Degrades, tc.Restores = ts.degrades, ts.restores
		}
		if o.OnTime > 0 {
			tc.DollarsPerMillionOnTime = tc.CostUSD / float64(o.OnTime) * 1e6
		}
		tenants = append(tenants, tc)
	}
	return Status{
		Ticks:          s.ticks,
		Replicas:       replicas,
		ScaleOuts:      s.counts[ScaleOut],
		ScaleIns:       s.counts[ScaleIn],
		Degrades:       s.counts[Degrade],
		Restores:       s.counts[Restore],
		Holds:          s.counts[Hold],
		Cost:           totalCost,
		CostPerHour:    fleetRate,
		BudgetPerHour:  s.pol.Limits.BudgetPerHour,
		ReplicaSeconds: repSec,
		DegradedFirst:  s.degradedFirst,
		DegradeOrder:   s.pol.DegradeOrder(s.last.Signal),
		Tenants:        tenants,
		LastDecision:   s.last,
	}
}

// Handler serves GET /autoscale/status as indented JSON.
func Handler(s *Scaler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/autoscale/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Status())
	})
	return mux
}
