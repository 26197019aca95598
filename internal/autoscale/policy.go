// Package autoscale closes the paper's cost-accuracy loop online. The
// offline planner (internal/explore, Algorithm 1) answers "which degree of
// pruning on which resource configuration" once, before the run; this
// package re-asks the same joint question continuously while a fleet
// serves traffic, and actuates the answer along both axes: the replica
// count (the resource configuration, priced per second like Section 4.1.2)
// and each tenant's pruning ladder (the degree of pruning, Figures 6–8).
//
// One control law serves every fleet. A single gateway is a fleet of one
// tenant (serving.DefaultTenant); a tenant mux co-locates N tenants — each
// with its own ladder, SLO and budget share — on one shared replica pool.
// The resource axis is common property, the accuracy axis is per tenant,
// so every decision that spends or reclaims accuracy also answers whose.
// The ordering rules are the paper's Figure 9/10 trade-off made live:
//
//   - Money before accuracy, fleet-wide: when any tenant's SLO is violated
//     the policy prefers to buy a replica while the $/hr budget allows,
//     because a replica helps every tenant at once.
//   - When the budget binds, the tenant with the largest accuracy-per-
//     dollar slack degrades first: the one whose next rung down frees the
//     most shared capacity per point of accuracy spent. That is the
//     Perseus/"No DNN Left Behind" observation made into a control law —
//     co-located tenants should not degrade uniformly, the cheapest
//     accuracy is spent first.
//   - Freed capacity flows back in the opposite order: on sustained
//     headroom the tenant that has lost the most accuracy is restored
//     first, and replicas are returned only when every tenant is fully
//     restored (or restoring would not fit). Accuracy is what the user
//     paid for, so it comes back before money does.
//   - A tenant over its own $/hr share degrades alone, regardless of fleet
//     health: per-tenant budget enforcement is a hard isolation boundary,
//     not a preference.
//
// Decisions are made by a pure Policy.Decide(Signal) table — no clocks, no
// randomness, tie-breaks by tenant name — so the control law is
// unit-testable row by row and a fixed signal sequence replays to
// bit-identical actions. Scaler binds the table to a live Fleet.
package autoscale

import (
	"fmt"
	"sort"
)

// Profile describes one ladder rung to the policy: what serving there is
// worth (accuracy) and what it buys (relative speed), both predicted by
// the shared engine.Predictor.
type Profile struct {
	// Degree labels the rung's degree of pruning.
	Degree string `json:"degree"`
	// Accuracy is the rung's predicted Top-1 accuracy (fraction).
	Accuracy float64 `json:"accuracy"`
	// Speed is the rung's predicted throughput multiplier relative to rung
	// 0 (≥ 1 as pruning increases) — the per-batch time ratio t₀/tᵢ.
	Speed float64 `json:"speed"`
}

// Limits bound the resource axis: how many replicas the fleet may hold and
// what the money ceiling is.
type Limits struct {
	// MinReplicas ≥ 1 is the floor the fleet never drops below.
	MinReplicas int `json:"min_replicas"`
	// MaxReplicas caps scale-out regardless of budget.
	MaxReplicas int `json:"max_replicas"`
	// PricePerReplicaHour is one replica's rental price in $/hr.
	PricePerReplicaHour float64 `json:"price_per_replica_hour"`
	// BudgetPerHour is the fleet-wide spend ceiling in $/hr (0 = none).
	// Scale-out keeping replicas·price within it is always preferred over
	// degrading; a fleet already over it is shrunk unconditionally.
	BudgetPerHour float64 `json:"budget_per_hour"`
}

// Verb is the kind of move a decision makes.
type Verb int

// The five moves of the control table.
const (
	// Hold changes nothing this tick.
	Hold Verb = iota
	// ScaleOut adds one replica (buy capacity).
	ScaleOut
	// ScaleIn retires one replica (return money).
	ScaleIn
	// Degrade walks one tenant's ladder one rung down (spend accuracy).
	Degrade
	// Restore walks one tenant's ladder one rung up (reclaim accuracy).
	Restore
)

// String names the verb.
func (v Verb) String() string {
	switch v {
	case ScaleOut:
		return "scale_out"
	case ScaleIn:
		return "scale_in"
	case Degrade:
		return "degrade"
	case Restore:
		return "restore"
	default:
		return "hold"
	}
}

// TenantSignal is one tenant's slice of a control tick.
type TenantSignal struct {
	// Name identifies the tenant (unique within the signal).
	Name string `json:"name"`
	// ArrivalRate is the tenant's offered load in requests/second
	// (admitted + shed + quota-rejected).
	ArrivalRate float64 `json:"arrival_rate"`
	// P99 is the tenant's tick p99 total latency in seconds (0 when
	// Samples is 0); Samples is its completed-request count this tick.
	P99     float64 `json:"p99_seconds"`
	Samples int     `json:"samples"`
	// QueueFrac is the tenant's admission-queue fill fraction.
	QueueFrac float64 `json:"queue_frac"`
	// ErrorRate is the tenant's shed+expired+faulted fraction this tick
	// (quota rejections are intentional back-pressure, not errors).
	ErrorRate float64 `json:"error_rate"`
	// Variant is the rung the tenant's ladder currently serves at.
	Variant int `json:"variant"`
	// SLOSeconds is the tenant's own p99 objective.
	SLOSeconds float64 `json:"slo_seconds"`
	// CostPerHour is the tenant's attributed share of the fleet burn rate;
	// MaxCostPerHour caps it (0 = uncapped).
	CostPerHour    float64 `json:"cost_per_hour"`
	MaxCostPerHour float64 `json:"max_cost_per_hour"`
	// Profiles describe the tenant's ladder, least-pruned first.
	Profiles []Profile `json:"profiles"`
}

// speed returns the rung's throughput multiplier (1 when unknown).
func (t *TenantSignal) speed(v int) float64 {
	if v < 0 || v >= len(t.Profiles) || t.Profiles[v].Speed <= 0 {
		return 1
	}
	return t.Profiles[v].Speed
}

// accuracy returns the rung's accuracy proxy (0 when unknown).
func (t *TenantSignal) accuracy(v int) float64 {
	if v < 0 || v >= len(t.Profiles) {
		return 0
	}
	return t.Profiles[v].Accuracy
}

// Signal is what the scaler observed over one control tick.
type Signal struct {
	// Tenants carries one signal per tenant. Decide treats the slice as a
	// set: its order never affects the decision (tie-breaks use names).
	Tenants []TenantSignal `json:"tenants"`
	// Replicas is the shared fleet size being controlled.
	Replicas int `json:"replicas"`
	// CapacityPerReplica is the rung-0-normalized requests/second one
	// replica sustains across the tenant mix (0 = not yet known;
	// capacity-gated relaxations wait).
	CapacityPerReplica float64 `json:"capacity_per_replica"`
	// Healthy is the consecutive-healthy-tick streak entering this tick;
	// SinceScale counts ticks since the last replica change.
	Healthy    int `json:"healthy"`
	SinceScale int `json:"since_scale"`
}

// Action is one tick's decision: the target state plus the bookkeeping the
// next tick's Signal carries back in. For Degrade and Restore, Tenant
// names whose ladder moves and Variant is that tenant's target rung; other
// tenants hold their rungs.
type Action struct {
	Verb     Verb   `json:"verb"`
	Tenant   string `json:"tenant,omitempty"`
	Replicas int    `json:"replicas"` // target replica count
	Variant  int    `json:"variant"`  // the moved tenant's target rung
	Healthy  int    `json:"healthy"`  // next healthy-streak value
	Reason   string `json:"reason"`
}

// Policy is the pure decision core of the cost-accuracy autoscaler. All
// fields are plain numbers so Decide is a deterministic function of its
// Signal — the online analogue of the planner's Algorithm 1 step, with the
// TAR/CAR preference order baked into the branch structure. SLOs are per
// tenant (TenantSignal.SLOSeconds), so there is no policy-level SLO field.
type Policy struct {
	// TargetUtilization is the load fraction of predicted capacity the
	// fleet aims to stay under when relaxing (default 0.7): restores and
	// scale-ins only happen when the offered load would still fit.
	TargetUtilization float64 `json:"target_utilization"`
	// DegradeQueueFrac is the per-tenant queue-fullness fraction that
	// counts as an SLO violation before p99 catches up (default 0.75).
	DegradeQueueFrac float64 `json:"degrade_queue_frac"`
	// RestoreFraction: a tenant is healthy iff p99 ≤ SLO·RestoreFraction
	// (default 0.5) — the hysteresis band between violate and relax.
	RestoreFraction float64 `json:"restore_fraction"`
	// HoldTicks is the healthy-streak length required before any
	// relaxation (default 3) — the classic fast-down/slow-up asymmetry.
	HoldTicks int `json:"hold_ticks"`
	// CooldownTicks is the minimum tick distance between replica changes
	// (default 2), covering warm-up so a booting replica is given a chance
	// to absorb load before the next move.
	CooldownTicks int `json:"cooldown_ticks"`
	// Limits bound the shared resource axis (replica caps, fleet budget).
	Limits Limits `json:"limits"`
}

// withDefaults fills the documented defaults on zero fields.
func (p Policy) withDefaults() Policy {
	if p.TargetUtilization <= 0 || p.TargetUtilization > 1 {
		p.TargetUtilization = 0.7
	}
	if p.DegradeQueueFrac <= 0 || p.DegradeQueueFrac > 1 {
		p.DegradeQueueFrac = 0.75
	}
	if p.RestoreFraction <= 0 || p.RestoreFraction >= 1 {
		p.RestoreFraction = 0.5
	}
	if p.HoldTicks <= 0 {
		p.HoldTicks = 3
	}
	if p.CooldownTicks <= 0 {
		p.CooldownTicks = 2
	}
	if p.Limits.MinReplicas <= 0 {
		p.Limits.MinReplicas = 1
	}
	if p.Limits.MaxReplicas < p.Limits.MinReplicas {
		p.Limits.MaxReplicas = p.Limits.MinReplicas
	}
	return p
}

// validate rejects a policy Decide cannot run on.
func (p Policy) validate() error {
	if p.Limits.PricePerReplicaHour < 0 || p.Limits.BudgetPerHour < 0 {
		return fmt.Errorf("autoscale: negative price or budget")
	}
	return nil
}

// affordable reports whether renting n replicas stays inside both the
// replica cap and the $/hr budget.
func (p Policy) affordable(n int) bool {
	if n > p.Limits.MaxReplicas {
		return false
	}
	if p.Limits.BudgetPerHour <= 0 {
		return true
	}
	return float64(n)*p.Limits.PricePerReplicaHour <= p.Limits.BudgetPerHour+1e-9
}

// demand returns the joint load in replica units at the tenants' current
// rungs: Σ arrival_i / (capacity · speed_i). The named tenant (pass "" for
// none) is priced at rung instead of its current one.
func (p Policy) demand(s Signal, tenant string, rung int) float64 {
	var d float64
	for i := range s.Tenants {
		t := &s.Tenants[i]
		v := t.Variant
		if t.Name == tenant {
			v = rung
		}
		d += t.ArrivalRate / t.speed(v)
	}
	return d
}

// fits predicts whether the offered load fits n replicas with
// TargetUtilization headroom, with tenant (if non-empty) moved to rung.
// Unknown capacity is only acceptable when nothing is arriving —
// relaxations are otherwise deferred until the estimator has data.
func (p Policy) fits(s Signal, tenant string, rung, n int) bool {
	d := p.demand(s, tenant, rung)
	if d <= 0 {
		return true
	}
	if s.CapacityPerReplica <= 0 {
		return false
	}
	return d <= s.CapacityPerReplica*float64(n)*p.TargetUtilization
}

// violated reports whether the tenant's SLO is currently broken.
func (p Policy) violated(t *TenantSignal) bool {
	return t.QueueFrac >= p.DegradeQueueFrac ||
		(t.Samples > 0 && t.SLOSeconds > 0 && t.P99 > t.SLOSeconds)
}

// healthy reports whether the tenant sits comfortably inside its SLO band.
// An idle tick (no samples) with a calm queue counts as healthy.
func (p Policy) healthy(t *TenantSignal) bool {
	return t.QueueFrac < p.DegradeQueueFrac &&
		(t.Samples == 0 || t.SLOSeconds <= 0 || t.P99 <= t.SLOSeconds*p.RestoreFraction)
}

// degradeSlack scores how cheaply tenant t converts accuracy into shared
// capacity by stepping one rung down: the replica-equivalent capacity it
// frees per point of accuracy spent. A tenant already at the ladder
// bottom has no slack (-1). Capacity freed is the drop in the tenant's
// replica-unit demand, arrival_i·(1/speed(v) − 1/speed(v+1)) — a tenant
// with no traffic frees nothing, so it is never degraded first on a
// miscalibrated profile alone.
func degradeSlack(t *TenantSignal) float64 {
	v := t.Variant
	if v >= len(t.Profiles)-1 {
		return -1
	}
	freed := t.ArrivalRate * (1/t.speed(v) - 1/t.speed(v+1))
	if freed < 0 {
		freed = 0
	}
	spent := t.accuracy(v) - t.accuracy(v+1)
	if spent < 1e-6 {
		spent = 1e-6 // free accuracy: slack is effectively the freed capacity
	}
	return freed / spent
}

// restoreDeficit scores how much accuracy tenant t has lent the fleet:
// the gap between its rung-0 accuracy and what it serves now. The most
// indebted tenant gets freed capacity first.
func restoreDeficit(t *TenantSignal) float64 {
	if t.Variant <= 0 {
		return -1
	}
	return t.accuracy(0) - t.accuracy(t.Variant)
}

// DegradeOrder returns the tenants that still have a rung to give, most
// accuracy-per-dollar slack first (the order Decide spends them in), with
// deterministic name tie-breaks. Exposed so status endpoints and reports
// can show "who degrades next" without replaying the policy.
func (p Policy) DegradeOrder(s Signal) []string {
	type scored struct {
		name  string
		slack float64
	}
	var cands []scored
	for i := range s.Tenants {
		t := &s.Tenants[i]
		if sl := degradeSlack(t); sl >= 0 {
			cands = append(cands, scored{t.Name, sl})
		}
	}
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].slack != cands[b].slack {
			return cands[a].slack > cands[b].slack
		}
		return cands[a].name < cands[b].name
	})
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.name
	}
	return out
}

// Decide maps one tick's signal to an action. The branch order IS the
// policy:
//
//  1. fleet budget clamp — over budget shrinks, health notwithstanding;
//  2. per-tenant budget enforcement — a tenant over its own $/hr share
//     degrades alone (largest relative overshoot first);
//  3. any tenant's SLO violated — scale out if a replica is affordable
//     (shared capacity helps everyone; waiting out the scale cooldown
//     rather than panic-degrading), else degrade the tenant with the
//     largest accuracy-per-dollar slack — not necessarily the violator;
//  4. every tenant healthy long enough — restore the most-degraded tenant
//     whose restored load still fits, then hand back a replica;
//  5. otherwise hold, carrying the healthy streak.
//
// Decide is pure and order-independent over s.Tenants: equal signals
// (as sets) yield equal actions, bit for bit.
func (p Policy) Decide(s Signal) Action {
	p = p.withDefaults()
	hold := func(streak int, reason string) Action {
		if streak > p.HoldTicks {
			streak = p.HoldTicks // saturate so idle eons don't overflow
		}
		return Action{Verb: Hold, Replicas: s.Replicas, Healthy: streak, Reason: reason}
	}

	// 1. The budget is a hard ceiling, not a preference: if the fleet
	// costs more than it (budget lowered mid-run, say), shed a replica now.
	if s.Replicas > p.Limits.MinReplicas && !p.affordable(s.Replicas) {
		return Action{Verb: ScaleIn, Replicas: s.Replicas - 1,
			Reason: "fleet over budget/cap, shedding a replica"}
	}

	// 2. Per-tenant budget enforcement: the worst relative overshoot
	// degrades, deterministically.
	var overTenant *TenantSignal
	var overBy float64
	for i := range s.Tenants {
		t := &s.Tenants[i]
		if t.MaxCostPerHour <= 0 || t.CostPerHour <= t.MaxCostPerHour {
			continue
		}
		if t.Variant >= len(t.Profiles)-1 {
			continue // nothing left to give; admission quotas are the backstop
		}
		by := t.CostPerHour / t.MaxCostPerHour
		if overTenant == nil || by > overBy || (by == overBy && t.Name < overTenant.Name) {
			overTenant, overBy = t, by
		}
	}
	if overTenant != nil {
		return Action{Verb: Degrade, Tenant: overTenant.Name,
			Replicas: s.Replicas, Variant: overTenant.Variant + 1,
			Reason: fmt.Sprintf("tenant %s over its $/hr share, degrading it alone", overTenant.Name)}
	}

	// 3. Capacity is short somewhere. Money first, then the cheapest
	// accuracy anywhere in the fleet.
	anyViolated := false
	for i := range s.Tenants {
		if p.violated(&s.Tenants[i]) {
			anyViolated = true
			break
		}
	}
	if anyViolated {
		if s.Replicas < p.Limits.MaxReplicas && p.affordable(s.Replicas+1) {
			if s.SinceScale < p.CooldownTicks {
				return hold(0, "overloaded, waiting out scale cooldown")
			}
			return Action{Verb: ScaleOut, Replicas: s.Replicas + 1,
				Reason: "SLO violated, budget allows another replica"}
		}
		if order := p.DegradeOrder(s); len(order) > 0 {
			name := order[0]
			for i := range s.Tenants {
				if t := &s.Tenants[i]; t.Name == name {
					return Action{Verb: Degrade, Tenant: name,
						Replicas: s.Replicas, Variant: t.Variant + 1,
						Reason: fmt.Sprintf("SLO violated, budget binds: degrading %s (largest accuracy-per-dollar slack)", name)}
				}
			}
		}
		return hold(0, "saturated: replica and pruning headroom exhausted")
	}

	allHealthy := true
	for i := range s.Tenants {
		if !p.healthy(&s.Tenants[i]) {
			allHealthy = false
			break
		}
	}
	if !allHealthy {
		return hold(0, "inside SLO band")
	}
	streak := s.Healthy + 1
	if streak < p.HoldTicks {
		return hold(streak, "healthy, building streak")
	}

	// 4. Sustained headroom: freed capacity goes to the most-degraded
	// tenant first, money comes back last.
	var best *TenantSignal
	var bestDef float64
	for i := range s.Tenants {
		t := &s.Tenants[i]
		def := restoreDeficit(t)
		if def < 0 || !p.fits(s, t.Name, t.Variant-1, s.Replicas) {
			continue
		}
		if best == nil || def > bestDef || (def == bestDef && t.Name < best.Name) {
			best, bestDef = t, def
		}
	}
	if best != nil {
		return Action{Verb: Restore, Tenant: best.Name,
			Replicas: s.Replicas, Variant: best.Variant - 1,
			Reason: fmt.Sprintf("sustained headroom, restoring %s (largest accuracy deficit)", best.Name)}
	}
	if s.Replicas > p.Limits.MinReplicas && s.SinceScale >= p.CooldownTicks &&
		p.fits(s, "", 0, s.Replicas-1) {
		return Action{Verb: ScaleIn, Replicas: s.Replicas - 1,
			Reason: "sustained headroom, returning a replica"}
	}
	return hold(streak, "healthy, nothing left to relax")
}
