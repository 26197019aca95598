package autoscale

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// jointTenant builds one tenant's signal for the multi-tenant cases. Of
// the two fixture ladders below, "cheap" spends accuracy at a low price
// (small accuracy drop, big speedup) and "precious" pays dearly for the
// same capacity.
func jointTenant(name string, rate, p99, slo float64, variant int, profiles []Profile) TenantSignal {
	return TenantSignal{
		Name:        name,
		ArrivalRate: rate,
		P99:         p99,
		Samples:     100,
		Variant:     variant,
		SLOSeconds:  slo,
		Profiles:    profiles,
	}
}

var (
	cheapLadder = []Profile{
		{Degree: "0", Accuracy: 0.90, Speed: 1},
		{Degree: "0.7", Accuracy: 0.89, Speed: 2.0}, // 0.01 acc buys 2× speed
	}
	preciousLadder = []Profile{
		{Degree: "0", Accuracy: 0.95, Speed: 1},
		{Degree: "0.7", Accuracy: 0.80, Speed: 1.3}, // 0.15 acc buys 1.3× speed
	}
)

func jointPolicy() Policy {
	return Policy{
		Limits: Limits{MinReplicas: 1, MaxReplicas: 4, PricePerReplicaHour: 1, BudgetPerHour: 4},
	}
}

func TestJointDecideBudgetClampFirst(t *testing.T) {
	p := jointPolicy()
	p.Limits.BudgetPerHour = 2 // fleet of 3 costs 3 $/hr: over budget
	s := Signal{
		Tenants: []TenantSignal{
			jointTenant("a", 50, 0.5, 0.2, 0, cheapLadder), // violated, irrelevant
		},
		Replicas: 3, CapacityPerReplica: 100, SinceScale: 5,
	}
	got := p.Decide(s)
	if got.Verb != ScaleIn || got.Replicas != 2 {
		t.Fatalf("over-budget fleet should shed a replica first, got %+v", got)
	}
}

func TestJointDecideScaleOutBeforeDegrade(t *testing.T) {
	p := jointPolicy()
	s := Signal{
		Tenants: []TenantSignal{
			jointTenant("a", 50, 0.5, 0.2, 0, cheapLadder),
			jointTenant("b", 10, 0.05, 0.2, 0, preciousLadder),
		},
		Replicas: 2, CapacityPerReplica: 40, SinceScale: 5,
	}
	got := p.Decide(s)
	if got.Verb != ScaleOut || got.Replicas != 3 {
		t.Fatalf("affordable replica should precede any degrade, got %+v", got)
	}
	if got.Tenant != "" {
		t.Fatalf("scale-out is fleet-wide, got tenant %q", got.Tenant)
	}

	// Within cooldown the policy waits rather than panic-degrading.
	s.SinceScale = 0
	if got := p.Decide(s); got.Verb != Hold {
		t.Fatalf("cooldown should hold, got %+v", got)
	}
}

func TestJointDecideDegradesLargestSlackFirst(t *testing.T) {
	p := jointPolicy()
	p.Limits.MaxReplicas = 2 // replica axis exhausted
	s := Signal{
		Tenants: []TenantSignal{
			// "precious" is the violator, but "cheap" has the larger
			// accuracy-per-dollar slack — it degrades instead.
			jointTenant("precious", 30, 0.5, 0.2, 0, preciousLadder),
			jointTenant("cheap", 30, 0.1, 0.2, 0, cheapLadder),
		},
		Replicas: 2, CapacityPerReplica: 40, SinceScale: 5,
	}
	got := p.Decide(s)
	if got.Verb != Degrade || got.Tenant != "cheap" || got.Variant != 1 {
		t.Fatalf("cheapest accuracy should be spent first, got %+v", got)
	}

	// With cheap already degraded, precious is next in line.
	s.Tenants[1].Variant = 1
	got = p.Decide(s)
	if got.Verb != Degrade || got.Tenant != "precious" || got.Variant != 1 {
		t.Fatalf("second degrade should hit precious, got %+v", got)
	}

	// Both at the bottom: nothing left to spend.
	s.Tenants[0].Variant = 1
	if got := p.Decide(s); got.Verb != Hold {
		t.Fatalf("exhausted ladders should hold, got %+v", got)
	}
}

func TestJointDecidePerTenantBudgetEnforcement(t *testing.T) {
	p := jointPolicy()
	a := jointTenant("a", 10, 0.05, 0.2, 0, cheapLadder)
	a.CostPerHour = 3
	a.MaxCostPerHour = 1 // 3× over its share
	b := jointTenant("b", 10, 0.05, 0.2, 0, preciousLadder)
	b.CostPerHour = 1
	b.MaxCostPerHour = 2
	s := Signal{
		Tenants:  []TenantSignal{b, a},
		Replicas: 2, CapacityPerReplica: 100, SinceScale: 5,
	}
	got := p.Decide(s)
	if got.Verb != Degrade || got.Tenant != "a" {
		t.Fatalf("tenant over its $/hr share should degrade alone, got %+v", got)
	}

	// At the ladder bottom budget enforcement has nothing to actuate.
	s.Tenants[1].Variant = 1
	if got := p.Decide(s); got.Verb == Degrade && got.Tenant == "a" {
		t.Fatalf("bottom-rung tenant cannot degrade further, got %+v", got)
	}
}

func TestJointDecideRestoresLargestDeficitFirst(t *testing.T) {
	p := jointPolicy()
	s := Signal{
		Tenants: []TenantSignal{
			jointTenant("cheap", 5, 0.05, 0.2, 1, cheapLadder),       // deficit 0.01
			jointTenant("precious", 5, 0.05, 0.2, 1, preciousLadder), // deficit 0.15
		},
		Replicas: 2, CapacityPerReplica: 100,
		Healthy: 2, SinceScale: 5, // streak reaches HoldTicks=3 this tick
	}
	got := p.Decide(s)
	if got.Verb != Restore || got.Tenant != "precious" || got.Variant != 0 {
		t.Fatalf("largest accuracy deficit should restore first, got %+v", got)
	}

	// Fully restored ladders release the replica instead.
	s.Tenants[0].Variant = 0
	s.Tenants[1].Variant = 0
	got = p.Decide(s)
	if got.Verb != ScaleIn || got.Replicas != 1 {
		t.Fatalf("restored fleet with headroom should scale in, got %+v", got)
	}

	// A restore that would not fit is skipped.
	s.Tenants[0].Variant = 1
	s.Tenants[1].Variant = 1
	s.Tenants[0].ArrivalRate = 130
	s.Tenants[1].ArrivalRate = 130
	got = p.Decide(s)
	if got.Verb == Restore {
		t.Fatalf("restore must respect the joint capacity fit, got %+v", got)
	}
}

func TestJointDecideStreakBuilds(t *testing.T) {
	p := jointPolicy()
	s := Signal{
		Tenants:  []TenantSignal{jointTenant("a", 5, 0.05, 0.2, 0, cheapLadder)},
		Replicas: 1, CapacityPerReplica: 100, Healthy: 0, SinceScale: 5,
	}
	got := p.Decide(s)
	if got.Verb != Hold || got.Healthy != 1 {
		t.Fatalf("healthy tick should build streak, got %+v", got)
	}
}

func TestJointDegradeOrder(t *testing.T) {
	p := jointPolicy()
	s := Signal{
		Tenants: []TenantSignal{
			jointTenant("precious", 30, 0.1, 0.2, 0, preciousLadder),
			jointTenant("cheap", 30, 0.1, 0.2, 0, cheapLadder),
			jointTenant("bottom", 30, 0.1, 0.2, 1, cheapLadder), // no rung left
		},
	}
	got := p.DegradeOrder(s)
	want := []string{"cheap", "precious"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DegradeOrder = %v, want %v", got, want)
	}
}

// randomSignal draws an arbitrary but reproducible signal from rng.
func randomSignal(rng *rand.Rand) Signal {
	ladders := [][]Profile{cheapLadder, preciousLadder, {
		{Degree: "0", Accuracy: 0.9, Speed: 1},
		{Degree: "0.5", Accuracy: 0.86, Speed: 1.5},
		{Degree: "0.9", Accuracy: 0.7, Speed: 3},
	}}
	n := 1 + rng.Intn(4)
	tenants := make([]TenantSignal, n)
	for i := range tenants {
		ladder := ladders[rng.Intn(len(ladders))]
		ts := jointTenant(
			fmt.Sprintf("t%d", i),
			rng.Float64()*120,
			rng.Float64()*0.4,
			0.05+rng.Float64()*0.3,
			rng.Intn(len(ladder)),
			ladder,
		)
		ts.QueueFrac = rng.Float64()
		ts.ErrorRate = rng.Float64() * 0.2
		ts.Samples = rng.Intn(200)
		if rng.Intn(2) == 0 {
			ts.MaxCostPerHour = 0.5 + rng.Float64()*2
			ts.CostPerHour = rng.Float64() * 3
		}
		tenants[i] = ts
	}
	return Signal{
		Tenants:            tenants,
		Replicas:           1 + rng.Intn(4),
		CapacityPerReplica: rng.Float64() * 120,
		Healthy:            rng.Intn(5),
		SinceScale:         rng.Intn(5),
	}
}

// TestJointDecideDeterministicReplay drives the joint table with a seeded
// stream of arbitrary signals and replays the identical stream: every
// action must match bit for bit, including with the tenant slice order
// shuffled — Decide treats Tenants as a set.
func TestJointDecideDeterministicReplay(t *testing.T) {
	const seed, rounds = 7, 500
	p := jointPolicy()

	rng := rand.New(rand.NewSource(seed))
	signals := make([]Signal, rounds)
	first := make([]Action, rounds)
	for i := range signals {
		signals[i] = randomSignal(rng)
		first[i] = p.Decide(signals[i])
	}

	// Replay 1: identical signals, identical actions.
	for i, s := range signals {
		if got := p.Decide(s); !reflect.DeepEqual(got, first[i]) {
			t.Fatalf("replay %d diverged:\n got %+v\nwant %+v", i, got, first[i])
		}
	}

	// Replay 2: shuffled tenant order must not change any decision.
	shuffler := rand.New(rand.NewSource(seed + 1))
	for i, s := range signals {
		shuffled := s
		shuffled.Tenants = append([]TenantSignal(nil), s.Tenants...)
		shuffler.Shuffle(len(shuffled.Tenants), func(a, b int) {
			shuffled.Tenants[a], shuffled.Tenants[b] = shuffled.Tenants[b], shuffled.Tenants[a]
		})
		if got := p.Decide(shuffled); !reflect.DeepEqual(got, first[i]) {
			t.Fatalf("shuffle replay %d diverged:\n got %+v\nwant %+v", i, got, first[i])
		}
	}

	// Replay 3: a JSON round-trip of the signal (how spans persist it)
	// must also replay identically.
	for i, s := range signals {
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Signal
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if got := p.Decide(back); !reflect.DeepEqual(got, first[i]) {
			t.Fatalf("json replay %d diverged:\n got %+v\nwant %+v", i, got, first[i])
		}
	}
}

func TestJointPolicyValidate(t *testing.T) {
	p := Policy{Limits: Limits{PricePerReplicaHour: -1}}
	if err := p.validate(); err == nil {
		t.Fatal("negative price should not validate")
	}
	if err := jointPolicy().validate(); err != nil {
		t.Fatalf("fixture policy should validate: %v", err)
	}
}
