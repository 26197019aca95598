package autoscale

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"ccperf/internal/serving"
	"ccperf/internal/telemetry"
)

// move is one recorded SetVariant call.
type move struct {
	tenant string
	rung   int
}

// fakeFleet is a scripted Fleet: Observe returns the rows the test set,
// ExecStats the busy counters it set, and every actuation is recorded.
type fakeFleet struct {
	names    []string
	rungs    map[string]int
	rows     []serving.Observation
	served   int64
	execSec  float64
	replicas int
	repSec   float64

	scaled []int
	moves  []move
}

func (f *fakeFleet) Tenants() []string { return f.names }
func (f *fakeFleet) Ladder(name string) []serving.Variant {
	return make([]serving.Variant, f.rungs[name])
}
func (f *fakeFleet) Observe() []serving.Observation {
	return append([]serving.Observation(nil), f.rows...)
}
func (f *fakeFleet) SetVariant(_ context.Context, tenant string, rung int) (int, error) {
	f.moves = append(f.moves, move{tenant, rung})
	return rung, nil
}
func (f *fakeFleet) ScaleTo(n int) (int, error) {
	f.scaled = append(f.scaled, n)
	f.replicas = n
	return n, nil
}
func (f *fakeFleet) ReplicaCount() int                    { return f.replicas }
func (f *fakeFleet) ReplicaSeconds() float64              { return f.repSec }
func (f *fakeFleet) ExecStats() (served int64, s float64) { return f.served, f.execSec }

// fakeScaler binds a scaler to f with a 1 s tick, so every rate equals
// its counter delta.
func fakeScaler(t *testing.T, f *fakeFleet, pol Policy, profiles map[string][]Profile) (*Scaler, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	s, err := New(f, Config{Policy: pol, Profiles: profiles, Interval: time.Second,
		Registry: reg, Tracer: telemetry.NewTracer(64)})
	if err != nil {
		t.Fatal(err)
	}
	return s, reg
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestFakeFleetBookkeeping drives two ticks over a scripted two-tenant
// fleet: rates come from counter deltas, quota rejections are not
// errors, the capacity estimate divides by the served-weighted speed,
// and the bill splits by served share.
func TestFakeFleetBookkeeping(t *testing.T) {
	f := &fakeFleet{names: []string{"a", "b"}, rungs: map[string]int{"a": 2, "b": 2}, replicas: 2, repSec: 7200}
	profiles := map[string][]Profile{"a": cheapLadder, "b": preciousLadder}
	s, reg := fakeScaler(t, f, Policy{Limits: Limits{MinReplicas: 1, MaxReplicas: 4, PricePerReplicaHour: 1}}, profiles)

	// Tick 1: a serves at rung 1 (speed 2), b at rung 0 (speed 1).
	f.rows = []serving.Observation{
		// 100 submitted: 60 served, 10 failed, 30 quota-rejected.
		{Name: "a", SLOSeconds: 10, Variant: 1, Submitted: 100, Shed: 5, Expired: 3, Faulted: 2, Served: 60},
		{Name: "b", SLOSeconds: 10, Submitted: 20, Served: 20, MaxCostPerHour: 3},
	}
	f.served, f.execSec = 80, 2
	sig := s.Tick().Signal
	a, b := sig.Tenants[0], sig.Tenants[1]
	if a.ArrivalRate != 100 || b.ArrivalRate != 20 {
		t.Fatalf("arrival rates %v/%v, want the submitted deltas 100/20", a.ArrivalRate, b.ArrivalRate)
	}
	if !near(a.ErrorRate, 0.1) || b.ErrorRate != 0 {
		t.Fatalf("error rates %v/%v, want (5+3+2)/100 with the 30 quota rejections left out, and 0", a.ErrorRate, b.ErrorRate)
	}
	// Mean speed (60·2 + 20·1)/80 = 1.75 over 80 served in 2 busy seconds.
	if want := 80.0 / 2 / 1.75; !near(sig.CapacityPerReplica, want) {
		t.Fatalf("capacity %v, want %v", sig.CapacityPerReplica, want)
	}
	// Two $1/hr replicas, split 60:20.
	if !near(a.CostPerHour, 1.5) || !near(b.CostPerHour, 0.5) || b.MaxCostPerHour != 3 {
		t.Fatalf("attributed $/hr %v/%v (cap %v), want 1.5/0.5 (cap 3)", a.CostPerHour, b.CostPerHour, b.MaxCostPerHour)
	}
	if got := reg.Gauge("autoscale.tenant.cost_per_hour.a").Value(); !near(got, 1.5) {
		t.Fatalf("tenant a cost gauge %v, want 1.5", got)
	}
	if got := reg.Gauge("autoscale.arrival_rate").Value(); got != 120 {
		t.Fatalf("fleet arrival gauge %v, want 120", got)
	}

	// Tick 2: deltas only. a takes 50 more (10 more faults), b 10 more.
	f.rows = []serving.Observation{
		{Name: "a", SLOSeconds: 10, Variant: 1, Submitted: 150, Shed: 5, Expired: 3, Faulted: 12, Served: 100},
		{Name: "b", SLOSeconds: 10, Submitted: 30, Served: 30},
	}
	f.served, f.execSec = 130, 3
	sig = s.Tick().Signal
	a, b = sig.Tenants[0], sig.Tenants[1]
	if a.ArrivalRate != 50 || b.ArrivalRate != 10 || !near(a.ErrorRate, 0.2) {
		t.Fatalf("tick 2: a %v/s at %v errors, b %v/s; want 50/s at 0.2, 10/s", a.ArrivalRate, a.ErrorRate, b.ArrivalRate)
	}
	if want := 50.0 / 1 / (230.0 / 130); !near(sig.CapacityPerReplica, want) {
		t.Fatalf("tick 2 capacity %v, want %v", sig.CapacityPerReplica, want)
	}

	// An idle tick (no executions) keeps the last estimate.
	sig = s.Tick().Signal
	if want := 50.0 / (230.0 / 130); !near(sig.CapacityPerReplica, want) {
		t.Fatalf("idle tick capacity %v, want the kept %v", sig.CapacityPerReplica, want)
	}

	// Status bills from the last tick's rows: 7200 replica-seconds at
	// $1/hr = $2, split 100:30.
	st := s.Status()
	if len(st.Tenants) != 2 || !near(st.Cost, 2) || !near(st.Tenants[0].Share, 100.0/130) ||
		!near(st.Tenants[0].CostUSD+st.Tenants[1].CostUSD, 2) {
		t.Fatalf("status bill %+v", st)
	}
}

// TestFakeFleetFeedbackAndDegradedFirst: each decision's streak and
// cooldown feed the next tick's signal, and the first tenant degraded is
// remembered.
func TestFakeFleetFeedbackAndDegradedFirst(t *testing.T) {
	f := &fakeFleet{names: []string{"cheap", "precious"}, rungs: map[string]int{"cheap": 2, "precious": 2}, replicas: 1}
	profiles := map[string][]Profile{"cheap": cheapLadder, "precious": preciousLadder}
	s, _ := fakeScaler(t, f, Policy{Limits: Limits{MinReplicas: 1, MaxReplicas: 2, PricePerReplicaHour: 1}}, profiles)
	violated := func(submitted int64) {
		f.rows = []serving.Observation{
			{Name: "cheap", SLOSeconds: 0.1, P99: 0.05, Samples: 10, Submitted: submitted},
			{Name: "precious", SLOSeconds: 0.1, P99: 0.5, Samples: 10, Submitted: submitted},
		}
	}

	// The cooldown starts satisfied: the first violation buys a replica.
	violated(30)
	d := s.Tick()
	if d.Verb != "scale_out" || d.Signal.SinceScale != s.Policy().CooldownTicks || !reflect.DeepEqual(f.scaled, []int{2}) {
		t.Fatalf("first violation: %s at since_scale %d, scaled %v", d.Verb, d.Signal.SinceScale, f.scaled)
	}
	// The next sees since_scale 0 and, at the replica cap, spends the
	// cheapest accuracy — cheap's, though precious is the violator.
	violated(60)
	d = s.Tick()
	if d.Signal.SinceScale != 0 || d.Verb != "degrade" || d.Tenant != "cheap" ||
		!reflect.DeepEqual(f.moves, []move{{"cheap", 1}}) {
		t.Fatalf("capped violation: %s %s at since_scale %d, moves %v", d.Verb, d.Tenant, d.Signal.SinceScale, f.moves)
	}
	// Healthy ticks build the streak one by one.
	f.rows = []serving.Observation{{Name: "cheap", SLOSeconds: 0.1, Submitted: 60}, {Name: "precious", SLOSeconds: 0.1, Submitted: 60}}
	for want := 0; want < 2; want++ {
		if d = s.Tick(); d.Signal.Healthy != want || d.Signal.SinceScale != want+1 || d.Verb != "hold" {
			t.Fatalf("healthy tick %d: %s with healthy %d, since_scale %d", want, d.Verb, d.Signal.Healthy, d.Signal.SinceScale)
		}
	}
	st := s.Status()
	if st.DegradedFirst != "cheap" || st.Tenants[0].Degrades != 1 || st.Tenants[1].Degrades != 0 {
		t.Fatalf("degraded first %q, rows %+v", st.DegradedFirst, st.Tenants)
	}
}

// TestFakeFleetOneTenantScenarios runs the gateway scenarios of the
// TestTick* tests on a one-tenant fake fleet, with their expected moves.
func TestFakeFleetOneTenantScenarios(t *testing.T) {
	one := func(replicas int, slo, p99 float64, samples int, pol Policy) (*fakeFleet, *Scaler) {
		f := &fakeFleet{
			names: []string{serving.DefaultTenant}, rungs: map[string]int{serving.DefaultTenant: 3}, replicas: replicas,
			rows: []serving.Observation{{Name: serving.DefaultTenant, SLOSeconds: slo, P99: p99, Samples: samples}},
		}
		s, _ := fakeScaler(t, f, pol, gatewayProfiles(testProfiles))
		return f, s
	}

	t.Run("scale out before degrade", func(t *testing.T) {
		f, s := one(1, 1e-9, 0.01, 8, Policy{Limits: Limits{MinReplicas: 1, MaxReplicas: 4, PricePerReplicaHour: 1, BudgetPerHour: 10}})
		if d := s.Tick(); d.Verb != "scale_out" || !reflect.DeepEqual(f.scaled, []int{2}) || f.moves != nil {
			t.Fatalf("surge: %s, scaled %v, moves %v", d.Verb, f.scaled, f.moves)
		}
		if d := s.Tick(); d.Verb != "hold" || len(f.scaled) != 1 {
			t.Fatalf("cooldown tick: %s, scaled %v", d.Verb, f.scaled)
		}
	})
	t.Run("degrade when budget binds", func(t *testing.T) {
		f, s := one(1, 1e-9, 0.01, 8, Policy{Limits: Limits{MinReplicas: 1, MaxReplicas: 4, PricePerReplicaHour: 1, BudgetPerHour: 1}})
		if d := s.Tick(); d.Verb != "degrade" || f.scaled != nil || !reflect.DeepEqual(f.moves, []move{{serving.DefaultTenant, 1}}) {
			t.Fatalf("budget-bound surge: %s, scaled %v, moves %v", d.Verb, f.scaled, f.moves)
		}
	})
	t.Run("quiet scale-in after streak", func(t *testing.T) {
		f, s := one(2, 10, 0, 0, Policy{HoldTicks: 3, Limits: Limits{MinReplicas: 1, MaxReplicas: 4, PricePerReplicaHour: 1, BudgetPerHour: 10}})
		for i := 0; i < 2; i++ {
			if d := s.Tick(); d.Verb != "hold" {
				t.Fatalf("streak tick %d: %s", i, d.Verb)
			}
		}
		if d := s.Tick(); d.Verb != "scale_in" || !reflect.DeepEqual(f.scaled, []int{1}) {
			t.Fatalf("post-streak: %s, scaled %v", d.Verb, f.scaled)
		}
		if st := s.Status(); st.ScaleIns != 1 || st.Holds != 2 || st.Ticks != 3 {
			t.Fatalf("status counters off: %+v", st)
		}
	})
}
