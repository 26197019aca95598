package autoscale

import (
	"reflect"
	"testing"
)

// The single-tenant table under test: a 3-rung ladder on $1/hr replicas
// with a $4/hr budget, 1–4 replicas, a 50 ms SLO. Every row runs as the
// one-tenant case of the fleet policy.
var testProfiles = []Profile{
	{Degree: "nonpruned", Accuracy: 0.57, Speed: 1},
	{Degree: "conv@50", Accuracy: 0.52, Speed: 1.6},
	{Degree: "conv@90", Accuracy: 0.30, Speed: 2.4},
}

func testPolicy() Policy {
	return Policy{
		TargetUtilization: 0.7,
		DegradeQueueFrac:  0.75,
		RestoreFraction:   0.5,
		HoldTicks:         3,
		CooldownTicks:     2,
		Limits: Limits{
			MinReplicas: 1, MaxReplicas: 4,
			PricePerReplicaHour: 1, BudgetPerHour: 4,
		},
	}
}

// oneTenant is a single-tenant tick: the fleet's state plus its one
// tenant's observations, under the fields the table rows tweak.
type oneTenant struct {
	ArrivalRate, CapacityPerReplica float64
	P99                             float64
	Samples                         int
	QueueFrac                       float64
	Replicas, Variant               int
	Healthy, SinceScale             int
}

// signal is the one-tenant Signal: the tenant carries the 50 ms SLO and
// the test ladder.
func (o oneTenant) signal() Signal {
	return Signal{
		Tenants: []TenantSignal{{
			Name: "default", ArrivalRate: o.ArrivalRate,
			P99: o.P99, Samples: o.Samples, QueueFrac: o.QueueFrac,
			Variant: o.Variant, SLOSeconds: 0.050, Profiles: testProfiles,
		}},
		Replicas: o.Replicas, CapacityPerReplica: o.CapacityPerReplica,
		Healthy: o.Healthy, SinceScale: o.SinceScale,
	}
}

// rung is the one tenant's rung after act: a ladder move's target, or
// where it was.
func rung(act Action, cur int) int {
	if act.Verb == Degrade || act.Verb == Restore {
		return act.Variant
	}
	return cur
}

// base is a calm mid-state tick; rows tweak it.
func base() oneTenant {
	return oneTenant{
		ArrivalRate: 40, CapacityPerReplica: 50,
		P99: 0.020, Samples: 100, QueueFrac: 0.1,
		Replicas: 2, Variant: 0,
		Healthy: 0, SinceScale: 5,
	}
}

func TestDecideTable(t *testing.T) {
	p := testPolicy()
	rows := []struct {
		name string
		sig  func(oneTenant) oneTenant
		pol  func(Policy) Policy
		verb Verb
		// optional target checks (−1 = don't care)
		replicas, variant int
	}{
		{
			name: "surge scales out before degrading while budget allows",
			sig: func(s oneTenant) oneTenant {
				s.P99 = 0.120
				return s
			},
			verb: ScaleOut, replicas: 3, variant: 0,
		},
		{
			name: "queue pressure alone also buys a replica first",
			sig: func(s oneTenant) oneTenant {
				s.QueueFrac = 0.9
				return s
			},
			verb: ScaleOut, replicas: 3, variant: 0,
		},
		{
			name: "budget bound: surge degrades instead of scaling",
			sig: func(s oneTenant) oneTenant {
				s.P99, s.Replicas = 0.120, 4 // 5th replica would cost $5/hr > $4
				return s
			},
			verb: Degrade, replicas: 4, variant: 1,
		},
		{
			name: "replica cap binds the same way the budget does",
			sig: func(s oneTenant) oneTenant {
				s.P99, s.Replicas = 0.120, 4
				return s
			},
			pol: func(p Policy) Policy {
				p.Limits.BudgetPerHour = 0 // unbounded money, capped fleet
				return p
			},
			verb: Degrade, replicas: 4, variant: 1,
		},
		{
			name: "saturated: max rung and max replicas holds",
			sig: func(s oneTenant) oneTenant {
				s.P99, s.Replicas, s.Variant = 0.120, 4, 2
				return s
			},
			verb: Hold,
		},
		{
			name: "overload during scale cooldown waits for the warm replica",
			sig: func(s oneTenant) oneTenant {
				s.P99, s.SinceScale = 0.120, 1
				return s
			},
			verb: Hold,
		},
		{
			name: "over budget shrinks immediately even when healthy",
			sig: func(s oneTenant) oneTenant {
				s.Replicas = 3
				return s
			},
			pol: func(p Policy) Policy {
				p.Limits.BudgetPerHour = 2.5 // 3 replicas burn $3/hr
				return p
			},
			verb: ScaleIn, replicas: 2, variant: 0,
		},
		{
			name: "quiet fleet restores accuracy before returning replicas",
			sig: func(s oneTenant) oneTenant {
				s.Variant, s.Healthy, s.ArrivalRate = 1, 2, 10
				return s
			},
			verb: Restore, replicas: 2, variant: 0,
		},
		{
			name: "quiet and fully accurate: scale-in after the streak",
			sig: func(s oneTenant) oneTenant {
				s.Healthy, s.ArrivalRate = 2, 10 // one replica at 50 rps × 0.7 fits 10 rps
				return s
			},
			verb: ScaleIn, replicas: 1, variant: 0,
		},
		{
			name: "healthy but streak too short holds and counts",
			sig: func(s oneTenant) oneTenant {
				s.Healthy = 0
				return s
			},
			verb: Hold,
		},
		{
			name: "scale-in deferred when the load would not fit",
			sig: func(s oneTenant) oneTenant {
				s.Healthy, s.ArrivalRate = 2, 69 // 1 replica fits only 35 rps
				return s
			},
			verb: Hold,
		},
		{
			name: "relaxation deferred while capacity is unknown",
			sig: func(s oneTenant) oneTenant {
				s.Healthy, s.CapacityPerReplica, s.Variant = 2, 0, 1
				return s
			},
			verb: Hold,
		},
		{
			name: "idle ticks count as healthy",
			sig: func(s oneTenant) oneTenant {
				s.Samples, s.P99, s.ArrivalRate, s.Healthy, s.Variant = 0, 0, 0, 2, 1
				return s
			},
			verb: Restore, replicas: 2, variant: 0,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			pol := p
			if row.pol != nil {
				pol = row.pol(p)
			}
			o := row.sig(base())
			act := pol.Decide(o.signal())
			if act.Verb != row.verb {
				t.Fatalf("Decide(%+v) = %s (%q), want %s", o, act.Verb, act.Reason, row.verb)
			}
			if row.verb != Hold {
				if act.Replicas != row.replicas {
					t.Fatalf("target replicas = %d, want %d", act.Replicas, row.replicas)
				}
				if got := rung(act, o.Variant); got != row.variant {
					t.Fatalf("target variant = %d, want %d", got, row.variant)
				}
			}
		})
	}
}

// TestHysteresisHoldsUnderFlappingInput: input oscillating between healthy
// and borderline never accumulates the HoldTicks streak, so the policy
// never relaxes — the fleet neither flaps replicas nor the ladder.
func TestHysteresisHoldsUnderFlappingInput(t *testing.T) {
	p := testPolicy()
	s := base()
	s.Variant = 1 // something to restore, were the streak ever satisfied
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			s.P99 = 0.020 // healthy
		} else {
			s.P99 = 0.030 // inside SLO but above the restore band (0.025)
		}
		act := p.Decide(s.signal())
		if act.Verb != Hold {
			t.Fatalf("tick %d: flapping input produced %s (%q)", i, act.Verb, act.Reason)
		}
		s.Healthy = act.Healthy
		s.SinceScale++
	}
}

// TestStreakResetOnViolation: one bad tick throws away the whole streak.
func TestStreakResetOnViolation(t *testing.T) {
	p := testPolicy()
	s := base()
	s.Variant = 1
	s.P99 = 0.020
	for i := 0; i < 2; i++ {
		act := p.Decide(s.signal())
		s.Healthy = act.Healthy
	}
	if s.Healthy != 2 {
		t.Fatalf("streak = %d after two healthy ticks, want 2", s.Healthy)
	}
	s.P99 = 0.120
	act := p.Decide(s.signal())
	if act.Healthy != 0 {
		t.Fatalf("violation carried streak %d forward", act.Healthy)
	}
}

// TestDecideDeterministic replays a fixed signal sequence twice through
// the closed loop (healthy/sinceScale fed back, targets applied) and
// requires bit-identical action sequences — the reproducibility the
// seeded loadtest smoke leans on.
func TestDecideDeterministic(t *testing.T) {
	p := testPolicy()
	run := func() []Action {
		s := base()
		s.Replicas, s.Variant = 1, 0
		// A synthetic day: ramp up, plateau over budget, ramp down.
		p99s := []float64{0.01, 0.02, 0.08, 0.09, 0.12, 0.13, 0.12, 0.11, 0.06,
			0.02, 0.02, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01}
		var out []Action
		for _, p99 := range p99s {
			s.P99 = p99
			act := p.Decide(s.signal())
			out = append(out, act)
			s.Healthy = act.Healthy
			if act.Verb == ScaleOut || act.Verb == ScaleIn {
				s.SinceScale = 0
			} else {
				s.SinceScale++
			}
			s.Replicas, s.Variant = act.Replicas, rung(act, s.Variant)
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay diverged:\n%v\nvs\n%v", a, b)
	}
	// And the trajectory actually exercises both axes.
	var sawOut, sawIn bool
	for _, act := range a {
		sawOut = sawOut || act.Verb == ScaleOut
		sawIn = sawIn || act.Verb == ScaleIn || act.Verb == Restore
	}
	if !sawOut || !sawIn {
		t.Fatalf("synthetic day never moved both directions: %v", a)
	}
}

// TestPolicyValidate: the one policy holds only the fleet's knobs, so a
// negative budget is what fails here; a tenant without profiles fails in
// New (TestNewValidates), and an SLO is a tenant's, never the policy's.
func TestPolicyValidate(t *testing.T) {
	p := testPolicy()
	p.Limits.BudgetPerHour = -1
	if err := p.validate(); err == nil {
		t.Fatal("negative budget must not validate")
	}
	if err := testPolicy().validate(); err != nil {
		t.Fatal(err)
	}
}
