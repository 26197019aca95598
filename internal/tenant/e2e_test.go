package tenant

import (
	"testing"
	"time"

	"ccperf/internal/autoscale"
	"ccperf/internal/serving"
	"ccperf/internal/telemetry"
)

// profilesFromLadder derives scaler profiles from a built variant ladder:
// accuracy proxies come from the variants, speeds from the caller (nil =
// all 1, a "degrading frees nothing" model that makes the policy prefer
// replicas).
func profilesFromLadder(ladder []serving.Variant, speeds []float64) []autoscale.Profile {
	out := make([]autoscale.Profile, len(ladder))
	for i, v := range ladder {
		speed := 1.0
		if i < len(speeds) && speeds[i] > 0 {
			speed = speeds[i]
		}
		out[i] = autoscale.Profile{Degree: v.Degree.Label(), Accuracy: v.Accuracy, Speed: speed}
	}
	return out
}

// TestEndToEndFloodIsolationAndJointPlacement is the PR's acceptance
// scenario, asserted rather than logged: tenant A floods at 5× its
// admission quota while tenant B trickles inside its own; after a joint
// load test,
//
//   - B's p99 stays under B's SLO and B's error rate under 1% (quota +
//     DRR isolation held),
//   - A's flood shows up as quota rejections in A's own ledger,
//   - the joint report prices each tenant's $/million-on-time requests,
//     and names A — the tenant with the largest accuracy-per-dollar
//     slack — as the one that degraded first.
func TestEndToEndFloodIsolationAndJointPlacement(t *testing.T) {
	// Rates are sized so the test also passes under -race (~20× slower
	// forwards): B's admitted load stays under its DRR share of one
	// replica even then, and B's SLO leaves room for one A-quantum of
	// queueing ahead of each B request.
	specs := []Spec{
		// A: 5× overload (offered 100/s vs 20/s quota), an impossible
		// 1ms SLO so the policy sees sustained violation, and a cheap
		// 3-rung ladder whose profile frees real capacity per rung.
		{Name: "a", Ladder: []float64{0, 0.5, 0.9}, SLOMS: 1, QPS: 20, Burst: 5, OfferedQPS: 100},
		// B: inside quota, generous SLO, a ladder whose profile frees
		// nothing — degrading B is never worth it.
		{Name: "b", Ladder: []float64{0, 0.9}, SLOMS: 500, QPS: 20, OfferedQPS: 8},
	}
	g := testGateway(t, specs, serving.Config{
		Replicas: 1,
		MaxBatch: 2,
	})
	profiles := map[string][]autoscale.Profile{
		"a": profilesFromLadder(g.Ladder("a"), []float64{1, 1.6, 2.5}),
		"b": profilesFromLadder(g.Ladder("b"), []float64{1, 1}),
	}
	sc, err := autoscale.New(g, autoscale.Config{
		Policy: autoscale.Policy{
			// MaxReplicas = 1 closes the scale-out escape hatch: capacity
			// pressure must be paid in accuracy, exposing degrade order.
			Limits: autoscale.Limits{MinReplicas: 1, MaxReplicas: 1, PricePerReplicaHour: 1.0},
		},
		Profiles: profiles,
		Interval: 25 * time.Millisecond,
		Registry: telemetry.NewRegistry(),
		Tracer:   telemetry.NewTracer(256),
	})
	if err != nil {
		t.Fatal(err)
	}

	g.Start()
	sc.Start()
	rep, runErr := RunLoad(g, specs, LoadConfig{
		Duration: 1200 * time.Millisecond,
		Seed:     42,
		Cooldown: 100 * time.Millisecond,
		Scaler:   sc,
	})
	sc.Stop()
	g.Stop()
	if runErr != nil {
		t.Fatal(runErr)
	}

	a := rep.Tenant("a")
	b := rep.Tenant("b")
	if a == nil || b == nil {
		t.Fatalf("report missing tenant rows: %+v", rep.Tenants)
	}

	// Isolation: the quiet tenant never notices the flood.
	if b.P99MS > b.SLOMS {
		t.Fatalf("tenant b p99 %.1fms exceeds its %.0fms SLO under tenant a's flood", b.P99MS, b.SLOMS)
	}
	if er := b.ErrorRate(); er >= 0.01 {
		t.Fatalf("tenant b error rate %.2f%%, want < 1%%", er*100)
	}
	if b.Rejected != 0 {
		t.Fatalf("tenant b inside quota was rejected %d times", b.Rejected)
	}

	// Back-pressure: a 5× flood should lose over half its submissions at
	// its own front door, in its own ledger.
	if a.Rejected <= a.Submitted/2 {
		t.Fatalf("tenant a offered 5× quota but only %d of %d submissions were quota-rejected",
			a.Rejected, a.Submitted)
	}

	// Joint placement: the report prices each tenant and names who paid
	// for capacity pressure first.
	j := rep.Joint
	if j == nil {
		t.Fatal("report carries no joint status")
	}
	if j.DegradedFirst != "a" {
		t.Fatalf("degraded first = %q, want tenant a (largest accuracy-per-dollar slack); last decision: %+v",
			j.DegradedFirst, j.LastDecision)
	}
	if a.Degrades == 0 {
		t.Fatal("tenant a's ledger shows no degrades despite DegradedFirst")
	}
	if len(j.Tenants) != 2 {
		t.Fatalf("joint status has %d tenant rows, want 2", len(j.Tenants))
	}
	var shares float64
	for _, tc := range j.Tenants {
		shares += tc.Share
		if tc.Name == "b" {
			if tc.OnTime == 0 {
				t.Fatal("tenant b served inside a 300ms SLO but has no on-time requests")
			}
			if tc.DollarsPerMillionOnTime <= 0 {
				t.Fatalf("tenant b $/M-on-time = %v, want > 0", tc.DollarsPerMillionOnTime)
			}
		}
	}
	if shares < 0.99 || shares > 1.01 {
		t.Fatalf("cost shares sum to %v, want 1", shares)
	}
	if j.Cost <= 0 || j.ReplicaSeconds <= 0 {
		t.Fatalf("joint bill empty: cost=%v replica_seconds=%v", j.Cost, j.ReplicaSeconds)
	}
}
