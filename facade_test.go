package ccperf

import (
	"context"
	"math"
	"testing"
	"time"

	"ccperf/internal/cloud"
	"ccperf/internal/prune"
	"ccperf/internal/serving"
	"ccperf/internal/tenant"
)

func TestOpenOfflineOnly(t *testing.T) {
	st, err := Open(Caffenet)
	if err != nil {
		t.Fatal(err)
	}
	if st.System() == nil || st.Planner() == nil || st.Predictor() == nil {
		t.Fatal("offline views must always exist")
	}
	if st.Gateway() != nil || st.Scaler() != nil {
		t.Fatal("online views must not exist without options")
	}
	if st.Planner().System() != st.System() {
		t.Fatal("planner must wrap the stack's system")
	}
	// No-ops, not panics.
	st.Start()
	st.Close()
}

func TestOpenRejectsBadInput(t *testing.T) {
	if _, err := Open("lenet"); err == nil {
		t.Fatal("unknown model must fail")
	}
	if _, err := Open(Caffenet, WithInstance("p9.huge")); err == nil {
		t.Fatal("unknown instance must fail")
	}
	if _, err := Open(Caffenet, WithLadder(0, 1.5)); err == nil {
		t.Fatal("out-of-range ladder ratio must fail")
	}
}

func TestOpenGatewayServes(t *testing.T) {
	st, err := Open(Caffenet, WithLadder(0, 0.5), WithReplicas(1), WithSLO(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	g := st.Gateway()
	if g == nil {
		t.Fatal("WithLadder must imply a gateway")
	}
	if st.Scaler() != nil {
		t.Fatal("no autoscaler was requested")
	}
	if n := len(g.Config().Ladder); n != 2 {
		t.Fatalf("ladder has %d rungs, want 2", n)
	}
	st.Start()
	defer st.Close()
	shape := g.Config().Ladder[0].Net.Input
	img := serving.SyntheticImage(shape.C, shape.H, shape.W, 1)
	resp := g.Infer(context.Background(), img, time.Time{})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
}

func TestOpenAutoscaleStack(t *testing.T) {
	st, err := Open(Caffenet,
		WithLadder(0, 0.5, 0.9),
		WithAutoscale(4.5, 2, 5),
		WithAutoscaleInterval(25*time.Millisecond),
		WithInstance("p2.xlarge"),
		WithSLO(80*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	as := st.Scaler()
	if as == nil {
		t.Fatal("WithAutoscale must build an autoscaler")
	}
	pol := as.Policy()
	if pol.Limits.MinReplicas != 2 || pol.Limits.MaxReplicas != 5 || pol.Limits.BudgetPerHour != 4.5 {
		t.Fatalf("limits = %+v", pol.Limits)
	}
	if pol.Limits.PricePerReplicaHour != st.Instance().PricePerHour {
		t.Fatalf("replica price %v != instance price %v", pol.Limits.PricePerReplicaHour, st.Instance().PricePerHour)
	}
	// One tick before Start (a quiet hold) shows what the scaler holds
	// the gateway's one tenant to.
	tenants := as.Tick().Signal.Tenants
	if len(tenants) != 1 || tenants[0].Name != serving.DefaultTenant {
		t.Fatalf("tenants = %+v, want the gateway's one", tenants)
	}
	if slo := tenants[0].SLOSeconds; slo != 0.08 {
		t.Fatalf("SLOSeconds = %v, want 0.08", slo)
	}
	prof := tenants[0].Profiles
	if len(prof) != 3 {
		t.Fatalf("%d profiles for a 3-rung ladder", len(prof))
	}
	if prof[0].Speed != 1 || prof[2].Speed < prof[1].Speed {
		t.Fatalf("profile speeds not anchored/monotone: %+v", prof)
	}
	// The gateway starts at the floor and is externally controlled.
	if got := st.Gateway().ReplicaCount(); got != 2 {
		t.Fatalf("initial replicas = %d, want MinReplicas", got)
	}
	if !st.Gateway().Config().ExternalControl {
		t.Fatal("autoscaled gateway must disable the built-in controller")
	}
	if as.Interval() != 25*time.Millisecond {
		t.Fatalf("interval = %v", as.Interval())
	}
	st.Start()
	st.Close()
	st.Close() // idempotent
}

// TestOpenTenantsStack: WithTenants builds a gateway hosting each tenant
// on its own ladder and, with WithAutoscale, the scaler whose profiles
// come from the shared predictor.
func TestOpenTenantsStack(t *testing.T) {
	specs := []tenant.Spec{
		{Name: "a", Ladder: []float64{0, 0.5}, SLOMS: 500, QPS: 50},
		{Name: "b", Ladder: []float64{0, 0.3, 0.9}, SLOMS: 200},
	}
	st, err := Open(Caffenet, WithTenants(specs), WithAutoscale(6, 1, 4), WithReplicas(1))
	if err != nil {
		t.Fatal(err)
	}
	m := st.Gateway()
	if m == nil {
		t.Fatal("WithTenants must build a gateway")
	}
	if got := m.Tenants(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("tenants = %v, want [a b]", got)
	}
	if !m.Config().ExternalControl {
		t.Fatal("an autoscaled tenant gateway must disable the built-in controller")
	}
	sc := st.Scaler()
	if sc == nil {
		t.Fatal("WithTenants + WithAutoscale must build a scaler")
	}
	if lim := sc.Policy().Limits; lim.MinReplicas != 1 || lim.MaxReplicas != 4 ||
		lim.BudgetPerHour != 6 || lim.PricePerReplicaHour != st.Instance().PricePerHour {
		t.Fatalf("limits = %+v", lim)
	}
	if la, lb := len(m.Ladder("a")), len(m.Ladder("b")); la != 2 || lb != 3 {
		t.Fatalf("ladders = %d/%d rungs, want 2/3", la, lb)
	}
	st.Start()
	defer st.Close()
	shape := m.Ladder("a")[0].Net.Input
	resp := m.InferAs(context.Background(), "a", serving.SyntheticImage(shape.C, shape.H, shape.W, 1), time.Time{})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if _, err := m.SubmitAs(context.Background(), "nobody", serving.SyntheticImage(shape.C, shape.H, shape.W, 2), time.Time{}); err == nil {
		t.Fatal("unknown tenant must be rejected")
	}
}

// TestOpenTenantsRejectsBadSpecs: spec validation surfaces through Open.
func TestOpenTenantsRejectsBadSpecs(t *testing.T) {
	if _, err := Open(Caffenet, WithTenants([]tenant.Spec{{Name: ""}})); err == nil {
		t.Fatal("unnamed tenant must fail")
	}
	if _, err := Open(Caffenet, WithTenants([]tenant.Spec{{Name: "a", Ladder: []float64{2}}})); err == nil {
		t.Fatal("out-of-range tenant ladder must fail")
	}
}

// TestOpenSharesOnePredictor: the facade's views consume predictions
// through one memoizing engine — a prediction made while building the
// autoscaler profiles is a cache hit for the planner's system.
func TestOpenSharesOnePredictor(t *testing.T) {
	st, err := Open(Caffenet, WithLadder(0, 0.5), WithAutoscale(8, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if st.Predictor() != st.System().Predictor() {
		t.Fatal("stack and system predictors differ")
	}
	if st.Planner().System().Predictor() != st.Predictor() {
		t.Fatal("planner does not share the stack predictor")
	}
}

func TestSystemLayerSweep(t *testing.T) {
	sys, err := NewSystem(Caffenet)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := sys.LayerSweep(context.Background(), "conv2", nil, "p2.xlarge", W50k)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 10 {
		t.Fatalf("default sweep has %d points, want 10 (0–90%% at 10%% steps)", len(pts))
	}
	if pts[0].Ratio != 0 || pts[0].Minutes <= 0 || pts[0].Top1 <= 0 {
		t.Fatalf("baseline point = %+v", pts[0])
	}
	last := pts[len(pts)-1]
	if last.Minutes >= pts[0].Minutes {
		t.Fatalf("pruning 90%% did not reduce time: %v → %v min", pts[0].Minutes, last.Minutes)
	}
	if _, err := sys.LayerSweep(context.Background(), "conv2", nil, "p9.huge", W50k); err == nil {
		t.Fatal("unknown instance must fail")
	}
}

func TestStackTransfer(t *testing.T) {
	st, err := Open(Caffenet)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	tp, err := st.Transfer(ctx)
	if err != nil {
		t.Fatal(err)
	}
	again, err := st.Transfer(ctx)
	if err != nil || again != tp {
		t.Fatalf("Transfer must memoize the fit: %v %v", again, err)
	}
	// The fitted predictor reaches an instance type the harness never
	// profiled.
	p3, err := cloud.ByNameAll("p3.2xlarge")
	if err != nil {
		t.Fatal(err)
	}
	sec, err := tp.BatchSeconds(ctx, prune.Degree{}, p3, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if sec <= 0 {
		t.Fatalf("BatchSeconds = %g", sec)
	}
}

func TestWithCalibrationSet(t *testing.T) {
	st, err := Open(Caffenet, WithCalibrationSet("p2.xlarge", "g3.4xlarge"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tp, err := st.Transfer(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := tp.Model()
	if len(m.Calibrated) != 2 {
		t.Fatalf("calibrated set = %v", m.Calibrated)
	}
	if tp.IsCalibrated("p2.8xlarge") {
		t.Fatal("p2.8xlarge should be held out of the calibration set")
	}

	bad, err := Open(Caffenet, WithCalibrationSet("p3.2xlarge", "p2.xlarge"))
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if _, err := bad.Transfer(context.Background()); err == nil {
		t.Fatal("an uncalibrated type in the calibration set must error")
	}
}

func TestLadderDegreesRejectsNaN(t *testing.T) {
	if _, err := LadderDegrees([]float64{0, math.NaN()}); err == nil {
		t.Fatal("LadderDegrees accepts a NaN ratio")
	}
}
