package tenant

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccperf/internal/serving"
	"ccperf/internal/stats"
	"ccperf/internal/telemetry"
	"ccperf/internal/tensor"
)

// testGateway builds a gateway hosting specs with an isolated registry
// and tracer and a short demo ladder per tenant (0, 0.9 unless the spec
// names one). The built-in controller is off: these tests move the
// ladders themselves, or drive an autoscale.Scaler.
func testGateway(t testing.TB, specs []Spec, cfg serving.Config) *serving.Gateway {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = telemetry.NewTracer(256)
	}
	cfg.ExternalControl = true
	g, err := NewGateway(specs, func(ratios []float64) ([]serving.Variant, error) {
		if len(ratios) == 0 {
			ratios = []float64{0, 0.9}
		}
		return serving.DemoLadder(ratios)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testTenantImage(seed int64) *tensor.Tensor {
	return serving.SyntheticImage(serving.TinyShape.C, serving.TinyShape.H, serving.TinyShape.W, seed)
}

func TestNewGatewayValidation(t *testing.T) {
	if _, err := NewGateway(nil, nil, serving.Config{}); err == nil {
		t.Fatal("expected error for config without specs")
	}
	if _, err := NewGateway([]Spec{{Name: "a"}, {Name: "a"}}, nil, serving.Config{}); err == nil {
		t.Fatal("expected duplicate-tenant error")
	}
}

func TestInferAsServesEachTenantItsOwnLadder(t *testing.T) {
	g := testGateway(t, []Spec{
		{Name: "a", Ladder: []float64{0, 0.9}},
		{Name: "b", Ladder: []float64{0, 0.5, 0.9}},
	}, serving.Config{})
	g.Start()
	defer g.Stop()

	ra := g.InferAs(context.Background(), "a", testTenantImage(1), time.Time{})
	if ra.Err != nil {
		t.Fatal(ra.Err)
	}
	if ra.Variant != 0 || ra.Accuracy <= 0 {
		t.Fatalf("tenant a: variant=%d accuracy=%v", ra.Variant, ra.Accuracy)
	}
	if got := len(g.Ladder("b")); got != 3 {
		t.Fatalf("tenant b ladder length %d, want 3", got)
	}
	rb := g.InferAs(context.Background(), "b", testTenantImage(2), time.Time{})
	if rb.Err != nil {
		t.Fatal(rb.Err)
	}
	sa := g.TenantStats("a")
	sb := g.TenantStats("b")
	if sa.Served != 1 || sb.Served != 1 {
		t.Fatalf("served a=%d b=%d, want 1 each", sa.Served, sb.Served)
	}
}

func TestSubmitAsUnknownTenant(t *testing.T) {
	g := testGateway(t, []Spec{{Name: "a"}}, serving.Config{})
	g.Start()
	defer g.Stop()
	if _, err := g.SubmitAs(context.Background(), "ghost", testTenantImage(1), time.Time{}); !errors.Is(err, serving.ErrUnknownTenant) {
		t.Fatalf("err = %v, want ErrUnknownTenant", err)
	}
}

// TestQuotaRejectionAccounting is the quota-admission rejection test: a
// tenant over its token bucket gets ErrQuotaExceeded, the rejection lands
// in that tenant's 429 ledger (Rejected), and never leaks into another
// tenant's accounting or the error outcomes.
func TestQuotaRejectionAccounting(t *testing.T) {
	g := testGateway(t, []Spec{
		{Name: "capped", QPS: 5, Burst: 5},
		{Name: "open"},
	}, serving.Config{})
	g.Start()
	defer g.Stop()

	var rejected, admitted int
	for i := 0; i < 20; i++ {
		ch, err := g.SubmitAs(context.Background(), "capped", testTenantImage(int64(i)), time.Time{})
		switch {
		case errors.Is(err, serving.ErrQuotaExceeded):
			rejected++
		case err != nil:
			t.Fatalf("unexpected submit error: %v", err)
		default:
			admitted++
			<-ch
		}
	}
	if rejected == 0 {
		t.Fatal("20 instant submits against burst 5 should hit the quota")
	}
	if admitted == 0 {
		t.Fatal("the burst should admit some requests")
	}
	st := g.TenantStats("capped")
	if st.Rejected != int64(rejected) {
		t.Fatalf("tenant ledger counts %d rejections, loadgen saw %d", st.Rejected, rejected)
	}
	if st.Submitted != 20 || st.Admitted != int64(admitted) {
		t.Fatalf("submitted=%d admitted=%d, want 20/%d", st.Submitted, st.Admitted, admitted)
	}
	if st.Shed != 0 || st.Expired != 0 || st.Faulted != 0 {
		t.Fatalf("quota rejections must not count as errors: %+v", st)
	}
	if other := g.TenantStats("open"); other.Rejected != 0 || other.Submitted != 0 {
		t.Fatalf("open tenant's ledger polluted: %+v", other)
	}
}

// TestFairnessUnderFlood is the isolation property test: one tenant
// keeps its private backlog saturated while a quiet tenant trickles
// requests; deficit-round-robin must keep the quiet tenant's latency
// inside its SLO and its error rate at zero. Run under -race in CI —
// the SLO below is calibrated to race-detector overhead (a starved
// tenant would see multi-second waits either way).
func TestFairnessUnderFlood(t *testing.T) {
	const quietSLO = 500 * time.Millisecond
	g := testGateway(t, []Spec{
		{Name: "noisy", Ladder: []float64{0}, QueueCap: 64},
		{Name: "quiet", Ladder: []float64{0}, SLOMS: 500},
	}, serving.Config{
		Replicas: 1,
		MaxBatch: 2,
	})
	g.Start()
	defer g.Stop()

	stop := make(chan struct{})
	var floodSubmitted atomic.Int64
	var flooders sync.WaitGroup
	for w := 0; w < 2; w++ {
		flooders.Add(1)
		go func(w int) {
			defer flooders.Done()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ch, err := g.SubmitAs(context.Background(), "noisy", testTenantImage(i), time.Time{})
				if err == nil {
					floodSubmitted.Add(1)
					go func() { <-ch }()
				}
				// Paced so the backlog stays full without the submit loops
				// starving the replica goroutines of CPU under -race.
				time.Sleep(time.Millisecond)
			}
		}(w)
	}

	// Give the flood a head start so the noisy backlog is saturated
	// before the quiet tenant shows up.
	time.Sleep(20 * time.Millisecond)

	const quietN = 50
	latencies := make([]float64, 0, quietN)
	quietErrs := 0
	for i := 0; i < quietN; i++ {
		resp := g.InferAs(context.Background(), "quiet", testTenantImage(int64(i)), time.Time{})
		if resp.Err != nil {
			quietErrs++
			continue
		}
		latencies = append(latencies, resp.Total.Seconds())
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	flooders.Wait()

	if floodSubmitted.Load() == 0 {
		t.Fatal("flood never got a request in; test is vacuous")
	}
	if quietErrs > 0 {
		t.Fatalf("%d/%d quiet-tenant requests errored under flood, want 0", quietErrs, quietN)
	}
	p99 := stats.Percentile(latencies, 0.99)
	if p99 > quietSLO.Seconds() {
		t.Fatalf("quiet tenant p99 %.1fms exceeds %.0fms SLO under flood",
			p99*1000, quietSLO.Seconds()*1000)
	}
	// The flood must have actually contended for the whole window: the
	// noisy tenant out-served the quiet one, yet the quiet one stayed fast.
	if st := g.TenantStats("noisy"); st.Served <= int64(quietN) {
		t.Fatalf("noisy tenant served only %d requests; flood too weak to prove fairness", st.Served)
	}
}

func TestWeightedQuantumFavorsHeavyTenant(t *testing.T) {
	g := testGateway(t, []Spec{
		{Name: "heavy", Ladder: []float64{0}, Weight: 4},
		{Name: "light", Ladder: []float64{0}, Weight: 1},
	}, serving.Config{
		Replicas: 1,
		MaxBatch: 2,
	})
	// Prefill both backlogs before the replica starts: with both queues
	// non-empty for the whole measured window, every DRR round contends
	// and the weight ratio is the only variable — no arrival pacing to
	// race against (open-loop submitters leave backlogs empty on fast
	// machines, where the scheduler rightly serves whoever has work).
	const prefill = 60
	for _, name := range []string{"heavy", "light"} {
		for i := int64(0); i < prefill; i++ {
			ch, err := g.SubmitAs(context.Background(), name, testTenantImage(i), time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			go func() { <-ch }()
		}
	}
	g.Start()
	defer g.Stop()

	// Snapshot mid-drain: served ≤ 30 < prefill on each side, so both
	// backlogs were non-empty for every round counted. Stop then drains
	// the remainder (which would equalize the totals — hence the
	// snapshot, not a post-Stop read). Light is read first so any serves
	// between the two reads can only widen the asserted gap.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if g.TenantStats("heavy").Served+g.TenantStats("light").Served >= 30 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("served only %d of %d prefilled requests in 20s",
				g.TenantStats("heavy").Served+g.TenantStats("light").Served, 2*prefill)
		}
		time.Sleep(time.Millisecond)
	}
	light := g.TenantStats("light").Served
	heavy := g.TenantStats("heavy").Served
	if heavy <= light {
		t.Fatalf("weight-4 tenant served %d ≤ weight-1 tenant's %d under contention", heavy, light)
	}
}

func TestSetVariantCountsDegradesAndRestores(t *testing.T) {
	g := testGateway(t, []Spec{{Name: "a", Ladder: []float64{0, 0.5, 0.9}}}, serving.Config{})
	g.Start()
	defer g.Stop()

	ctx := context.Background()
	if _, err := g.SetVariant(ctx, "a", 2); err != nil {
		t.Fatal(err)
	}
	if v := g.TenantStats("a").Variant; v != 2 {
		t.Fatalf("variant = %d, want 2", v)
	}
	if _, err := g.SetVariant(ctx, "a", 0); err != nil {
		t.Fatal(err)
	}
	st := g.TenantStats("a")
	if st.Degrades != 2 || st.Restores != 2 {
		t.Fatalf("degrades=%d restores=%d, want 2/2 (two rungs each way)", st.Degrades, st.Restores)
	}
	if v, err := g.SetVariant(ctx, "a", 99); err != nil || v != 2 {
		t.Fatalf("SetVariant clamps to the ladder bottom: got %d, %v", v, err)
	}
	if _, err := g.SetVariant(ctx, "ghost", 0); !errors.Is(err, serving.ErrUnknownTenant) {
		t.Fatalf("err = %v, want ErrUnknownTenant", err)
	}
}

func TestScaleToBounds(t *testing.T) {
	g := testGateway(t, []Spec{{Name: "a"}}, serving.Config{Replicas: 2})
	g.Start()
	defer g.Stop()
	if n, err := g.ScaleTo(4); err != nil || n != 4 {
		t.Fatalf("ScaleTo(4) = %d, %v", n, err)
	}
	if n, err := g.ScaleTo(1); err != nil || n != 1 {
		t.Fatalf("ScaleTo(1) = %d, %v", n, err)
	}
	if n, err := g.ScaleTo(0); err != nil || n != 1 {
		t.Fatalf("ScaleTo clamps at one replica: got %d, %v", n, err)
	}
	// The fleet still serves after scaling both ways.
	if resp := g.InferAs(context.Background(), "a", testTenantImage(1), time.Time{}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
}

func TestStageStatsKeyedByTenant(t *testing.T) {
	g := testGateway(t, []Spec{{Name: "a"}, {Name: "b"}}, serving.Config{})
	g.Start()
	defer g.Stop()
	for i := 0; i < 4; i++ {
		if resp := g.InferAs(context.Background(), "a", testTenantImage(int64(i)), time.Time{}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	st := g.StageStatsByTenant()
	if st["a"].NNForward.Count == 0 || st["a"].QueueWait.Count == 0 {
		t.Fatalf("tenant a stages empty: %+v", st["a"])
	}
	if st["b"].NNForward.Count != 0 {
		t.Fatalf("idle tenant b has forward samples: %+v", st["b"])
	}
}

func TestObserveDrainsWindow(t *testing.T) {
	g := testGateway(t, []Spec{{Name: "b", SLOMS: 80, MaxCostPerHour: 2}, {Name: "a", SLOMS: 60_000}}, serving.Config{})
	g.Start()
	defer g.Stop()
	for i := 0; i < 3; i++ {
		if resp := g.InferAs(context.Background(), "a", testTenantImage(int64(i)), time.Time{}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	rows := g.Observe()
	if len(rows) != 2 || rows[0].Name != "a" || rows[1].Name != "b" {
		t.Fatalf("rows %+v, want one per tenant in registry order", rows)
	}
	if o := rows[0]; o.Samples != 3 || o.P99 <= 0 || o.Served != 3 || o.OnTime != 3 {
		t.Fatalf("observation %+v, want 3 on-time samples with positive p99", o)
	}
	if o := rows[1]; o.Samples != 0 || o.SLOSeconds != 0.08 || o.MaxCostPerHour != 2 {
		t.Fatalf("idle tenant b %+v, want no samples, its 0.08 s SLO and $2/hr cap", o)
	}
	if o2 := g.Observe()[0]; o2.Samples != 0 {
		t.Fatalf("window not drained: %d samples remain", o2.Samples)
	}
}

func TestStopDrainsBacklog(t *testing.T) {
	g := testGateway(t, []Spec{{Name: "a", QueueCap: 128}}, serving.Config{Replicas: 1, MaxBatch: 2})
	g.Start()

	chans := make([]<-chan serving.Response, 0, 32)
	for i := 0; i < 32; i++ {
		ch, err := g.SubmitAs(context.Background(), "a", testTenantImage(int64(i)), time.Time{})
		if err != nil {
			continue
		}
		chans = append(chans, ch)
	}
	g.Stop()
	for _, ch := range chans {
		resp := <-ch
		if resp.Err != nil && !errors.Is(resp.Err, serving.ErrStopped) {
			t.Fatalf("drained request failed with %v", resp.Err)
		}
	}
	if _, err := g.SubmitAs(context.Background(), "a", testTenantImage(0), time.Time{}); !errors.Is(err, serving.ErrStopped) {
		t.Fatalf("submit after stop = %v, want ErrStopped", err)
	}
}

// TestCountTenantError pins how the load driver files a failed request:
// by errors.Is, so a sentinel wrapped by %w or joined by errors.Join still
// lands in its outcome, and anything else lands in Other.
func TestCountTenantError(t *testing.T) {
	type counts struct{ rejected, shed, expired, faulted, other int }
	for _, c := range []struct {
		name string
		err  error
		want counts
	}{
		{"quota", serving.ErrQuotaExceeded, counts{rejected: 1}},
		{"wrapped quota", fmt.Errorf("admit: %w", serving.ErrQuotaExceeded), counts{rejected: 1}},
		{"joined quota", errors.Join(errors.New("tenant a"), serving.ErrQuotaExceeded), counts{rejected: 1}},
		{"shed", serving.ErrOverloaded, counts{shed: 1}},
		{"expired", fmt.Errorf("late: %w", serving.ErrExpired), counts{expired: 1}},
		{"joined fault", errors.Join(serving.ErrFaulted, errors.New("replica 2")), counts{faulted: 1}},
		{"stopped", serving.ErrStopped, counts{other: 1}},
		{"other", errors.New("boom"), counts{other: 1}},
	} {
		var tr TenantReport
		countTenantError(&tr, c.err)
		if got := (counts{tr.Rejected, tr.Shed, tr.Expired, tr.Faulted, tr.Other}); got != c.want {
			t.Errorf("%s: counts = %+v, want %+v", c.name, got, c.want)
		}
	}
}

// TestRunLoadCountsEveryOutcome: a replay against a stopped gateway is
// all errors, and each tenant's outcomes sum to its submissions.
func TestRunLoadCountsEveryOutcome(t *testing.T) {
	specs := []Spec{{Name: "a", OfferedQPS: 200}, {Name: "b", OfferedQPS: 200}}
	g := testGateway(t, specs, serving.Config{})
	g.Start()
	g.Stop()
	rep, err := RunLoad(g, specs, LoadConfig{Duration: 200 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if er := rep.ErrorRate(); er != 1 {
		t.Fatalf("error rate %v against a stopped gateway, want 1", er)
	}
	for _, tr := range rep.Tenants {
		if tr.Submitted == 0 {
			t.Fatalf("tenant %s submitted nothing; test is vacuous", tr.Name)
		}
		if sum := tr.OK + tr.Rejected + tr.Shed + tr.Expired + tr.Faulted + tr.Other; sum != tr.Submitted {
			t.Fatalf("tenant %s: %d submitted but %d outcomes: %+v", tr.Name, tr.Submitted, sum, tr)
		}
	}
}
