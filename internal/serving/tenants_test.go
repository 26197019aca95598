package serving

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"ccperf/internal/telemetry"
)

// twoTenants builds a tenant list of two demo ladders, "a" and "b".
func twoTenants(t testing.TB) []Tenant {
	return []Tenant{{Name: "a", Ladder: testLadder(t, 0)}, {Name: "b", Ladder: testLadder(t, 0)}}
}

// tenantGateway builds a gateway from cfg.Tenants with an isolated
// registry and tracer.
func tenantGateway(t testing.TB, cfg Config) *Gateway {
	t.Helper()
	cfg.Registry = telemetry.NewRegistry()
	cfg.Tracer = telemetry.NewTracer(256)
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTenantConfigValidation(t *testing.T) {
	ladder := testLadder(t, 0)
	for name, cfg := range map[string]Config{
		"tenants and ladder": {Tenants: []Tenant{{Name: "a", Ladder: ladder}}, Ladder: ladder},
		"unnamed tenant":     {Tenants: []Tenant{{Ladder: ladder}}},
		"empty ladder":       {Tenants: []Tenant{{Name: "a"}}},
		"duplicate name":     {Tenants: []Tenant{{Name: "a", Ladder: ladder}, {Name: "a", Ladder: ladder}}},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted %+v", name, cfg)
		}
	}
	g := tenantGateway(t, Config{Tenants: []Tenant{
		{Name: "a", Ladder: ladder, SLO: 80 * time.Millisecond},
		{Name: "b", Ladder: ladder, SLO: 20 * time.Millisecond, QPS: 0.5},
	}, Replicas: 3})
	if got := g.Config().ControlInterval; got != 20*time.Millisecond {
		t.Fatalf("control interval %v, want the smallest tenant SLO", got)
	}
	if st := g.TenantStats("b"); st.QueueCap != 64 || st.Weight != 1 || st.SLOMS != 20 {
		t.Fatalf("tenant b defaults %+v, want queue cap 64 and weight 1", st)
	}
	if _, err := g.SubmitAs(context.Background(), "", testImage(1), time.Time{}); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("a gateway without DefaultTenant took an unnamed request: %v", err)
	}
}

func TestBucketAdmission(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBucket(10, 2) // 10/s, burst 2

	if !b.allow(now) || !b.allow(now) {
		t.Fatal("burst of 2 should admit two immediately")
	}
	if b.allow(now) {
		t.Fatal("third immediate request should be rejected")
	}
	// 100ms refills exactly one token at 10/s.
	now = now.Add(100 * time.Millisecond)
	if !b.allow(now) {
		t.Fatal("one token should have refilled")
	}
	if b.allow(now) {
		t.Fatal("bucket should be empty again")
	}
	// A long idle period caps at the burst, not the elapsed rate.
	now = now.Add(time.Hour)
	if !b.allow(now) || !b.allow(now) {
		t.Fatal("burst should refill after idle")
	}
	if b.allow(now) {
		t.Fatal("refill must cap at burst")
	}
}

func TestBucketUnlimited(t *testing.T) {
	b := newBucket(0, 0)
	now := time.Unix(0, 0)
	for i := 0; i < 1000; i++ {
		if !b.allow(now) {
			t.Fatal("rate 0 means unlimited")
		}
	}
}

// TestTenantsGetBreakers: replica 0 crashes for the whole run on a
// two-tenant gateway. Its breaker opens and stays open, and replica 1
// goes on serving both tenants.
func TestTenantsGetBreakers(t *testing.T) {
	g := tenantGateway(t, Config{
		Tenants:  twoTenants(t),
		Replicas: 2, MaxRetries: 10, BreakerCooldown: time.Hour,
		Injector: scriptedInjector{crashed: func(replica int, _ float64) bool { return replica == 0 }},
	})
	g.Start()
	defer g.Stop()
	ctx := context.Background()
	names := []string{"a", "b"}
	// Concurrent pairs keep both replicas pulling until replica 0 has
	// failed BreakerThreshold batches in a row.
	waitUntil(t, 10*time.Second, "replica 0's breaker to open", func() bool {
		var wg sync.WaitGroup
		for _, name := range names {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				g.InferAs(ctx, name, testImage(1), time.Time{})
			}(name)
		}
		wg.Wait()
		return g.BreakerState(0) == BreakerOpen
	})
	if opens := g.Stats().BreakerOpens; opens < 1 {
		t.Fatalf("breaker opens = %d, want ≥ 1", opens)
	}
	before := map[string]int64{"a": g.TenantStats("a").Served, "b": g.TenantStats("b").Served}
	for i := 0; i < 10; i++ {
		for _, name := range names {
			if resp := g.InferAs(ctx, name, testImage(int64(i)), time.Time{}); resp.Err != nil || resp.Attempts != 1 {
				t.Fatalf("tenant %s with replica 0 out: err %v after %d attempts", name, resp.Err, resp.Attempts)
			}
		}
	}
	for _, name := range names {
		if got := g.TenantStats(name).Served - before[name]; got != 10 {
			t.Fatalf("tenant %s served %d of 10 with replica 0 out", name, got)
		}
	}
	if st := g.BreakerState(0); st != BreakerOpen {
		t.Fatalf("replica 0's breaker = %v, want still open", st)
	}
}

// TestHTTPDeadlineBounds: /infer answers 400 to a deadline_ms below zero
// or past MaxLatencyMS, where the conversion to a time.Duration would
// overflow into the past, and accepts the bound itself.
func TestHTTPDeadlineBounds(t *testing.T) {
	_, srv := startHTTPGateway(t, Config{})
	for _, c := range []struct {
		ms   float64
		want int
	}{
		{1e13, http.StatusBadRequest},
		{1e300, http.StatusBadRequest},
		{-1, http.StatusBadRequest},
		{MaxLatencyMS, http.StatusOK},
	} {
		resp := postInfer(t, srv.URL, InferRequest{Seed: 1, DeadlineMS: c.ms})
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("deadline_ms %v: status %d, want %d", c.ms, resp.StatusCode, c.want)
		}
	}
}

// BenchmarkTenantFairness measures the multi-tenant hot path end to end:
// two tenants submitting concurrently through quota admission and the
// deficit-round-robin batcher on a shared two-replica fleet. It is part
// of the benchdiff regression gate — a slowdown here means the fairness
// machinery got more expensive per request.
func BenchmarkTenantFairness(b *testing.B) {
	tenants := twoTenants(b)
	tenants[0].QueueCap, tenants[1].QueueCap, tenants[1].Weight = 512, 512, 2
	g := tenantGateway(b, Config{
		Tenants:      tenants,
		Replicas:     2,
		MaxBatch:     8,
		BatchTimeout: 200 * time.Microsecond,
	})
	g.Start()
	defer g.Stop()

	names := []string{"a", "b"}
	img := testImage(1)
	// Warm both tenants' replicas and workspace pools before the timed
	// region so spin-up allocations don't skew the steady-state numbers.
	for i := 0; i < 16; i++ {
		if resp := g.InferAs(context.Background(), names[i%2], img, time.Time{}); resp.Err != nil {
			b.Fatal(resp.Err)
		}
	}
	const workers = 8
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := names[w%len(names)]
			for i := w; i < b.N; i += workers {
				resp := g.InferAs(context.Background(), name, img, time.Time{})
				if resp.Err != nil {
					b.Error(resp.Err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	if sec := time.Since(start).Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "req/s")
	}
}
