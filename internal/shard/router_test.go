package shard

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ccperf/internal/cloud"
	"ccperf/internal/fault"
	"ccperf/internal/serving"
	"ccperf/internal/telemetry"
	"ccperf/internal/workload"
)

var (
	ladderOnce sync.Once
	ladderVal  []serving.Variant
	ladderErr  error
)

// testLadder builds the two-variant demo ladder once per test binary —
// ladders are read-only during serving, so every fleet can share it.
func testLadder(t testing.TB) []serving.Variant {
	t.Helper()
	ladderOnce.Do(func() {
		ladderVal, ladderErr = serving.DemoLadder([]float64{0, 0.9})
	})
	if ladderErr != nil {
		t.Fatal(ladderErr)
	}
	return ladderVal
}

// testFleet builds a started fleet over the given regions plus a router,
// with cleanup registered.
func testFleet(t testing.TB, shards int, regions []string, sched *fault.Schedule, base serving.Config, rcfg Config) *Router {
	t.Helper()
	if base.Ladder == nil {
		base.Ladder = testLadder(t)
	}
	if base.Registry == nil {
		base.Registry = telemetry.NewRegistry()
	}
	if base.Tracer == nil {
		base.Tracer = telemetry.NewTracer(256)
	}
	regs := make([]cloud.Region, len(regions))
	for i, name := range regions {
		regs[i] = cloud.Region{Name: name, PriceMultiplier: 1}
	}
	fleet, err := BuildFleet(base, shards, regs, sched)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fleet {
		s.Gateway.Start()
	}
	t.Cleanup(func() {
		for _, s := range fleet {
			s.Gateway.Stop()
		}
	})
	rcfg.Shards = fleet
	if rcfg.Registry == nil {
		rcfg.Registry = base.Registry
	}
	if rcfg.Tracer == nil {
		rcfg.Tracer = base.Tracer
	}
	if rcfg.RTT == nil {
		rcfg.RTT = func(_, _ string) time.Duration { return 0 }
	}
	r, err := NewRouter(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	return r
}

func submitOne(t *testing.T, r *Router, key uint64, origin string) Routed {
	t.Helper()
	img := serving.SyntheticImage(serving.TinyShape.C, serving.TinyShape.H, serving.TinyShape.W, int64(key))
	ch, _, err := r.Submit(context.Background(), key, origin, img, time.Now().Add(2*time.Second))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	resp, ok := <-ch
	if !ok {
		t.Fatal("response channel closed")
	}
	return resp
}

func TestRouterServesAndRoutesByKey(t *testing.T) {
	r := testFleet(t, 3, []string{"us-west", "us-east"}, nil, serving.Config{Replicas: 1}, Config{})
	perShard := make([]int, 3)
	for i := 0; i < 30; i++ {
		resp := submitOne(t, r, Key(int64(i)), "us-west")
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
		if resp.Shard < 0 || resp.Shard >= 3 {
			t.Fatalf("request %d served by shard %d", i, resp.Shard)
		}
		perShard[resp.Shard]++
	}
	total := 0
	for _, st := range r.Statuses() {
		if st.Weight != 1 {
			t.Fatalf("healthy shard %d weight %v", st.Shard, st.Weight)
		}
		total += perShard[st.Shard]
	}
	if total != 30 {
		t.Fatalf("fleet served %d, want 30", total)
	}
}

func TestRouterReroutesAroundDrainedShard(t *testing.T) {
	r := testFleet(t, 2, []string{"us-west", "us-east"}, nil, serving.Config{Replicas: 1}, Config{})
	// Find keys homed on shard 0, then drain it via bias: every one of
	// them must be served by shard 1 and counted as a reroute.
	var keys []uint64
	for i := 0; len(keys) < 10; i++ {
		k := Key(int64(i))
		if r.ring.Home(k) == 0 {
			keys = append(keys, k)
		}
	}
	r.SetBias(0, 0)
	before := r.rerouted.Value()
	for _, k := range keys {
		resp := submitOne(t, r, k, "us-west")
		if resp.Err != nil {
			t.Fatalf("key %d: %v", k, resp.Err)
		}
		if resp.Shard != 1 {
			t.Fatalf("key %d served by drained shard %d", k, resp.Shard)
		}
	}
	if got := r.rerouted.Value() - before; got != int64(len(keys)) {
		t.Fatalf("rerouted %d, want %d", got, len(keys))
	}
	// Restore the bias: home routing resumes.
	r.SetBias(0, 1)
	resp := submitOne(t, r, keys[0], "us-west")
	if resp.Shard != 0 {
		t.Fatalf("restored shard not used (served by %d)", resp.Shard)
	}
}

func TestRouterShedsWhenAllDrained(t *testing.T) {
	r := testFleet(t, 2, []string{"us-west"}, nil, serving.Config{Replicas: 1}, Config{})
	r.SetBias(0, 0)
	r.SetBias(1, 0)
	img := serving.SyntheticImage(serving.TinyShape.C, serving.TinyShape.H, serving.TinyShape.W, 1)
	_, _, err := r.Submit(context.Background(), Key(1), "us-west", img, time.Time{})
	if !errors.Is(err, ErrNoShard) {
		t.Fatalf("err = %v, want ErrNoShard", err)
	}
	if r.shed.Value() == 0 {
		t.Fatal("shed counter not bumped")
	}
}

// TestRouterHealthDrainsRegionDown is the tentpole's core loop in
// miniature: a region-scoped fault takes a shard's replicas down, its
// breakers open, the router's health ticks drain its weight, and traffic
// spills to the surviving region — with client-visible errors held off
// by failover in the meantime.
func TestRouterHealthDrainsRegionDown(t *testing.T) {
	sched, err := fault.ParseSchedule("region@us-east:0+600")
	if err != nil {
		t.Fatal(err)
	}
	r := testFleet(t, 2, []string{"us-west", "us-east"}, sched,
		serving.Config{
			Replicas:         2,
			MaxRetries:       1,
			RetryBackoff:     time.Millisecond,
			BreakerThreshold: 1,
			BreakerCooldown:  10 * time.Second, // stay open for the test's duration
			BatchTimeout:     time.Millisecond,
		}, Config{})
	// Drive traffic until the dead region's breakers open, then tick
	// health until the router drains it.
	for i := 0; i < 40; i++ {
		resp := submitOne(t, r, Key(int64(i)), "us-west")
		if resp.Err != nil && !errors.Is(resp.Err, serving.ErrFaulted) {
			t.Fatalf("request %d: unexpected error %v", i, resp.Err)
		}
		// Failover means even requests homed on the dead shard come back
		// served by the living one.
		if resp.Err == nil && resp.Shard == 1 {
			t.Fatalf("request %d served OK by the dead region's shard", i)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.Tick()
		sts := r.Statuses()
		if sts[1].Weight == 0 && sts[0].Weight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead shard never drained: %+v", sts)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Once drained, every submission routes straight to the survivor —
	// no failover needed.
	failBefore := r.failovers.Value()
	for i := 100; i < 120; i++ {
		resp := submitOne(t, r, Key(int64(i)), "us-east")
		if resp.Err != nil {
			t.Fatalf("post-drain request %d: %v", i, resp.Err)
		}
		if resp.Shard != 0 {
			t.Fatalf("post-drain request %d served by drained shard", i)
		}
	}
	if got := r.failovers.Value(); got != failBefore {
		t.Fatalf("failovers after drain: %d new", got-failBefore)
	}
}

func TestRouterRTTPenaltyOnCrossRegionServe(t *testing.T) {
	const rtt = 30 * time.Millisecond
	r := testFleet(t, 2, []string{"us-west", "us-east"}, nil, serving.Config{Replicas: 1},
		Config{RTT: func(origin, region string) time.Duration {
			if origin == region {
				return 0
			}
			return rtt
		}})
	// Drain us-east: requests originating there are served cross-region
	// and must pay the RTT.
	r.SetBias(1, 0)
	start := time.Now()
	resp := submitOne(t, r, Key(7), "us-east")
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if took := time.Since(start); took < rtt {
		t.Fatalf("cross-region response in %v, want ≥ %v", took, rtt)
	}
	// Same-region service pays nothing extra beyond service time.
	resp = submitOne(t, r, Key(7), "us-west")
	if resp.Err != nil || resp.Shard != 0 {
		t.Fatalf("same-region serve: %+v", resp)
	}
}

func TestRouterStartStopIdempotent(t *testing.T) {
	r := testFleet(t, 1, []string{"us-west"}, nil, serving.Config{Replicas: 1},
		Config{HealthInterval: time.Millisecond})
	r.Start()
	r.Start()
	time.Sleep(10 * time.Millisecond) // let a few health ticks run
	r.Stop()
	r.Stop()
}

// TestShardedReplayDeterministic pins the acceptance criterion that a
// seeded replay is bit-for-bit reproducible: the full routing plan —
// arrival times, origins, request keys and home shards — is a pure
// function of the seed.
func TestShardedReplayDeterministic(t *testing.T) {
	shapes := []workload.Shape{
		workload.Sinusoid{Amplitude: 0.6, Peak: 0.75},
		workload.FlashCrowd{At: 0.6, Ramp: 0.05, Hold: 0.1, Mult: 4},
	}
	plan := func(seed int64) ([]float64, []int, []int) {
		arrivals := workload.ShapedArrivals(1000, 30, shapes, seed)
		origins := workload.AssignRegions(len(arrivals), []float64{2, 1}, 0.7, seed+1)
		ring := NewRing(3, 0)
		homes := make([]int, len(arrivals))
		for i := range arrivals {
			homes[i] = ring.Home(Key(seed + int64(i)))
		}
		return arrivals, origins, homes
	}
	a1, o1, h1 := plan(42)
	a2, o2, h2 := plan(42)
	for i := range a1 {
		if a1[i] != a2[i] || o1[i] != o2[i] || h1[i] != h2[i] {
			t.Fatalf("replay plan diverged at %d: (%v,%d,%d) vs (%v,%d,%d)",
				i, a1[i], o1[i], h1[i], a2[i], o2[i], h2[i])
		}
	}
	_, _, h3 := plan(43)
	same := true
	for i := range h1 {
		if h1[i] != h3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced an identical routing plan")
	}
}

func TestRunLoadSmoke(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := testFleet(t, 2, []string{"us-west", "us-east"}, nil,
		serving.Config{Replicas: 2, QueueCap: 256, Registry: reg}, Config{Registry: reg})
	arrivals := serving.ShapedArrivals(100, time.Second,
		[]workload.Shape{workload.FlashCrowd{At: 0.5, Ramp: 0.1, Hold: 0.2, Mult: 3}}, 42)
	target, err := NewTarget(r, len(arrivals), nil, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := serving.RunLoad(target, arrivals, serving.LoadConfig{Seed: 42, Deadline: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := cloud.ByName("p2.xlarge")
	if err != nil {
		t.Fatal(err)
	}
	bill := target.Bill(rep, nil, inst)
	if rep.Submitted != 100 {
		t.Fatalf("submitted %d", rep.Submitted)
	}
	if got := rep.OK + rep.Late + rep.Shed + rep.Expired + rep.Faulted + rep.Other; got != 100 {
		t.Fatalf("outcomes sum to %d, want 100: %s", got, rep)
	}
	if rep.ErrorRate() > 0.05 {
		t.Fatalf("fault-free error rate %.2f%%", 100*rep.ErrorRate())
	}
	if len(bill.Regions) != 2 {
		t.Fatalf("regions in report: %d", len(bill.Regions))
	}
	var regionOK int
	for _, reg := range bill.Regions {
		regionOK += reg.OK
		if reg.Shards != 1 {
			t.Fatalf("region %s shards %d", reg.Region, reg.Shards)
		}
		if reg.CostUSD <= 0 {
			t.Fatalf("region %s billed nothing", reg.Region)
		}
	}
	if regionOK != rep.OK {
		t.Fatalf("per-region OK %d != global %d", regionOK, rep.OK)
	}
	if bill.CostPerMillion <= 0 || rep.MeanAccuracy <= 0 {
		t.Fatalf("frontier point degenerate: %s", rep)
	}
	if bill.FrontierTable(rep) == "" {
		t.Fatal("empty frontier table")
	}
}

func BenchmarkShardRouter(b *testing.B) {
	base := serving.Config{
		Ladder:   testLadder(b),
		Replicas: 1,
		Registry: telemetry.NewRegistry(),
		Tracer:   telemetry.NewTracer(16),
	}
	regs := []cloud.Region{{Name: "us-west", PriceMultiplier: 1}, {Name: "us-east", PriceMultiplier: 1}}
	fleet, err := BuildFleet(base, 8, regs, nil)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRouter(Config{Shards: fleet, Registry: base.Registry, Tracer: base.Tracer})
	if err != nil {
		b.Fatal(err)
	}
	// Exercise the routing decision alone (ring walk + bounded-load
	// check) — the per-request overhead the router adds in front of a
	// gateway, kept hermetic so the benchdiff gate sees CPU, not
	// goroutine scheduling.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.Route(Key(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
