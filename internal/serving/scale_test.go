package serving

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestScaleToGrowsAndShrinks(t *testing.T) {
	g := testGateway(t, Config{Replicas: 1, QueueCap: 64})
	g.Start()
	defer g.Stop()

	if n, err := g.ScaleTo(3); err != nil || n != 3 {
		t.Fatalf("ScaleTo(3) = %d, %v", n, err)
	}
	if got := g.ReplicaCount(); got != 3 {
		t.Fatalf("ReplicaCount = %d after scale-out", got)
	}
	// The grown fleet still serves.
	resp := g.Infer(context.Background(), testImage(1), time.Time{})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if n, err := g.ScaleTo(1); err != nil || n != 1 {
		t.Fatalf("ScaleTo(1) = %d, %v", n, err)
	}
	if got := g.Stats().Replicas; got != 1 {
		t.Fatalf("Stats().Replicas = %d after scale-in", got)
	}
	// The shrunk fleet still serves: retired replicas must not have taken
	// the shared queue down with them.
	for i := 0; i < 8; i++ {
		if resp := g.Infer(context.Background(), testImage(int64(i)), time.Time{}); resp.Err != nil {
			t.Fatalf("request %d after scale-in: %v", i, resp.Err)
		}
	}
}

func TestScaleToClampsAtOne(t *testing.T) {
	g := testGateway(t, Config{Replicas: 2})
	if n, err := g.ScaleTo(0); err != nil || n != 1 {
		t.Fatalf("ScaleTo(0) = %d, %v; want clamp to 1", n, err)
	}
	g.Start()
	g.Stop()
	if _, err := g.ScaleTo(4); !errors.Is(err, ErrStopped) {
		t.Fatalf("ScaleTo after Stop: err = %v, want ErrStopped", err)
	}
}

// TestStopScaleInRace is the regression test for the double-close hazard:
// Stop (which closes the shared stopCh) racing a scale-in (which closes
// per-replica stop channels) must neither close a channel twice nor
// register workers after workers.Wait — both blow up under -race or panic
// outright. Every queued request must still get exactly one answer.
func TestStopScaleInRace(t *testing.T) {
	for round := 0; round < 25; round++ {
		g := testGateway(t, Config{Replicas: 4, QueueCap: 64, MaxBatch: 4})
		g.Start()
		chans := make([]<-chan Response, 0, 16)
		for i := 0; i < 16; i++ {
			if ch, err := g.Submit(context.Background(), testImage(int64(i)), time.Time{}); err == nil {
				chans = append(chans, ch)
			}
		}
		var wg sync.WaitGroup
		wg.Add(3)
		go func() { defer wg.Done(); g.ScaleTo(1) }()
		go func() { defer wg.Done(); g.Stop() }()
		go func() { defer wg.Done(); g.ScaleTo(6) }()
		wg.Wait()
		for i, ch := range chans {
			select {
			case <-ch:
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: request %d never answered", round, i)
			}
		}
	}
}

func TestWarmupDelaysNewReplicaOnly(t *testing.T) {
	g := testGateway(t, Config{Replicas: 1, WarmupDelay: 50 * time.Millisecond})
	g.Start()
	defer g.Stop()
	// The Start-time replica is warm: a request lands immediately.
	start := time.Now()
	if resp := g.Infer(context.Background(), testImage(1), time.Time{}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if d := time.Since(start); d > 40*time.Millisecond {
		t.Fatalf("initial replica appears to have warmed up (%v)", d)
	}
	g.ScaleTo(2) // the new replica warms up but must not disturb service
	if resp := g.Infer(context.Background(), testImage(2), time.Time{}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
}

func TestReplicaSecondsAccrues(t *testing.T) {
	g := testGateway(t, Config{Replicas: 2})
	if s := g.ReplicaSeconds(); s != 0 {
		t.Fatalf("ReplicaSeconds before Start = %v", s)
	}
	g.Start()
	time.Sleep(30 * time.Millisecond)
	mid := g.ReplicaSeconds()
	if mid <= 0 {
		t.Fatalf("ReplicaSeconds did not accrue: %v", mid)
	}
	g.ScaleTo(4)
	time.Sleep(30 * time.Millisecond)
	g.Stop()
	final := g.ReplicaSeconds()
	// 2 replicas for ≥30ms then 4 for ≥30ms ⥂ at least 0.18 replica-seconds.
	if final < 0.15 {
		t.Fatalf("ReplicaSeconds after scaled run = %v, want ≥ 0.15", final)
	}
	if again := g.ReplicaSeconds(); again != final {
		t.Fatalf("ReplicaSeconds kept accruing after Stop: %v then %v", final, again)
	}
}

func TestSetVariantClampsAndCounts(t *testing.T) {
	g := testGateway(t, Config{Ladder: testLadder(t, 0, 0.5, 0.9)})
	ctx := context.Background()
	if got, _ := g.SetVariant(ctx, DefaultTenant, 99); got != 2 {
		t.Fatalf("SetVariant(99) = %d, want clamp to 2", got)
	}
	if got := g.Stats().Degrades; got != 2 {
		t.Fatalf("degrades = %d after two-rung jump, want 2", got)
	}
	if got, _ := g.SetVariant(ctx, "", -5); got != 0 {
		t.Fatalf("SetVariant(-5) = %d, want clamp to 0", got)
	}
	if got := g.Stats().Restores; got != 2 {
		t.Fatalf("restores = %d after two-rung return, want 2", got)
	}
	if got, _ := g.SetVariant(ctx, DefaultTenant, 0); got != 0 || g.Stats().Restores != 2 {
		t.Fatal("no-op SetVariant must not count a move")
	}
	if _, err := g.SetVariant(ctx, "acme", 1); err == nil || g.CurrentVariant() != 0 {
		t.Fatal("a gateway serves DefaultTenant only; another tenant's move must fail")
	}
}

func TestExternalControlDisablesBuiltInController(t *testing.T) {
	g := testGateway(t, Config{
		Ladder: testLadder(t, 0, 0.9), ExternalControl: true,
		ControlInterval: time.Millisecond, SLO: time.Nanosecond, QueueCap: 4,
	})
	g.Start()
	// Saturate latency far past the 1ns SLO; with the built-in controller
	// disabled the ladder must not move on its own.
	for i := 0; i < 8; i++ {
		g.Infer(context.Background(), testImage(int64(i)), time.Time{})
	}
	time.Sleep(20 * time.Millisecond)
	g.Stop()
	if v := g.CurrentVariant(); v != 0 {
		t.Fatalf("variant moved to %d with ExternalControl set", v)
	}
}
