package serving

import (
	"testing"
	"time"

	"ccperf/internal/telemetry"
)

var testPolicy = Policy{
	SLOSeconds:         0.050,
	DegradeUtilization: 0.75,
	RestoreFraction:    0.5,
	HoldIntervals:      3,
}

func TestPolicyDegradeOnP99Violation(t *testing.T) {
	a, streak := testPolicy.Decide(Signal{P99: 0.080, Samples: 100})
	if a != Degrade || streak != 0 {
		t.Fatalf("got %v/%d, want degrade", a, streak)
	}
}

func TestPolicyDegradeOnQueuePressure(t *testing.T) {
	// Queue nearly full forces a degrade even while p99 still looks fine —
	// the queue is the leading indicator, p99 the lagging one.
	a, _ := testPolicy.Decide(Signal{P99: 0.010, Samples: 50, QueueFrac: 0.9})
	if a != Degrade {
		t.Fatalf("got %v, want degrade on queue pressure", a)
	}
}

func TestPolicyHoldInTheMiddleBand(t *testing.T) {
	// p99 between restore threshold and SLO: neither degrade nor restore,
	// and the healthy streak resets.
	a, streak := testPolicy.Decide(Signal{P99: 0.040, Samples: 50, Healthy: 2})
	if a != Hold || streak != 0 {
		t.Fatalf("got %v/%d, want hold with streak reset", a, streak)
	}
}

func TestPolicyRestoreNeedsConsecutiveHealthyIntervals(t *testing.T) {
	sig := Signal{P99: 0.010, Samples: 50}
	a, streak := testPolicy.Decide(sig)
	if a != Hold || streak != 1 {
		t.Fatalf("tick 1: %v/%d", a, streak)
	}
	sig.Healthy = streak
	a, streak = testPolicy.Decide(sig)
	if a != Hold || streak != 2 {
		t.Fatalf("tick 2: %v/%d", a, streak)
	}
	sig.Healthy = streak
	a, streak = testPolicy.Decide(sig)
	if a != Restore || streak != 0 {
		t.Fatalf("tick 3: %v/%d, want restore", a, streak)
	}
}

func TestPolicyIdleCountsHealthy(t *testing.T) {
	a, streak := testPolicy.Decide(Signal{Samples: 0, QueueFrac: 0, Healthy: 2})
	if a != Restore || streak != 0 {
		t.Fatalf("idle interval: %v/%d, want restore", a, streak)
	}
}

// tickGateway drives controlTick directly for deterministic ladder moves.
func tickGateway(t *testing.T) *Gateway {
	t.Helper()
	return testGateway(t, Config{
		Ladder:        testLadder(t, 0, 0.5, 0.9),
		SLO:           50 * time.Millisecond,
		HoldIntervals: 2,
	})
}

func TestControlTickDegradesAndRestores(t *testing.T) {
	g := tickGateway(t)
	// Interval with a violated p99 → one degrade step.
	for i := 0; i < 100; i++ {
		g.window.Add(0.200)
	}
	g.controlTick()
	if got := g.CurrentVariant(); got != 1 {
		t.Fatalf("variant after violation = %d, want 1", got)
	}
	// Still violated → bottom of the ladder; further violations clamp.
	for i := 0; i < 100; i++ {
		g.window.Add(0.200)
	}
	g.controlTick()
	for i := 0; i < 100; i++ {
		g.window.Add(0.200)
	}
	g.controlTick()
	if got := g.CurrentVariant(); got != 2 {
		t.Fatalf("variant should clamp at ladder end, got %d", got)
	}
	if got := g.Stats().Degrades; got != 2 {
		t.Fatalf("degrade counter = %d, want 2 (clamped move not counted)", got)
	}
	// Healthy intervals: restore one step per HoldIntervals streak.
	g.controlTick() // idle tick 1
	g.controlTick() // idle tick 2 → restore
	if got := g.CurrentVariant(); got != 1 {
		t.Fatalf("variant after recovery = %d, want 1", got)
	}
	g.controlTick()
	g.controlTick()
	if got := g.CurrentVariant(); got != 0 {
		t.Fatalf("variant after full recovery = %d, want 0", got)
	}
	st := g.Stats()
	if st.Restores != 2 {
		t.Fatalf("restore counter = %d, want 2", st.Restores)
	}
}

func TestControlTickEmitsSpans(t *testing.T) {
	tr := telemetry.NewTracer(64)
	g := testGateway(t, Config{
		Ladder: testLadder(t, 0, 0.9),
		SLO:    50 * time.Millisecond,
		Tracer: tr,
	})
	for i := 0; i < 10; i++ {
		g.window.Add(1.0)
	}
	g.controlTick()
	var found bool
	for _, s := range tr.Spans() {
		if s.Name == "serving.degrade" {
			found = true
			labels := map[string]string{}
			for _, l := range s.Labels {
				labels[l.Key] = l.Value
			}
			if labels["from"] != "nonpruned" || labels["to"] == "" {
				t.Fatalf("degrade span labels = %v", labels)
			}
		}
	}
	if !found {
		t.Fatal("no serving.degrade span recorded")
	}
}

func TestControllerDisabledForSingleVariantLadder(t *testing.T) {
	g := testGateway(t, Config{Ladder: testLadder(t, 0)})
	g.Start()
	defer g.Stop()
	// With one variant there is nothing to adapt; the control loop must
	// not have been launched (Stop would hang on a stuck goroutine).
	for i := 0; i < 10; i++ {
		g.window.Add(10)
	}
	g.controlTick()
	if g.CurrentVariant() != 0 {
		t.Fatal("single-variant ladder moved")
	}
}
