package serving

import (
	"context"
	"runtime"
	"testing"
	"time"

	"ccperf/internal/telemetry"
	"ccperf/internal/workload"
)

func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestOverloadShedsAndDegradesThenRestores is the acceptance scenario:
// sustained overload must engage load shedding (bounded queue) and drive
// the controller down the ladder; recovery must bring it back up.
func TestOverloadShedsAndDegradesThenRestores(t *testing.T) {
	g := testGateway(t, Config{
		Ladder:          testLadder(t, 0, 0.9),
		Replicas:        1,
		QueueCap:        16,
		MaxBatch:        4,
		BatchTimeout:    time.Millisecond,
		SLO:             5 * time.Millisecond,
		ControlInterval: 10 * time.Millisecond,
		HoldIntervals:   2,
	})
	g.Start()
	defer g.Stop()

	// Overload phase: open-loop flood, much faster than one replica can
	// drain. Keep the pressure on until the controller reacts.
	floodUntil := time.Now().Add(5 * time.Second)
	for time.Now().Before(floodUntil) {
		for i := 0; i < 20; i++ {
			g.Submit(context.Background(), testImage(int64(i)), time.Time{})
		}
		st := g.Stats()
		if st.Degrades >= 1 && st.Shed >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	st := g.Stats()
	if st.Shed == 0 {
		t.Fatal("bounded queue never shed under sustained overload")
	}
	if st.Degrades == 0 {
		t.Fatal("controller never degraded under sustained overload")
	}
	if g.CurrentVariant() == 0 {
		t.Fatal("still serving the unpruned variant under overload")
	}

	// Recovery phase: stop submitting; idle healthy intervals must walk
	// the ladder back to the accurate end.
	waitUntil(t, 5*time.Second, "restoration", func() bool {
		return g.Stats().Restores >= 1 && g.CurrentVariant() == 0
	})
}

func TestRunLoadReport(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := testGateway(t, Config{
		Ladder:          testLadder(t, 0, 0.5, 0.9),
		Replicas:        2,
		QueueCap:        32,
		MaxBatch:        8,
		BatchTimeout:    time.Millisecond,
		SLO:             20 * time.Millisecond,
		ControlInterval: 10 * time.Millisecond,
		Registry:        reg,
	})
	g.Start()
	trace, err := workload.Generate(workload.Config{
		Pattern: workload.Bursty, DailyTotal: 300, Windows: 6, Seed: 4,
		BurstProb: 0.5, BurstScale: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := TraceArrivals(trace, 300*time.Millisecond, 11)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunLoad(g, arrivals, LoadConfig{
		Seed:     11,
		Deadline: 2 * time.Second,
		Cooldown: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Stop()

	if int64(rep.Submitted) != trace.Total() {
		t.Fatalf("submitted %d, trace total %d", rep.Submitted, trace.Total())
	}
	if rep.OK+rep.Shed+rep.Expired != rep.Submitted {
		t.Fatalf("outcomes don't add up: %+v", rep)
	}
	if rep.OK == 0 {
		t.Fatal("no request served")
	}
	var perVariant int
	for _, n := range rep.PerVariant {
		perVariant += n
	}
	if perVariant != rep.OK {
		t.Fatalf("per-variant %v sums to %d, want %d", rep.PerVariant, perVariant, rep.OK)
	}
	if rep.P99MS < rep.P50MS || rep.MaxMS < rep.P99MS {
		t.Fatalf("percentiles disordered: %+v", rep)
	}
	if rep.MeanAccuracy <= 0 || rep.MeanAccuracy > 1 {
		t.Fatalf("mean accuracy proxy = %v", rep.MeanAccuracy)
	}
	if rep.Throughput <= 0 {
		t.Fatalf("throughput = %v", rep.Throughput)
	}
	if s := rep.String(); len(s) == 0 {
		t.Fatal("empty report rendering")
	}
	// The gateway's own registry carried the run's counters.
	snap := reg.Snapshot()
	if snap.Counters["serving.admitted_total"] == 0 || snap.Counters["serving.served_total"] == 0 {
		t.Fatalf("registry counters missing: %v", snap.Counters)
	}
}

func TestRunLoadValidation(t *testing.T) {
	if _, err := TraceArrivals(nil, time.Second, 1); err == nil {
		t.Fatal("expected error for missing trace")
	}
	tr := &workload.Trace{Windows: []int64{1}}
	if _, err := TraceArrivals(tr, 0, 1); err == nil {
		t.Fatal("expected error for missing duration")
	}
}

// TestLoadTestLeavesNoGoroutines wraps a whole loadtest cycle and checks
// the goroutine count returns to baseline — the leak gate the race smoke
// in scripts/check.sh relies on.
func TestLoadTestLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	g := testGateway(t, Config{Replicas: 2, QueueCap: 32})
	g.Start()
	trace, err := workload.Generate(workload.Config{Pattern: workload.Uniform, DailyTotal: 100, Windows: 4})
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := TraceArrivals(trace, 100*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunLoad(g, arrivals, LoadConfig{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	g.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after loadtest", before, runtime.NumGoroutine())
}
