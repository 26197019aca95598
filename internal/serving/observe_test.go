package serving

import (
	"context"
	"testing"
	"time"
)

// TestWindowBoundsUndrainedSamples: a window no control loop drains stops
// growing at MaxWindowSamples, and a drain empties it for the next tick.
func TestWindowBoundsUndrainedSamples(t *testing.T) {
	var w Window
	for i := 0; i < MaxWindowSamples+1000; i++ {
		w.Add(float64(i%100) / 1000)
	}
	if n := len(w.samples); n != MaxWindowSamples {
		t.Fatalf("window holds %d samples, want the %d cap", n, MaxWindowSamples)
	}
	if p99, n := w.Drain(); n != MaxWindowSamples || p99 <= 0 {
		t.Fatalf("Drain = p99 %v over %d samples, want %d positive samples", p99, n, MaxWindowSamples)
	}
	if _, n := w.Drain(); n != 0 {
		t.Fatalf("second Drain saw %d samples, want 0", n)
	}
	w.Add(0.5)
	if p99, n := w.Drain(); n != 1 || p99 != 0.5 {
		t.Fatalf("after a drain the window records again: got p99 %v over %d", p99, n)
	}
}

// TestGatewayObserveDrainsWindow: the gateway's one row carries its SLO
// and counters, drains the latency window, and counts shed requests as
// submitted.
func TestGatewayObserveDrainsWindow(t *testing.T) {
	g := testGateway(t, Config{Ladder: testLadder(t, 0, 0.9), SLO: 80 * time.Millisecond, ExternalControl: true})
	g.Start()
	defer g.Stop()
	for i := 0; i < 3; i++ {
		if resp := g.Infer(context.Background(), testImage(int64(i)), time.Time{}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	rows := g.Observe()
	if len(rows) != 1 || rows[0].Name != DefaultTenant {
		t.Fatalf("gateway rows = %+v, want one DefaultTenant row", rows)
	}
	o := rows[0]
	if o.Samples != 3 || o.P99 <= 0 || o.Served != 3 || o.Submitted != 3 || o.SLOSeconds != 0.08 {
		t.Fatalf("observation %+v, want 3 served samples under a 0.08 s SLO", o)
	}
	if o2 := g.Observe()[0]; o2.Samples != 0 || o2.Served != 3 {
		t.Fatalf("second observation %+v, want a drained window and the same counters", o2)
	}
	if got := g.Ladder(""); len(got) != 2 || g.Ladder("acme") != nil {
		t.Fatal("Ladder must answer for DefaultTenant only")
	}
}
