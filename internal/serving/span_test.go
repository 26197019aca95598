package serving

import (
	"context"
	"testing"
	"time"

	"ccperf/internal/telemetry"
)

// spanByName returns the first recorded span with the given name.
func spanByName(spans []telemetry.SpanRecord, name string) *telemetry.SpanRecord {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
	}
	return nil
}

// TestRequestBatchSpanLinkage asserts the request→batch→forward span chain:
// serving.batch must parent under the serving.request span of the batch's
// first live request (it used to start from context.Background(), making
// linkage impossible), and serving.forward under the batch.
func TestRequestBatchSpanLinkage(t *testing.T) {
	tracer := telemetry.NewTracer(256)
	g := testGateway(t, Config{Replicas: 1, Tracer: tracer})
	g.Start()
	resp := g.Infer(context.Background(), testImage(1), time.Time{})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	g.Stop()

	spans := tracer.Spans()
	req := spanByName(spans, "serving.request")
	batch := spanByName(spans, "serving.batch")
	fwd := spanByName(spans, "serving.forward")
	if req == nil || batch == nil || fwd == nil {
		t.Fatalf("missing spans: request=%v batch=%v forward=%v", req, batch, fwd)
	}
	if req.ID == 0 {
		t.Fatal("request span has no id")
	}
	if batch.Parent != req.ID {
		t.Fatalf("serving.batch parent = %d, want the serving.request span %d", batch.Parent, req.ID)
	}
	if fwd.Parent != batch.ID {
		t.Fatalf("serving.forward parent = %d, want the serving.batch span %d", fwd.Parent, batch.ID)
	}
	var outcome string
	for _, l := range req.Labels {
		if l.Key == "outcome" {
			outcome = l.Value
		}
	}
	if outcome != "ok" {
		t.Fatalf("request span outcome = %q, want ok (labels %v)", outcome, req.Labels)
	}
}

// TestSubmitSpanCarriesCallerParent: a caller that already holds a span
// (e.g. the HTTP handler or loadtest.replay) must become the parent of the
// serving.request span.
func TestSubmitSpanCarriesCallerParent(t *testing.T) {
	tracer := telemetry.NewTracer(256)
	g := testGateway(t, Config{Replicas: 1, Tracer: tracer})
	g.Start()
	ctx, finish := tracer.StartSpan(context.Background(), "test.root")
	resp := g.Infer(ctx, testImage(1), time.Time{})
	finish()
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	g.Stop()

	spans := tracer.Spans()
	root := spanByName(spans, "test.root")
	req := spanByName(spans, "serving.request")
	if root == nil || req == nil {
		t.Fatalf("missing spans: root=%v request=%v", root, req)
	}
	if req.Parent != root.ID {
		t.Fatalf("serving.request parent = %d, want caller span %d", req.Parent, root.ID)
	}
}

// TestSetVariantSpanLinkage: an external controller's decision span must
// parent the serving.set_variant span it causes.
func TestSetVariantSpanLinkage(t *testing.T) {
	tracer := telemetry.NewTracer(64)
	g := testGateway(t, Config{Tracer: tracer, ExternalControl: true})
	ctx, finish := tracer.StartSpan(context.Background(), "test.decision")
	if got, err := g.SetVariant(ctx, DefaultTenant, 1); err != nil || got != 1 {
		t.Fatalf("SetVariant = %d", got)
	}
	finish()

	spans := tracer.Spans()
	dec := spanByName(spans, "test.decision")
	sv := spanByName(spans, "serving.set_variant")
	if dec == nil || sv == nil {
		t.Fatalf("missing spans: decision=%v set_variant=%v", dec, sv)
	}
	if sv.Parent != dec.ID {
		t.Fatalf("serving.set_variant parent = %d, want decision span %d", sv.Parent, dec.ID)
	}
}

// TestStageStats: after traffic, all three pipeline stages must have
// observations and plausible orderings (p50 ≤ p99 ≤ max).
func TestStageStats(t *testing.T) {
	g := testGateway(t, Config{Replicas: 1})
	g.Start()
	for i := 0; i < 8; i++ {
		if resp := g.Infer(context.Background(), testImage(int64(i)), time.Time{}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	g.Stop()
	st := g.StageStats()
	for name, s := range map[string]StageSummary{
		"queue_wait":     st.QueueWait,
		"batch_assembly": st.BatchAssembly,
		"nn_forward":     st.NNForward,
	} {
		if s.Count == 0 {
			t.Errorf("stage %s has no observations", name)
		}
		if s.P50MS > s.P99MS+1e-9 || s.P99MS > s.MaxMS+1e-9 {
			t.Errorf("stage %s quantiles out of order: %+v", name, s)
		}
	}
	if st.NNForward.MeanMS <= 0 {
		t.Errorf("nn_forward mean = %v, want > 0", st.NNForward.MeanMS)
	}
}

// TestStageStatsByTenant: Submit lands in the default tenant's stage
// histograms; SubmitAs keys a separate per-tenant set, and the aggregate
// StageStats sees both.
func TestStageStatsByTenant(t *testing.T) {
	g := testGateway(t, Config{Replicas: 1})
	g.Start()
	for i := 0; i < 4; i++ {
		if resp := g.Infer(context.Background(), testImage(int64(i)), time.Time{}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	ch, err := g.SubmitAs(context.Background(), "acme", testImage(99), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if resp := <-ch; resp.Err != nil {
		t.Fatal(resp.Err)
	}
	g.Stop()

	byTenant := g.StageStatsByTenant()
	def, ok := byTenant[DefaultTenant]
	if !ok || def.QueueWait.Count != 4 {
		t.Fatalf("default tenant stages: ok=%v %+v", ok, def)
	}
	acme, ok := byTenant["acme"]
	if !ok || acme.QueueWait.Count != 1 || acme.NNForward.Count == 0 {
		t.Fatalf("acme stages: ok=%v %+v", ok, acme)
	}
	// The unkeyed aggregate spans every tenant.
	if agg := g.StageStats(); agg.QueueWait.Count != 5 {
		t.Fatalf("aggregate queue count = %d, want 5", agg.QueueWait.Count)
	}
}
