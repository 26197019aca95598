package tenant

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ccperf/internal/autoscale"
	"ccperf/internal/serving"
	"ccperf/internal/telemetry"
)

func postInfer(t *testing.T, srv *httptest.Server, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/infer", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestHandlerQuota429Accounting drives the HTTP surface of the quota
// test: a capped tenant's overflow maps to 429 Too Many Requests, and
// the per-tenant /gateway/status row carries the rejection count.
func TestHandlerQuota429Accounting(t *testing.T) {
	g := testGateway(t, []Spec{
		{Name: "capped", QPS: 1, Burst: 1},
		{Name: "open"},
	}, serving.Config{})
	g.Start()
	defer g.Stop()
	srv := httptest.NewServer(serving.Handler(g))
	defer srv.Close()

	var got429 int
	for i := 0; i < 4; i++ {
		resp := postInfer(t, srv, serving.InferRequest{Tenant: "capped", Seed: int64(i)})
		switch resp.StatusCode {
		case http.StatusOK:
			var ir serving.InferResponse
			if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
				t.Fatal(err)
			}
			if ir.Tenant != "capped" || ir.TotalMS <= 0 {
				t.Fatalf("bad infer reply: %+v", ir)
			}
		case http.StatusTooManyRequests:
			got429++
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if got429 == 0 {
		t.Fatal("burst-1 tenant never got a 429 across 4 instant requests")
	}

	resp, err := http.Get(srv.URL + "/gateway/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status serving.Stats
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if len(status.Tenants) != 2 {
		t.Fatalf("status has %d tenant rows, want 2", len(status.Tenants))
	}
	byName := map[string]serving.TenantStats{}
	for _, row := range status.Tenants {
		byName[row.Name] = row
	}
	if byName["capped"].Rejected != int64(got429) {
		t.Fatalf("status row counts %d rejections, HTTP saw %d", byName["capped"].Rejected, got429)
	}
	if byName["open"].Rejected != 0 {
		t.Fatalf("open tenant's row polluted: %+v", byName["open"])
	}
}

func TestHandlerRejectsBadRequests(t *testing.T) {
	g := testGateway(t, []Spec{{Name: "a"}}, serving.Config{})
	g.Start()
	defer g.Stop()
	srv := httptest.NewServer(serving.Handler(g))
	defer srv.Close()

	resp := postInfer(t, srv, serving.InferRequest{Tenant: "ghost"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postInfer(t, srv, serving.InferRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing tenant status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postInfer(t, srv, serving.InferRequest{Tenant: "a", Image: []float32{1, 2, 3}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad image length status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	r, err := http.Get(srv.URL + "/infer")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /infer status %d, want 405", r.StatusCode)
	}
	r.Body.Close()
}

// TestHandlerStatusIncludesJoint: the scaler's placement status over a
// tenant gateway is served at /autoscale/status, one row per tenant.
func TestHandlerStatusIncludesJoint(t *testing.T) {
	g := testGateway(t, []Spec{{Name: "a", Ladder: []float64{0, 0.9}}}, serving.Config{})
	sc, err := autoscale.New(g, autoscale.Config{
		Policy:   autoscale.Policy{Limits: autoscale.Limits{MinReplicas: 1, MaxReplicas: 4, PricePerReplicaHour: 1}},
		Profiles: map[string][]autoscale.Profile{"a": profilesFromLadder(g.Ladder("a"), nil)},
		Interval: time.Hour, // ticked manually, never by the clock
		Registry: telemetry.NewRegistry(),
		Tracer:   telemetry.NewTracer(64),
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	defer g.Stop()
	sc.Tick()

	srv := httptest.NewServer(autoscale.Handler(sc))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/autoscale/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status autoscale.Status
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Ticks != 1 {
		t.Fatalf("joint status unticked: %+v", status)
	}
	if len(status.Tenants) != 1 || status.Tenants[0].Name != "a" {
		t.Fatalf("joint tenant rows: %+v", status.Tenants)
	}
}
