package serving

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"ccperf/internal/tensor"
)

// InferRequest is the POST /infer body. Either Image (flat CHW data whose
// length matches the tenant model's input volume) or Seed (a synthetic
// deterministic image — handy for curl) must be set.
type InferRequest struct {
	// Tenant names the tenant to submit as (empty = DefaultTenant).
	Tenant string    `json:"tenant,omitempty"`
	Image  []float32 `json:"image,omitempty"`
	Seed   int64     `json:"seed,omitempty"`
	// DeadlineMS overrides the tenant's per-request deadline, in
	// milliseconds from arrival, within [0, MaxLatencyMS] (0 = use the
	// tenant's deadline).
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
}

// InferResponse is the POST /infer reply.
type InferResponse struct {
	Tenant   string  `json:"tenant"`
	ID       int64   `json:"id"`
	Class    int     `json:"class"`
	Variant  int     `json:"variant"`
	Degree   string  `json:"degree"`
	Accuracy float64 `json:"accuracy"`
	QueueMS  float64 `json:"queue_ms"`
	TotalMS  float64 `json:"total_ms"`
	Batch    int     `json:"batch"`
	Attempts int     `json:"attempts"`
}

// Handler exposes the gateway over HTTP:
//
//	POST /infer           run one inference as a tenant (InferRequest → InferResponse)
//	GET  /gateway/status  Stats, with one row per tenant, as JSON
//
// Quota rejection and shedding map to 429 Too Many Requests, an unknown
// tenant to 404 (a missing one, on a gateway without DefaultTenant, to
// 400), an expired deadline to 504 Gateway Timeout, shutdown to 503
// Service Unavailable — so a load balancer in front sees the standard
// signals.
func Handler(g *Gateway) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/infer", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req InferRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
			return
		}
		t := g.tenant(req.Tenant)
		switch {
		case t == nil && req.Tenant == "":
			http.Error(w, "tenant field required", http.StatusBadRequest)
			return
		case t == nil:
			http.Error(w, ErrUnknownTenant.Error()+": "+req.Tenant, http.StatusNotFound)
			return
		case !(req.DeadlineMS >= 0 && req.DeadlineMS <= MaxLatencyMS):
			http.Error(w, fmt.Sprintf("deadline_ms %v outside [0, %v]", req.DeadlineMS, MaxLatencyMS), http.StatusBadRequest)
			return
		}
		shape := t.Ladder[0].Net.Input
		var img *tensor.Tensor
		switch {
		case len(req.Image) > 0:
			if len(req.Image) != shape.Volume() {
				http.Error(w, fmt.Sprintf("image length %d, want %d (%v)", len(req.Image), shape.Volume(), shape), http.StatusBadRequest)
				return
			}
			img = tensor.FromSlice(req.Image, shape.C, shape.H, shape.W)
		default:
			img = SyntheticImage(shape.C, shape.H, shape.W, req.Seed)
		}
		var deadline time.Time
		if req.DeadlineMS > 0 {
			deadline = time.Now().Add(time.Duration(req.DeadlineMS * float64(time.Millisecond)))
		}
		resp := g.InferAs(r.Context(), t.Name, img, deadline)
		if resp.Err != nil {
			http.Error(w, resp.Err.Error(), statusFor(resp.Err))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(InferResponse{
			Tenant: t.Name,
			ID:     resp.ID, Class: resp.Class,
			Variant: resp.Variant, Degree: resp.Degree, Accuracy: resp.Accuracy,
			QueueMS:  float64(resp.Queue) / float64(time.Millisecond),
			TotalMS:  float64(resp.Total) / float64(time.Millisecond),
			Batch:    resp.Batch,
			Attempts: resp.Attempts,
		})
	})
	mux.HandleFunc("/gateway/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(g.Stats())
	})
	return mux
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrQuotaExceeded), errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrUnknownTenant):
		return http.StatusNotFound
	case errors.Is(err, ErrExpired):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrStopped):
		return http.StatusServiceUnavailable
	default:
		// An injected failure that exhausted its retries is a plain
		// server-side error.
		return http.StatusInternalServerError
	}
}

// SyntheticImage builds a deterministic pseudo-random CHW image — the
// stand-in input the HTTP demo path and the load generator feed the model.
func SyntheticImage(c, h, w int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := tensor.New(c, h, w)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}
