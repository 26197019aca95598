package serving

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"ccperf/internal/stats"
	"ccperf/internal/telemetry"
	"ccperf/internal/workload"
)

// Arrival is one request of an open-loop replay: when it is due, counted
// from the start of the replay, and the tenant it is sent as ("" is
// DefaultTenant).
type Arrival struct {
	At     time.Duration
	Tenant string
}

// TraceArrivals expands a trace's per-window counts into one tenant's
// arrivals (workload.ArrivalTimes), the whole trace compressed into d.
func TraceArrivals(tr *workload.Trace, d time.Duration, seed int64) ([]Arrival, error) {
	if tr == nil || len(tr.Windows) == 0 {
		return nil, fmt.Errorf("serving: replay needs a trace")
	}
	if d <= 0 {
		return nil, fmt.Errorf("serving: replay needs a positive duration")
	}
	return arrivalsAt(workload.ArrivalTimes(tr, d.Seconds()/float64(len(tr.Windows)), seed)), nil
}

// ShapedArrivals places n arrivals of one tenant over d through the
// composed shapes (workload.ShapedArrivals).
func ShapedArrivals(n int64, d time.Duration, shapes []workload.Shape, seed int64) []Arrival {
	return arrivalsAt(workload.ShapedArrivals(n, d.Seconds(), shapes, seed))
}

func arrivalsAt(secs []float64) []Arrival {
	out := make([]Arrival, len(secs))
	for i, s := range secs {
		out[i].At = time.Duration(s * float64(time.Second))
	}
	return out
}

// Target is what RunLoad drives: a gateway of one tenant or N, or a
// router in front of many gateways.
type Target interface {
	// Send submits request i of the replay, arrival a, as a synthetic
	// image drawn from seed and due by deadline (zero = none). wait blocks
	// until the request is answered and names what answered it ("" for a
	// lone gateway).
	Send(ctx context.Context, i int, a Arrival, seed int64, deadline time.Time) (wait func() (Response, string), err error)
}

// Send implements Target through SubmitAs, with an image shaped for the
// tenant's ladder.
func (g *Gateway) Send(ctx context.Context, _ int, a Arrival, seed int64, deadline time.Time) (func() (Response, string), error) {
	t := g.tenant(a.Tenant)
	if t == nil {
		t = g.tenants[0] // a label, or a name SubmitAs refuses
	}
	in := t.Ladder[0].Net.Input
	ch, err := g.SubmitAs(ctx, a.Tenant, SyntheticImage(in.C, in.H, in.W, seed), deadline)
	if err != nil {
		return nil, err
	}
	return func() (Response, string) { return <-ch, "" }, nil
}

// LoadConfig parameterizes RunLoad.
type LoadConfig struct {
	// Seed draws request i's synthetic image from Seed+i.
	Seed int64
	// Deadline is each request's budget from its scheduled send: the
	// request is sent due by then, and an answer after it is late (0 = no
	// client deadline: the target's defaults apply and nothing is late).
	Deadline time.Duration
	// Cooldown keeps the target idle after the last answer, so a control
	// loop can observe recovery (0 = none).
	Cooldown time.Duration
}

// Row is one slice of a replay's ledger: the totals, one tenant, or what
// one server answered. Every request lands in exactly one outcome, so
// Submitted = OK + Late + Rejected + Shed + Expired + Faulted + Other.
type Row struct {
	Name      string `json:"name,omitempty"`
	Submitted int    `json:"submitted"`
	// OK and Late were answered without error, within and past the
	// deadline (LoadConfig.Deadline from the scheduled send).
	OK   int `json:"ok"`
	Late int `json:"late"`
	// Rejected counts quota rejections (ErrQuotaExceeded): a tenant held
	// to its own quota, which is not an error.
	Rejected int `json:"rejected"`
	// Shed, Expired and Faulted count ErrOverloaded (which the router's
	// ErrNoShard wraps), ErrExpired and ErrFaulted; Other counts every
	// other error, ErrStopped included.
	Shed    int `json:"shed"`
	Expired int `json:"expired"`
	Faulted int `json:"faulted"`
	Other   int `json:"other_errors"`

	// Latency percentiles of the answered (OK and Late) requests, timed
	// from the scheduled send: generator lag, queueing, service and
	// delivery all count.
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`

	// MeanAccuracy is the mean accuracy proxy of the variants that
	// answered, MinAccuracy the worst of them; PerVariant counts the
	// answers by ladder index.
	MeanAccuracy float64 `json:"mean_accuracy"`
	MinAccuracy  float64 `json:"min_accuracy"`
	PerVariant   []int   `json:"per_variant"`

	latencies []float64
}

// file counts one request under its outcome. Errors are classified by
// errors.Is, so a wrapped sentinel still lands in its class.
func (r *Row) file(resp Response, late bool, took time.Duration) {
	r.Submitted++
	switch err := resp.Err; {
	case err == nil:
		if late {
			r.Late++
		} else {
			r.OK++
		}
		for len(r.PerVariant) <= resp.Variant {
			r.PerVariant = append(r.PerVariant, 0)
		}
		r.PerVariant[resp.Variant]++
		r.MeanAccuracy += resp.Accuracy // a sum until finish
		if r.OK+r.Late == 1 || resp.Accuracy < r.MinAccuracy {
			r.MinAccuracy = resp.Accuracy
		}
		r.latencies = append(r.latencies, took.Seconds())
	case errors.Is(err, ErrQuotaExceeded):
		r.Rejected++
	case errors.Is(err, ErrOverloaded):
		r.Shed++
	case errors.Is(err, ErrExpired):
		r.Expired++
	case errors.Is(err, ErrFaulted):
		r.Faulted++
	default:
		r.Other++
	}
}

func (r *Row) finish() {
	if n := r.OK + r.Late; n > 0 {
		r.MeanAccuracy /= float64(n)
		p50, p95, p99, max := stats.Summary(r.latencies)
		r.P50MS, r.P95MS, r.P99MS, r.MaxMS = p50*1000, p95*1000, p99*1000, max*1000
	}
}

func (r *Row) balanced() bool {
	return r.Submitted == r.OK+r.Late+r.Rejected+r.Shed+r.Expired+r.Faulted+r.Other
}

// Errors counts the failed submissions: shed, expired, faulted or other.
// Late answers and quota rejections are not errors.
func (r *Row) Errors() int { return r.Shed + r.Expired + r.Faulted + r.Other }

// ErrorRate is Errors as a fraction of the submissions.
func (r *Row) ErrorRate() float64 {
	if r.Submitted == 0 {
		return 0
	}
	return float64(r.Errors()) / float64(r.Submitted)
}

func (r *Row) ledger() string {
	return fmt.Sprintf("%d submitted, %d ok, %d late, %d rejected, %d shed, %d expired, %d faulted, %d other errors",
		r.Submitted, r.OK, r.Late, r.Rejected, r.Shed, r.Expired, r.Faulted, r.Other)
}

// Report is what the client of one replay saw: the totals, one row per
// tenant in name order, and one row per server that answered, named by
// the target's wait functions (none for a lone gateway). PerVariant in
// the totals sums the tenants' rungs by index.
type Report struct {
	Row
	// LagP99MS is the p99 of how late the generator sent requests.
	LagP99MS    float64 `json:"lag_p99_ms"`
	WallSeconds float64 `json:"wall_seconds"`
	// Throughput is answered requests per wall second.
	Throughput float64 `json:"throughput_rps"`
	Tenants    []Row   `json:"tenants"`
	ServedBy   []Row   `json:"served_by,omitempty"`
}

// Tenant returns the named tenant's row (nil when absent).
func (r *Report) Tenant(name string) *Row {
	for i := range r.Tenants {
		if r.Tenants[i].Name == name {
			return &r.Tenants[i]
		}
	}
	return nil
}

// ErrorRate is the worst tenant's error rate (with one tenant, the
// totals'): a mean would let a noisy neighbour hide a starved one. The
// loadtest CLI gates its exit status on it.
func (r *Report) ErrorRate() float64 {
	worst := r.Row.ErrorRate()
	for i := range r.Tenants {
		worst = max(worst, r.Tenants[i].ErrorRate())
	}
	return worst
}

// WorstP99MS is the slowest tenant's p99 (with one tenant, the totals'),
// the latency the loadtest CLI gates on.
func (r *Report) WorstP99MS() float64 {
	worst := r.P99MS
	for i := range r.Tenants {
		worst = max(worst, r.Tenants[i].P99MS)
	}
	return worst
}

// RunLoad replays arrivals open-loop against t: one goroutine sends each
// request at its scheduled offset whether or not earlier ones were
// answered (the arrivals do not slow down when the service does, which is
// what makes overload visible), and each answer is timed from that
// scheduled send. It returns once every request is answered and the
// cooldown has passed; the caller owns the target's lifecycle. It fails
// only when its own ledger does not balance.
func RunLoad(t Target, arrivals []Arrival, cfg LoadConfig) (*Report, error) {
	rep := &Report{}
	tenants, servedBy := map[string]*Row{}, map[string]*Row{}
	row := func(rows map[string]*Row, name string) *Row {
		if rows[name] == nil {
			rows[name] = &Row{Name: name}
		}
		return rows[name]
	}
	var mu sync.Mutex
	file := func(tenant string, by string, resp Response, due time.Time) {
		took := time.Since(due)
		late := resp.Err == nil && cfg.Deadline > 0 && took > cfg.Deadline
		mu.Lock()
		defer mu.Unlock()
		rep.file(resp, late, took)
		row(tenants, tenant).file(resp, late, took)
		if by != "" {
			row(servedBy, by).file(resp, late, took)
		}
	}

	lags := make([]float64, len(arrivals))
	var wg sync.WaitGroup
	ctx, finishReplay := telemetry.DefaultTracer.StartSpan(context.Background(), "loadtest.replay")
	start := time.Now()
	for i, a := range arrivals {
		due := start.Add(a.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lags[i] = time.Since(due).Seconds()
		tenant := a.Tenant
		if tenant == "" {
			tenant = DefaultTenant
		}
		var deadline time.Time
		if cfg.Deadline > 0 {
			deadline = due.Add(cfg.Deadline)
		}
		wait, err := t.Send(ctx, i, a, cfg.Seed+int64(i), deadline)
		if err != nil {
			file(tenant, "", Response{Err: err}, due)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, by := wait()
			file(tenant, by, resp, due)
		}()
	}
	wg.Wait()
	finishReplay(telemetry.L("submitted", len(arrivals)))
	if cfg.Cooldown > 0 {
		time.Sleep(cfg.Cooldown)
	}
	rep.WallSeconds = time.Since(start).Seconds()
	rep.LagP99MS = stats.Percentile(lags, 0.99) * 1000
	if rep.WallSeconds > 0 {
		rep.Throughput = float64(rep.OK+rep.Late) / rep.WallSeconds
	}
	rep.finish()
	rep.Tenants, rep.ServedBy = sortedRows(tenants), sortedRows(servedBy)

	// Every request is filed once in the totals and once in its tenant's
	// row; a change that files one twice, or not at all, fails here.
	sum := 0
	for _, r := range rep.Tenants {
		sum += r.Submitted
	}
	if sum != rep.Submitted || rep.Submitted != len(arrivals) {
		return rep, fmt.Errorf("serving: replay sent %d requests, tenant rows hold %d, totals %d", len(arrivals), sum, rep.Submitted)
	}
	for _, r := range slices.Concat([]Row{rep.Row}, rep.Tenants, rep.ServedBy) {
		if !r.balanced() {
			return rep, fmt.Errorf("serving: replay ledger of %q does not balance: %s", r.Name, r.ledger())
		}
	}
	return rep, nil
}

func sortedRows(rows map[string]*Row) []Row {
	out := make([]Row, 0, len(rows))
	for _, r := range rows {
		r.finish()
		out = append(out, *r)
	}
	slices.SortFunc(out, func(a, b Row) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// String renders the report for the CLI: the totals, then one line per
// tenant when there is more than one.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests : %s\n", r.ledger())
	fmt.Fprintf(&b, "latency  : p50 %.1f ms, p95 %.1f ms, p99 %.1f ms, max %.1f ms from the scheduled send (generator lag p99 %.1f ms)\n",
		r.P50MS, r.P95MS, r.P99MS, r.MaxMS, r.LagP99MS)
	fmt.Fprintf(&b, "rate     : %.0f req/s answered over %.2f s, %.2f%% error rate\n",
		r.Throughput, r.WallSeconds, r.ErrorRate()*100)
	fmt.Fprintf(&b, "accuracy : %.1f%% mean proxy, %.1f%% worst variant served, %v per-variant\n",
		r.MeanAccuracy*100, r.MinAccuracy*100, r.PerVariant)
	if len(r.Tenants) > 1 {
		for _, t := range r.Tenants {
			fmt.Fprintf(&b, "tenant %-10s: %s\n", t.Name, t.ledger())
			fmt.Fprintf(&b, "  p50 %.1f ms, p99 %.1f ms, %.2f%% errors; %.1f%% mean accuracy, %v per-variant\n",
				t.P50MS, t.P99MS, t.ErrorRate()*100, t.MeanAccuracy*100, t.PerVariant)
		}
	}
	return b.String()
}
