package serving

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ccperf/internal/telemetry"
)

// MaxLatencyMS bounds every latency a caller may ask for, in
// milliseconds: a tenant spec's slo_ms and deadline_ms, and /infer's
// deadline_ms. One day sits far outside any real objective and keeps
// every derived time.Duration (nanoseconds in an int64) from overflowing.
const MaxLatencyMS = 86_400_000

// Tenant is one model the gateway hosts: its own pruning ladder, latency
// objective, admission quota, share of the replicas and cost cap. A
// gateway without Config.Tenants hosts one, DefaultTenant, built from
// Config.Ladder, SLO, Deadline and QueueCap, with no quota.
type Tenant struct {
	// Name identifies the tenant (required, unique within a gateway).
	Name string
	// Ladder is the tenant's variant ladder, least pruned first
	// (required). Rungs are never shared across tenants.
	Ladder []Variant
	// SLO is the p99 latency objective the controller defends and on-time
	// counting uses (default 50ms).
	SLO time.Duration
	// Deadline is applied at admission when the caller supplies none
	// (0 = no deadline).
	Deadline time.Duration
	// QueueCap bounds the tenant's backlog (default 64); overflow is shed
	// with ErrOverloaded.
	QueueCap int
	// Weight is the tenant's deficit-round-robin share of replica time
	// (default 1): each scheduling round offers it Weight×MaxBatch
	// requests.
	Weight float64
	// QPS is the token-bucket admission quota in requests/second (0 =
	// none) and Burst the bucket's depth (default max(1, QPS)). Requests
	// past it fail with ErrQuotaExceeded before they touch shared capacity.
	QPS, Burst float64
	// MaxCostPerHour caps the tenant's attributed share of the fleet's
	// burn rate (0 = uncapped); the autoscaler enforces it.
	MaxCostPerHour float64
}

// withDefaults validates the tenant and fills its zero fields.
func (t Tenant) withDefaults() (Tenant, error) {
	if t.Name == "" {
		return t, fmt.Errorf("serving: tenant needs a name")
	}
	if len(t.Ladder) == 0 {
		return t, fmt.Errorf("serving: tenant %s needs a non-empty Ladder", t.Name)
	}
	for i, v := range t.Ladder {
		if v.Net == nil {
			return t, fmt.Errorf("serving: tenant %s: ladder variant %d has nil net", t.Name, i)
		}
	}
	if t.SLO <= 0 {
		t.SLO = 50 * time.Millisecond
	}
	if t.QueueCap <= 0 {
		t.QueueCap = 64
	}
	if t.Weight <= 0 {
		t.Weight = 1
	}
	if t.Burst < 1 {
		t.Burst = max(1, t.QPS)
	}
	return t, nil
}

// tenantState is one tenant's runtime: its rung, quota bucket, backlog,
// DRR deficit, latency window and instruments.
type tenantState struct {
	Tenant
	idx     int     // position in Gateway.tenants (scheduler order)
	quantum float64 // Weight×MaxBatch
	variant atomic.Int64
	bucket  *bucket // nil without a quota
	window  Window
	stages  *stageSet
	healthy int // consecutive healthy intervals (controller goroutine only)

	// backlog and deficit are guarded by Gateway.qMu.
	backlog fifo
	deficit float64

	m tenantMetrics
}

// pair counts one event twice: in the gateway's serving.<metric>
// aggregate and in the tenant's serving.<metric>.<tenant>.
type pair struct{ all, own *telemetry.Counter }

func (p pair) Add(n int64) { p.all.Add(n); p.own.Add(n) }
func (p pair) Inc()        { p.Add(1) }

// tenantMetrics holds one tenant's resolved instruments.
type tenantMetrics struct {
	admitted, shed, expired, served pair
	faulted, retries                pair
	degrades, restores              pair
	submitted, rejected, onTime     *telemetry.Counter
	queueDepth, variant             *telemetry.Gauge
	total                           *telemetry.Histogram
}

func (g *Gateway) newTenantMetrics(name string) tenantMetrics {
	reg := g.cfg.Registry
	own := func(metric string) *telemetry.Counter { return reg.Counter(metric + "." + name) }
	both := func(all *telemetry.Counter, metric string) pair { return pair{all, own(metric)} }
	return tenantMetrics{
		admitted:   both(g.m.admitted, "serving.admitted_total"),
		shed:       both(g.m.shed, "serving.shed_total"),
		expired:    both(g.m.expired, "serving.expired_total"),
		served:     both(g.m.served, "serving.served_total"),
		faulted:    both(g.m.faulted, "serving.faulted_total"),
		retries:    both(g.m.retries, "serving.retries_total"),
		degrades:   both(g.m.degrades, "serving.degrade_total"),
		restores:   both(g.m.restores, "serving.restore_total"),
		submitted:  own("serving.submitted_total"),
		rejected:   own("serving.rejected_total"),
		onTime:     own("serving.on_time_total"),
		queueDepth: reg.Gauge("serving.queue_depth." + name),
		variant:    reg.Gauge("serving.variant." + name),
		total:      reg.Histogram("serving.request_seconds."+name, nil),
	}
}

// tenant resolves a name ("" is DefaultTenant); nil when not hosted.
func (g *Gateway) tenant(name string) *tenantState {
	if name == "" {
		name = DefaultTenant
	}
	return g.byName[name]
}

// fifo is a tenant's backlog: q[head:] are queued. Its array is reused
// once it empties and compacted before append would grow it, so a steady
// backlog allocates nothing.
type fifo struct {
	q    []*request
	head int
}

func (f *fifo) len() int { return len(f.q) - f.head }

func (f *fifo) push(r *request) {
	if f.head > 0 && len(f.q) == cap(f.q) {
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
	f.q = append(f.q, r)
}

func (f *fifo) pop() *request {
	r := f.q[f.head]
	f.q[f.head] = nil
	if f.head++; f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return r
}

// pushLocked queues r on t's backlog unless it is full. Callers hold qMu.
func (g *Gateway) pushLocked(t *tenantState, r *request) bool {
	if t.backlog.len() >= t.QueueCap {
		return false
	}
	t.backlog.push(r)
	g.queued++
	t.m.queueDepth.Set(float64(t.backlog.len()))
	g.m.queueDepth.Set(float64(g.queued))
	return true
}

// popLocked moves n requests off t's backlog onto dst. If anything is
// still queued anywhere, it nudges another sleeping replica (the wakeup
// this replica consumed may have been the only one). Callers hold qMu.
func (g *Gateway) popLocked(t *tenantState, dst []*request, n int) []*request {
	for i := 0; i < n; i++ {
		dst = append(dst, t.backlog.pop())
	}
	g.queued -= n
	t.m.queueDepth.Set(float64(t.backlog.len()))
	g.m.queueDepth.Set(float64(g.queued))
	if g.queued > 0 {
		g.wake()
	}
	return dst
}

// wake nudges one sleeping replica (non-blocking; the buffer of one means
// a pending nudge absorbs duplicates).
func (g *Gateway) wake() {
	select {
	case g.arrivals <- struct{}{}:
	default:
	}
}

// takeBatch appends the next single-tenant batch to dst, picked by
// weighted deficit round robin: the scheduler visits the backlogs in
// tenant order from the cursor; a fresh visit earns the tenant its
// quantum of deficit; up to min(MaxBatch, deficit) requests are taken; a
// tenant with deficit left keeps the scheduler (current) until its
// quantum or backlog is spent, then the cursor moves on. An emptied
// backlog forfeits its deficit, so credit never accumulates while idle.
// With one tenant this is FIFO. It returns a nil tenant when every
// backlog is empty.
func (g *Gateway) takeBatch(dst []*request) (*tenantState, []*request) {
	g.qMu.Lock()
	defer g.qMu.Unlock()
	n := len(g.tenants)
	if g.current >= 0 {
		t := g.tenants[g.current]
		if t.backlog.len() > 0 && t.deficit >= 1 {
			return t, g.dequeueLocked(t, dst)
		}
		if t.backlog.len() == 0 {
			t.deficit = 0
		}
		g.cursor = (g.current + 1) % n
		g.current = -1
	}
	for scanned := 0; scanned < n; scanned++ {
		i := (g.cursor + scanned) % n
		t := g.tenants[i]
		if t.backlog.len() == 0 {
			t.deficit = 0
			continue
		}
		t.deficit += t.quantum
		g.current = i
		return t, g.dequeueLocked(t, dst)
	}
	return nil, dst
}

// dequeueLocked takes up to min(MaxBatch, deficit) of t's requests (at
// least one, so a sub-1 quantum cannot stall the queue), charging its
// deficit. Callers hold qMu.
func (g *Gateway) dequeueLocked(t *tenantState, dst []*request) []*request {
	take := min(g.cfg.MaxBatch, t.backlog.len())
	if t.deficit < float64(take) {
		take = max(1, int(t.deficit))
	}
	dst = g.popLocked(t, dst, take)
	t.deficit -= float64(take)
	if t.backlog.len() == 0 {
		t.deficit = 0
		if g.current == t.idx {
			g.cursor = (t.idx + 1) % len(g.tenants)
			g.current = -1
		}
	}
	return dst
}

// takeMore tops batch up from t's backlog, to at most MaxBatch, unless
// another tenant has backlog: then it takes nothing and reports busy, so
// the replica runs the short batch rather than make that tenant wait, and
// passes on the nudge it may have taken from a sleeping replica.
func (g *Gateway) takeMore(t *tenantState, batch []*request) (_ []*request, busy bool) {
	g.qMu.Lock()
	defer g.qMu.Unlock()
	if g.queued > t.backlog.len() {
		g.wake()
		return batch, true
	}
	n := min(g.cfg.MaxBatch-len(batch), t.backlog.len())
	if n <= 0 {
		return batch, false
	}
	t.deficit = max(0, t.deficit-float64(n))
	return g.popLocked(t, batch, n), false
}

// bucket is a classic token bucket: rate tokens/second refill up to
// burst, one token per admission. Time flows in through the caller so
// tests can drive it deterministically.
type bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

// newBucket returns nil for a zero rate: no quota, every request admitted.
func newBucket(rate, burst float64) *bucket {
	if rate <= 0 {
		return nil
	}
	burst = max(1, burst)
	return &bucket{rate: rate, burst: burst, tokens: burst}
}

// allow consumes one token if available at now. A nil bucket always
// allows.
func (b *bucket) allow(now time.Time) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens = min(b.burst, b.tokens+now.Sub(b.last).Seconds()*b.rate)
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// TenantStats is one tenant's row in Stats, /gateway/status and the
// loadtest reports.
type TenantStats struct {
	Name     string  `json:"name"`
	Variant  int     `json:"variant"`
	Degree   string  `json:"degree"`
	Accuracy float64 `json:"accuracy"`
	SLOMS    float64 `json:"slo_ms"`
	QPSQuota float64 `json:"qps_quota"`
	Weight   float64 `json:"weight"`
	Backlog  int     `json:"backlog"`
	QueueCap int     `json:"queue_cap"`

	// Submitted counts every request that knocked: admitted, shed or
	// rejected.
	Submitted int64 `json:"submitted"`
	Admitted  int64 `json:"admitted"`
	// Rejected counts quota rejections (HTTP 429): intentional
	// back-pressure, tallied apart from the error outcomes.
	Rejected int64 `json:"rejected"`
	Shed     int64 `json:"shed"`
	Expired  int64 `json:"expired"`
	Served   int64 `json:"served"`
	Faulted  int64 `json:"faulted"`
	Retries  int64 `json:"retries"`
	// OnTime counts served requests that beat the tenant's SLO.
	OnTime   int64 `json:"on_time"`
	Degrades int64 `json:"degrades"`
	Restores int64 `json:"restores"`
}

// TenantStats snapshots one tenant ("" is DefaultTenant); the zero value
// for a tenant the gateway does not host.
func (g *Gateway) TenantStats(name string) TenantStats {
	t := g.tenant(name)
	if t == nil {
		return TenantStats{}
	}
	g.qMu.Lock()
	backlog := t.backlog.len()
	g.qMu.Unlock()
	vi := int(t.variant.Load())
	v := t.Ladder[vi]
	return TenantStats{
		Name:      t.Name,
		Variant:   vi,
		Degree:    v.Degree.Label(),
		Accuracy:  v.Accuracy,
		SLOMS:     float64(t.SLO) / float64(time.Millisecond),
		QPSQuota:  t.QPS,
		Weight:    t.Weight,
		Backlog:   backlog,
		QueueCap:  t.QueueCap,
		Submitted: t.m.submitted.Value(),
		Admitted:  t.m.admitted.own.Value(),
		Rejected:  t.m.rejected.Value(),
		Shed:      t.m.shed.own.Value(),
		Expired:   t.m.expired.own.Value(),
		Served:    t.m.served.own.Value(),
		Faulted:   t.m.faulted.own.Value(),
		Retries:   t.m.retries.own.Value(),
		OnTime:    t.m.onTime.Value(),
		Degrades:  t.m.degrades.own.Value(),
		Restores:  t.m.restores.own.Value(),
	}
}
