package tenant

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ccperf/internal/fault"
	"ccperf/internal/serving"
	"ccperf/internal/telemetry"
	"ccperf/internal/tensor"
)

// Errors specific to multi-tenant admission. Queue overflow, expiry,
// shutdown and fault outcomes reuse the serving package's errors so
// callers handle one vocabulary.
var (
	// ErrQuotaExceeded means the tenant's token-bucket admission quota was
	// empty — the request is rejected at the tenant's own front door (HTTP
	// 429) without touching shared capacity.
	ErrQuotaExceeded = errors.New("tenant: admission quota exceeded")
	// ErrUnknownTenant means the request named a tenant the registry does
	// not hold.
	ErrUnknownTenant = errors.New("tenant: unknown tenant")
)

// Config parameterizes a Mux. Zero fields take the documented defaults.
type Config struct {
	// Specs declare the tenants (required, ≥ 1, unique names).
	Specs []Spec
	// BuildLadder turns one tenant's prune ratios into its variant ladder
	// (default serving.DemoLadder). Called once per tenant at New.
	BuildLadder func(ratios []float64) ([]serving.Variant, error)
	// Replicas is the shared batcher count (default 2).
	Replicas int
	// MaxBatch caps a coalesced batch (default 8). Batches are always
	// single-tenant: each tenant runs its own nets.
	MaxBatch int
	// BatchTimeout is the longest an under-full batch waits for more
	// same-tenant requests when the fleet is otherwise idle (default 2ms).
	BatchTimeout time.Duration
	// QuantumRequests is the deficit-round-robin quantum in requests per
	// unit weight (default MaxBatch): tenant i earns Weight·Quantum
	// requests of replica time per scheduling round.
	QuantumRequests int
	// WarmupDelay delays a scaled-out replica's first pull (default 0).
	WarmupDelay time.Duration
	// Injector, when non-nil, drives chaos testing exactly as in
	// serving.Config: crashed replicas fail whole batches, per-request
	// injections go through the retry path.
	Injector fault.Injector
	// MaxRetries and RetryBackoff mirror serving.Config (defaults 2, 2ms).
	MaxRetries   int
	RetryBackoff time.Duration
	// Registry and Tracer receive telemetry (nil = package defaults).
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer
}

func (c *Config) defaults() error {
	if len(c.Specs) == 0 {
		return fmt.Errorf("tenant: config needs at least one spec")
	}
	if c.BuildLadder == nil {
		c.BuildLadder = serving.DemoLadder
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.BatchTimeout <= 0 {
		c.BatchTimeout = 2 * time.Millisecond
	}
	if c.QuantumRequests <= 0 {
		c.QuantumRequests = c.MaxBatch
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 2 * time.Millisecond
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default
	}
	if c.Tracer == nil {
		c.Tracer = telemetry.DefaultTracer
	}
	return nil
}

// request is one queued submission, tagged with its tenant.
type request struct {
	id       int64
	tenant   *tenantState
	img      *tensor.Tensor
	deadline time.Time
	enqueued time.Time
	attempts int
	ctx      context.Context
	finish   telemetry.FinishFunc
	done     chan serving.Response
}

// respond finishes the request's span exactly once and delivers the
// response.
func (r *request) respond(resp serving.Response) {
	if r.finish != nil {
		r.finish(
			telemetry.L("tenant", r.tenant.spec.Name),
			telemetry.L("outcome", outcomeLabel(resp.Err)),
			telemetry.L("attempts", resp.Attempts),
		)
		r.finish = nil
	}
	r.done <- resp
}

func outcomeLabel(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, serving.ErrExpired):
		return "expired"
	case errors.Is(err, serving.ErrFaulted):
		return "faulted"
	case errors.Is(err, serving.ErrOverloaded):
		return "shed"
	case errors.Is(err, serving.ErrStopped):
		return "stopped"
	case errors.Is(err, ErrQuotaExceeded):
		return "rejected"
	default:
		return "error"
	}
}

// tenantMetrics holds one tenant's resolved instruments (names suffixed
// with the tenant, e.g. tenant.admitted_total.acme).
type tenantMetrics struct {
	submitted, admitted, rejected *telemetry.Counter
	shed, expired, served         *telemetry.Counter
	faulted, retries, onTime      *telemetry.Counter
	degrades, restores            *telemetry.Counter
	backlogGauge, variantGauge    *telemetry.Gauge
	queueWait, total              *telemetry.Histogram
	assembly, forward             *telemetry.Histogram
}

// tenantState is one tenant's runtime: its ladder, quota bucket, private
// backlog, DRR deficit, latency window and counters.
type tenantState struct {
	idx     int // registry position (scheduler order)
	spec    Spec
	ladder  []serving.Variant
	variant atomic.Int64
	bucket  *bucket

	// backlog and deficit are guarded by Mux.qMu.
	backlog []*request
	deficit float64
	quantum float64

	// window collects completed-request latencies (seconds) since the
	// last Observe, for the scaler's per-tenant p99.
	window serving.Window

	m tenantMetrics
}

// muxReplica is one shared batcher's control block (stable id, private
// stop channel; see serving.replicaHandle).
type muxReplica struct {
	id      int
	stop    chan struct{}
	retired bool // guarded by Mux.scaleMu
}

// Mux is the multi-tenant gateway: per-tenant admission (quota bucket +
// bounded private backlog) in front of a shared replica fleet whose
// batchers pick single-tenant batches by weighted deficit round-robin.
// Construct with New, then Start; SubmitAs from any goroutine; Stop for a
// graceful drain. Observe, ScaleTo and SetVariant expose the two control
// axes to autoscale.Scaler.
type Mux struct {
	cfg     Config
	reg     *Registry
	tenants []*tenantState
	startAt time.Time

	nextID   atomic.Int64
	stopping atomic.Bool
	started  atomic.Bool
	stopCh   chan struct{}

	submits sync.WaitGroup
	workers sync.WaitGroup

	// qMu guards every tenant backlog, the DRR cursor/deficits, and
	// current (the tenant mid-quantum). arrivals is a buffered(1) wakeup:
	// Submit nudges it, takeBatch re-nudges while backlog remains so every
	// sleeping replica eventually drains (cascade wakeups).
	qMu      sync.Mutex
	cursor   int
	current  int // tenant index still owed service this round, or -1
	arrivals chan struct{}

	// scaleMu guards the replica set and the replica-seconds integral,
	// with the same Stop-barrier discipline as serving.Gateway.
	scaleMu    sync.Mutex
	replicas   []*muxReplica
	replicaSeq int
	repSeconds float64
	repMark    time.Time

	// execMu guards the busy-time capacity accumulators.
	execMu      sync.Mutex
	execSeconds float64
	execServed  int64

	batches   *telemetry.Counter
	batchSize *telemetry.Histogram
	replicasG *telemetry.Gauge
}

// New validates the config, builds every tenant's ladder, and returns a
// mux (not yet serving).
func New(cfg Config) (*Mux, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	reg, err := NewRegistry(cfg.Specs)
	if err != nil {
		return nil, err
	}
	m := &Mux{
		cfg:      cfg,
		reg:      reg,
		stopCh:   make(chan struct{}),
		arrivals: make(chan struct{}, 1),
		current:  -1,
	}
	tr := cfg.Registry
	for i, spec := range reg.Specs() {
		ladder, err := cfg.BuildLadder(spec.Ladder)
		if err != nil {
			return nil, fmt.Errorf("tenant %s: building ladder: %w", spec.Name, err)
		}
		if len(ladder) == 0 {
			return nil, fmt.Errorf("tenant %s: empty ladder", spec.Name)
		}
		t := &tenantState{
			idx:     i,
			spec:    spec,
			ladder:  ladder,
			bucket:  newBucket(spec.QPS, spec.Burst),
			quantum: spec.Weight * float64(cfg.QuantumRequests),
		}
		n := spec.Name
		t.m = tenantMetrics{
			submitted:    tr.Counter("tenant.submitted_total." + n),
			admitted:     tr.Counter("tenant.admitted_total." + n),
			rejected:     tr.Counter("tenant.rejected_total." + n),
			shed:         tr.Counter("tenant.shed_total." + n),
			expired:      tr.Counter("tenant.expired_total." + n),
			served:       tr.Counter("tenant.served_total." + n),
			faulted:      tr.Counter("tenant.faulted_total." + n),
			retries:      tr.Counter("tenant.retries_total." + n),
			onTime:       tr.Counter("tenant.on_time_total." + n),
			degrades:     tr.Counter("tenant.degrade_total." + n),
			restores:     tr.Counter("tenant.restore_total." + n),
			backlogGauge: tr.Gauge("tenant.backlog." + n),
			variantGauge: tr.Gauge("tenant.variant." + n),
			queueWait:    tr.Histogram("tenant.queue_seconds."+n, nil),
			total:        tr.Histogram("tenant.request_seconds."+n, nil),
			assembly:     tr.Histogram("tenant.stage_assembly_seconds."+n, nil),
			forward:      tr.Histogram("tenant.stage_forward_seconds."+n, nil),
		}
		m.tenants = append(m.tenants, t)
	}
	m.batches = tr.Counter("tenant.batches_total")
	m.batchSize = tr.Histogram("tenant.batch_size", telemetry.LinearBuckets(1, 1, 64))
	m.replicasG = tr.Gauge("tenant.replicas")
	for i := 0; i < cfg.Replicas; i++ {
		m.replicas = append(m.replicas, m.newReplicaLocked())
	}
	m.replicasG.Set(float64(len(m.replicas)))
	return m, nil
}

// Registry returns the mux's validated tenant registry.
func (m *Mux) Registry() *Registry { return m.reg }

// Config returns the resolved (defaulted) configuration.
func (m *Mux) Config() Config { return m.cfg }

func (m *Mux) newReplicaLocked() *muxReplica {
	id := m.replicaSeq
	m.replicaSeq++
	return &muxReplica{id: id, stop: make(chan struct{})}
}

// Start launches the shared batchers. The mux has no built-in controller:
// the joint Scaler (or the caller) owns both ladders and the fleet size.
func (m *Mux) Start() {
	if !m.started.CompareAndSwap(false, true) {
		return
	}
	m.scaleMu.Lock()
	m.startAt = time.Now()
	m.repMark = m.startAt
	for _, h := range m.replicas {
		m.workers.Add(1)
		go m.replica(h, 0)
	}
	m.scaleMu.Unlock()
}

// Stop drains and shuts down: in-flight submissions land, queued requests
// are served, goroutines exit. Safe to call once; SubmitAs after (or
// during) Stop returns serving.ErrStopped.
func (m *Mux) Stop() {
	if !m.stopping.CompareAndSwap(false, true) {
		return
	}
	m.submits.Wait()
	m.scaleMu.Lock()
	m.accrueLocked(time.Now())
	m.repMark = time.Time{}
	m.scaleMu.Unlock()
	close(m.stopCh)
	m.workers.Wait()
	// Anything still backlogged (Start never called, or a sleeping retry
	// re-enqueued after the drain) is answered ErrStopped.
	m.qMu.Lock()
	for _, t := range m.tenants {
		for _, r := range t.backlog {
			r.respond(serving.Response{ID: r.id, Err: serving.ErrStopped, Attempts: r.attempts})
		}
		t.backlog = nil
	}
	m.qMu.Unlock()
}

// accrueLocked folds elapsed replica-time into the replica-seconds
// integral. Callers hold scaleMu.
func (m *Mux) accrueLocked(now time.Time) {
	if !m.repMark.IsZero() {
		m.repSeconds += float64(len(m.replicas)) * now.Sub(m.repMark).Seconds()
	}
	m.repMark = now
}

// ReplicaSeconds returns the fleet-time integral ∑ replicas·dt since
// Start, in seconds.
func (m *Mux) ReplicaSeconds() float64 {
	m.scaleMu.Lock()
	defer m.scaleMu.Unlock()
	s := m.repSeconds
	if !m.repMark.IsZero() {
		s += float64(len(m.replicas)) * time.Since(m.repMark).Seconds()
	}
	return s
}

// ReplicaCount returns the current number of live replicas.
func (m *Mux) ReplicaCount() int {
	m.scaleMu.Lock()
	defer m.scaleMu.Unlock()
	return len(m.replicas)
}

// ExecStats reports cumulative served requests and batch busy-time across
// all replicas — the scaler's capacity estimator input.
func (m *Mux) ExecStats() (served int64, execSeconds float64) {
	m.execMu.Lock()
	defer m.execMu.Unlock()
	return m.execServed, m.execSeconds
}

// ScaleTo grows or shrinks the shared fleet to n (clamped to ≥ 1),
// returning the resulting count — the same contract as
// serving.Gateway.ScaleTo.
func (m *Mux) ScaleTo(n int) (int, error) {
	if n < 1 {
		n = 1
	}
	m.scaleMu.Lock()
	defer m.scaleMu.Unlock()
	if m.stopping.Load() {
		return len(m.replicas), serving.ErrStopped
	}
	m.accrueLocked(time.Now())
	cur := len(m.replicas)
	switch {
	case n > cur:
		for i := cur; i < n; i++ {
			h := m.newReplicaLocked()
			m.replicas = append(m.replicas, h)
			if m.started.Load() {
				m.workers.Add(1)
				go m.replica(h, m.cfg.WarmupDelay)
			}
		}
	case n < cur:
		for _, h := range m.replicas[n:] {
			if !h.retired {
				h.retired = true
				close(h.stop)
			}
		}
		m.replicas = m.replicas[:n]
	}
	m.replicasG.Set(float64(len(m.replicas)))
	return len(m.replicas), nil
}

// tenant resolves a name (exported lookups go through Registry).
func (m *Mux) tenant(name string) *tenantState {
	i := m.reg.index(name)
	if i < 0 {
		return nil
	}
	return m.tenants[i]
}

// SubmitAs enqueues one image for inference on behalf of the named tenant
// and returns a channel that will receive exactly one Response. A zero
// deadline applies the tenant's spec deadline. Quota rejection
// (ErrQuotaExceeded), backlog shedding (serving.ErrOverloaded) and
// shutdown (serving.ErrStopped) are reported immediately.
func (m *Mux) SubmitAs(ctx context.Context, name string, img *tensor.Tensor, deadline time.Time) (<-chan serving.Response, error) {
	t := m.tenant(name)
	if t == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	if img == nil {
		return nil, fmt.Errorf("tenant: nil image")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	m.submits.Add(1)
	defer m.submits.Done()
	if m.stopping.Load() {
		return nil, serving.ErrStopped
	}
	now := time.Now()
	t.m.submitted.Inc()
	if !t.bucket.allow(now) {
		t.m.rejected.Inc()
		return nil, fmt.Errorf("%w: tenant %s over %g req/s", ErrQuotaExceeded, name, t.spec.QPS)
	}
	if deadline.IsZero() {
		if d := t.spec.Deadline(); d > 0 {
			deadline = now.Add(d)
		}
	}
	sctx, finish := m.cfg.Tracer.StartSpan(ctx, "tenant.request")
	r := &request{
		id:       m.nextID.Add(1),
		tenant:   t,
		img:      img,
		deadline: deadline,
		enqueued: now,
		attempts: 1,
		ctx:      sctx,
		finish:   finish,
		done:     make(chan serving.Response, 1),
	}
	m.qMu.Lock()
	if len(t.backlog) >= t.spec.QueueCap {
		m.qMu.Unlock()
		t.m.shed.Inc()
		finish(telemetry.L("tenant", name), telemetry.L("outcome", "shed"), telemetry.L("attempts", 0))
		return nil, serving.ErrOverloaded
	}
	t.backlog = append(t.backlog, r)
	t.m.backlogGauge.Set(float64(len(t.backlog)))
	m.qMu.Unlock()
	t.m.admitted.Inc()
	m.wake()
	return r.done, nil
}

// InferAs is the synchronous form of SubmitAs.
func (m *Mux) InferAs(ctx context.Context, name string, img *tensor.Tensor, deadline time.Time) serving.Response {
	ch, err := m.SubmitAs(ctx, name, img, deadline)
	if err != nil {
		return serving.Response{Err: err}
	}
	select {
	case resp := <-ch:
		return resp
	case <-ctx.Done():
		return serving.Response{Err: ctx.Err()}
	}
}

// wake nudges one sleeping replica (non-blocking; the buffer of one means
// a pending nudge absorbs duplicates).
func (m *Mux) wake() {
	select {
	case m.arrivals <- struct{}{}:
	default:
	}
}

// takeBatch picks the next single-tenant batch by weighted deficit
// round-robin: the scheduler visits tenant backlogs in registry order
// from the cursor; a fresh visit earns the tenant its quantum
// (Weight·QuantumRequests) of deficit; up to min(MaxBatch, deficit)
// requests are taken; a tenant with deficit left keeps the scheduler
// (current) until its quantum or backlog is spent, then the cursor moves
// on. An emptied backlog forfeits its deficit — credit never accumulates
// while idle. Returns (nil, nil) when every backlog is empty.
func (m *Mux) takeBatch() (*tenantState, []*request) {
	m.qMu.Lock()
	defer m.qMu.Unlock()
	n := len(m.tenants)
	if m.current >= 0 {
		t := m.tenants[m.current]
		if len(t.backlog) > 0 && t.deficit >= 1 {
			return t, m.dequeueLocked(t)
		}
		if len(t.backlog) == 0 {
			t.deficit = 0
		}
		m.cursor = (m.current + 1) % n
		m.current = -1
	}
	for scanned := 0; scanned < n; scanned++ {
		i := (m.cursor + scanned) % n
		t := m.tenants[i]
		if len(t.backlog) == 0 {
			t.deficit = 0
			continue
		}
		t.deficit += t.quantum
		m.current = i
		return t, m.dequeueLocked(t)
	}
	return nil, nil
}

// dequeueLocked takes up to min(MaxBatch, deficit) requests off t's
// backlog, charging its deficit. Callers hold qMu.
func (m *Mux) dequeueLocked(t *tenantState) []*request {
	take := m.cfg.MaxBatch
	if d := int(t.deficit); d < take {
		take = d
	}
	if take < 1 {
		take = 1 // a sub-1 quantum must not stall the queue
	}
	if l := len(t.backlog); l < take {
		take = l
	}
	batch := make([]*request, take)
	copy(batch, t.backlog[:take])
	rest := copy(t.backlog, t.backlog[take:])
	for j := rest; j < len(t.backlog); j++ {
		t.backlog[j] = nil
	}
	t.backlog = t.backlog[:rest]
	t.deficit -= float64(take)
	if len(t.backlog) == 0 {
		t.deficit = 0
		if m.current == t.idx {
			m.cursor = (t.idx + 1) % len(m.tenants)
			m.current = -1
		}
	}
	t.m.backlogGauge.Set(float64(len(t.backlog)))
	// Cascade wakeups: if anything remains queued anywhere, make sure
	// another sleeping replica gets a nudge (the buffered(1) channel may
	// have been drained by the replica that is now busy with this batch).
	for _, other := range m.tenants {
		if len(other.backlog) > 0 {
			m.wake()
			break
		}
	}
	return batch
}

// takeMore appends up to limit additional requests from t's backlog only
// (same-tenant coalescing after the batch-timeout wait).
func (m *Mux) takeMore(t *tenantState, limit int) []*request {
	m.qMu.Lock()
	defer m.qMu.Unlock()
	if limit <= 0 || len(t.backlog) == 0 {
		return nil
	}
	take := limit
	if l := len(t.backlog); l < take {
		take = l
	}
	batch := make([]*request, take)
	copy(batch, t.backlog[:take])
	rest := copy(t.backlog, t.backlog[take:])
	for j := rest; j < len(t.backlog); j++ {
		t.backlog[j] = nil
	}
	t.backlog = t.backlog[:rest]
	if t.deficit -= float64(take); t.deficit < 0 {
		t.deficit = 0
	}
	t.m.backlogGauge.Set(float64(len(t.backlog)))
	return batch
}

// idle reports whether every backlog is empty.
func (m *Mux) idle() bool {
	m.qMu.Lock()
	defer m.qMu.Unlock()
	for _, t := range m.tenants {
		if len(t.backlog) > 0 {
			return false
		}
	}
	return true
}

// replica is one shared batcher: sleep until an arrival nudge, take the
// next DRR batch, optionally coalesce more same-tenant requests when the
// fleet is otherwise idle, execute, repeat. A close of h.stop (scale-in)
// exits after the in-flight batch; a close of m.stopCh (shutdown) drains
// the backlogs first.
func (m *Mux) replica(h *muxReplica, warmup time.Duration) {
	defer m.workers.Done()
	if warmup > 0 {
		select {
		case <-time.After(warmup):
		case <-h.stop:
			return
		case <-m.stopCh:
			m.drain(h)
			return
		}
	}
	for {
		t, batch := m.takeBatch()
		if t == nil {
			select {
			case <-m.arrivals:
				continue
			case <-h.stop:
				return
			case <-m.stopCh:
				m.drain(h)
				return
			}
		}
		pulledAt := time.Now()
		if len(batch) < m.cfg.MaxBatch && m.idle() {
			// The fleet has nothing else to do: wait one batch timeout for
			// more of this tenant's requests to coalesce.
			timer := time.NewTimer(m.cfg.BatchTimeout)
			select {
			case <-timer.C:
			case <-h.stop:
			case <-m.stopCh:
			}
			timer.Stop()
			batch = append(batch, m.takeMore(t, m.cfg.MaxBatch-len(batch))...)
		}
		m.execute(h, t, batch, pulledAt)
		select {
		case <-h.stop:
			return
		default:
		}
	}
}

// drain serves whatever is still backlogged at shutdown. Multiple
// replicas drain concurrently until every backlog is empty.
func (m *Mux) drain(h *muxReplica) {
	for {
		t, batch := m.takeBatch()
		if t == nil {
			return
		}
		m.execute(h, t, batch, time.Now())
	}
}

// execute runs one single-tenant batch through the tenant's current
// ladder rung: expired requests are answered ErrExpired, fault-injected
// ones go through the retry path, the rest run the variant's forward
// pass. Stage latencies land in both the tenant's keyed histograms and
// the mux aggregates.
func (m *Mux) execute(h *muxReplica, t *tenantState, batch []*request, pulledAt time.Time) {
	if len(batch) == 0 {
		return
	}
	now := time.Now()
	t.m.assembly.Observe(now.Sub(pulledAt).Seconds())
	live := batch[:0]
	for _, r := range batch {
		if !r.deadline.IsZero() && now.After(r.deadline) {
			t.m.expired.Inc()
			age := now.Sub(r.enqueued)
			r.respond(serving.Response{ID: r.id, Err: serving.ErrExpired, Attempts: r.attempts, Queue: age, Total: age})
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	var failed []*request
	if inj := m.cfg.Injector; inj != nil {
		if inj.CrashActive(h.id, now.Sub(m.startAt).Seconds()) {
			failed, live = live, nil
		} else {
			keep := live[:0]
			for _, r := range live {
				if inj.FailRequest(h.id, r.id, r.attempts) {
					failed = append(failed, r)
				} else {
					keep = append(keep, r)
				}
			}
			live = keep
		}
	}
	for _, r := range failed {
		t.m.faulted.Inc()
		m.retryOrFail(r)
	}
	if len(live) == 0 {
		return
	}
	vi := int(t.variant.Load())
	v := &t.ladder[vi]
	imgs := make([]*tensor.Tensor, len(live))
	for i, r := range live {
		imgs[i] = r.img
	}
	parent := live[0].ctx
	if parent == nil {
		parent = context.Background()
	}
	execStart := time.Now()
	bctx, finish := m.cfg.Tracer.StartSpan(parent, "tenant.batch")
	_, finishFwd := m.cfg.Tracer.StartSpan(bctx, "tenant.forward")
	outs := v.Net.ForwardBatch(imgs, 1)
	fwdDone := time.Now()
	finishFwd(telemetry.L("tenant", t.spec.Name))
	t.m.forward.Observe(fwdDone.Sub(execStart).Seconds())
	finish(
		telemetry.L("tenant", t.spec.Name),
		telemetry.L("replica", h.id),
		telemetry.L("batch", len(live)),
		telemetry.L("variant", v.Degree.Label()),
	)
	m.batches.Inc()
	m.batchSize.Observe(float64(len(live)))
	done := time.Now()
	m.execMu.Lock()
	m.execSeconds += done.Sub(execStart).Seconds()
	m.execServed += int64(len(live))
	m.execMu.Unlock()
	slo := t.spec.SLO()
	for i, r := range live {
		total := done.Sub(r.enqueued)
		t.m.served.Inc()
		if slo <= 0 || total <= slo {
			t.m.onTime.Inc()
		}
		t.m.queueWait.Observe(now.Sub(r.enqueued).Seconds())
		t.m.total.Observe(total.Seconds())
		t.window.Add(total.Seconds())
		r.respond(serving.Response{
			ID:       r.id,
			Class:    outs[i].ArgMax(),
			Variant:  vi,
			Degree:   v.Degree.Label(),
			Accuracy: v.Accuracy,
			Queue:    now.Sub(r.enqueued),
			Total:    total,
			Batch:    len(live),
			Attempts: r.attempts,
		})
	}
}

// retryOrFail handles one fault-injected request, mirroring the serving
// gateway: exponential backoff with deterministic jitter, re-enqueue into
// the tenant's own backlog, ErrFaulted when the budget runs out.
func (m *Mux) retryOrFail(r *request) {
	t := r.tenant
	fail := func(err error) {
		age := time.Since(r.enqueued)
		r.respond(serving.Response{ID: r.id, Err: err, Attempts: r.attempts, Queue: age, Total: age})
	}
	if r.attempts > m.cfg.MaxRetries || m.stopping.Load() {
		fail(serving.ErrFaulted)
		return
	}
	backoff := m.cfg.RetryBackoff << uint(r.attempts-1)
	backoff += time.Duration(fault.Frac(uint64(r.id)*0x9e3779b97f4a7c15+uint64(r.attempts)) * float64(backoff))
	if !r.deadline.IsZero() && time.Now().Add(backoff).After(r.deadline) {
		t.m.expired.Inc()
		fail(serving.ErrExpired)
		return
	}
	r.attempts++
	t.m.retries.Inc()
	m.workers.Add(1)
	go func() {
		defer m.workers.Done()
		time.Sleep(backoff)
		if m.stopping.Load() {
			fail(serving.ErrStopped)
			return
		}
		m.qMu.Lock()
		if len(t.backlog) >= t.spec.QueueCap {
			m.qMu.Unlock()
			t.m.shed.Inc()
			fail(serving.ErrOverloaded)
			return
		}
		t.backlog = append(t.backlog, r)
		t.m.backlogGauge.Set(float64(len(t.backlog)))
		m.qMu.Unlock()
		m.wake()
	}()
}

// CurrentVariant returns the rung the named tenant serves at (-1 for an
// unknown tenant).
func (m *Mux) CurrentVariant(name string) int {
	t := m.tenant(name)
	if t == nil {
		return -1
	}
	return int(t.variant.Load())
}

// SetVariant moves the named tenant's ladder to rung target (clamped),
// returning the rung now in effect. Rungs crossed count as degrades or
// restores in the tenant's counters. ctx carries the caller's decision
// span so the move links to the joint verb that caused it.
func (m *Mux) SetVariant(ctx context.Context, name string, target int) (int, error) {
	t := m.tenant(name)
	if t == nil {
		return 0, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if target < 0 {
		target = 0
	}
	if last := len(t.ladder) - 1; target > last {
		target = last
	}
	for {
		cur := t.variant.Load()
		next := int64(target)
		if next == cur {
			return target, nil
		}
		if !t.variant.CompareAndSwap(cur, next) {
			continue
		}
		t.m.variantGauge.Set(float64(next))
		if steps := next - cur; steps > 0 {
			t.m.degrades.Add(steps)
		} else {
			t.m.restores.Add(-steps)
		}
		_, finish := m.cfg.Tracer.StartSpan(ctx, "tenant.set_variant")
		finish(
			telemetry.L("tenant", name),
			telemetry.L("from", t.ladder[cur].Degree.Label()),
			telemetry.L("to", t.ladder[next].Degree.Label()),
		)
		return target, nil
	}
}

// Tenants names the tenants in registry (name) order.
func (m *Mux) Tenants() []string { return m.reg.Names() }

// Observe drains every tenant's latency window and snapshots its counters:
// one control tick's rows, in registry order.
func (m *Mux) Observe() []serving.Observation {
	out := make([]serving.Observation, len(m.tenants))
	for i, t := range m.tenants {
		p99, n := t.window.Drain()
		m.qMu.Lock()
		backlog := len(t.backlog)
		m.qMu.Unlock()
		out[i] = serving.Observation{
			Name:           t.spec.Name,
			SLOSeconds:     t.spec.SLO().Seconds(),
			MaxCostPerHour: t.spec.MaxCostPerHour,
			P99:            p99,
			Samples:        n,
			QueueFrac:      float64(backlog) / float64(t.spec.QueueCap),
			Variant:        int(t.variant.Load()),
			Submitted:      t.m.submitted.Value(),
			Shed:           t.m.shed.Value(),
			Expired:        t.m.expired.Value(),
			Faulted:        t.m.faulted.Value(),
			Served:         t.m.served.Value(),
			OnTime:         t.m.onTime.Value(),
		}
	}
	return out
}

// TenantStats is one tenant's row in /gateway/status and the loadtest
// report.
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

	Submitted int64 `json:"submitted"`
	Admitted  int64 `json:"admitted"`
	// Rejected counts quota rejections (HTTP 429) — intentional
	// back-pressure, tallied separately from error outcomes.
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

// TenantStats snapshots one tenant (zero value for unknown names).
func (m *Mux) TenantStats(name string) TenantStats {
	t := m.tenant(name)
	if t == nil {
		return TenantStats{}
	}
	m.qMu.Lock()
	backlog := len(t.backlog)
	m.qMu.Unlock()
	vi := int(t.variant.Load())
	v := t.ladder[vi]
	return TenantStats{
		Name:      name,
		Variant:   vi,
		Degree:    v.Degree.Label(),
		Accuracy:  v.Accuracy,
		SLOMS:     t.spec.SLOMS,
		QPSQuota:  t.spec.QPS,
		Weight:    t.spec.Weight,
		Backlog:   backlog,
		QueueCap:  t.spec.QueueCap,
		Submitted: t.m.submitted.Value(),
		Admitted:  t.m.admitted.Value(),
		Rejected:  t.m.rejected.Value(),
		Shed:      t.m.shed.Value(),
		Expired:   t.m.expired.Value(),
		Served:    t.m.served.Value(),
		Faulted:   t.m.faulted.Value(),
		Retries:   t.m.retries.Value(),
		OnTime:    t.m.onTime.Value(),
		Degrades:  t.m.degrades.Value(),
		Restores:  t.m.restores.Value(),
	}
}

// Stats returns every tenant's row in registry (name) order.
func (m *Mux) Stats() []TenantStats {
	out := make([]TenantStats, 0, len(m.tenants))
	for _, t := range m.tenants {
		out = append(out, m.TenantStats(t.spec.Name))
	}
	return out
}

// StageStatsByTenant summarizes each tenant's per-stage latency
// histograms, keyed by tenant name.
func (m *Mux) StageStatsByTenant() map[string]serving.Stages {
	out := make(map[string]serving.Stages, len(m.tenants))
	for _, t := range m.tenants {
		out[t.spec.Name] = serving.Stages{
			QueueWait:     serving.SummarizeStage(t.m.queueWait),
			BatchAssembly: serving.SummarizeStage(t.m.assembly),
			NNForward:     serving.SummarizeStage(t.m.forward),
		}
	}
	return out
}

// Ladder returns the named tenant's variant ladder (nil for unknown
// names; shared slice, do not mutate).
func (m *Mux) Ladder(name string) []serving.Variant {
	t := m.tenant(name)
	if t == nil {
		return nil
	}
	return t.ladder
}
