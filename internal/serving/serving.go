// Package serving is the online inference gateway: it turns the paper's
// static cost-accuracy knob (the degree of pruning) into a runtime control
// loop. Where internal/cluster *simulates* a fleet serving a day of
// traffic, serving actually accepts requests, batches them, runs them
// through the real internal/nn forward path, and answers under a deadline.
//
// Three mechanisms cooperate:
//
//   - A bounded admission queue with per-request deadlines. When the queue
//     is full, new requests are shed immediately (ErrOverloaded) instead of
//     growing latency without bound; requests whose deadline passes while
//     queued are dropped before dispatch (ErrExpired).
//   - Per-replica dynamic batchers. Each replica coalesces queued requests
//     up to Config.MaxBatch or until Config.BatchTimeout after the first
//     request of the batch, whichever comes first, then executes the batch
//     through nn.(*Net).ForwardBatch — the serving-side analogue of the
//     GPU batch saturation of Figure 5.
//   - A load-adaptive pruning controller (controller.go) that moves the
//     whole pool along a ladder of pre-pruned model variants when the
//     observed p99 latency or queue pressure violates the SLO — trading
//     accuracy for throughput along exactly the axis of Figures 6–8.
//
// Every admission decision, batch execution and ladder move is recorded in
// internal/telemetry (metric names in docs/SERVING.md).
package serving

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ccperf/internal/fault"
	"ccperf/internal/nn"
	"ccperf/internal/telemetry"
	"ccperf/internal/tensor"
)

// Errors returned by Submit and reported in Response.Err.
var (
	// ErrOverloaded means the admission queue was full (load shedding).
	ErrOverloaded = errors.New("serving: overloaded, request shed")
	// ErrExpired means the request's deadline passed while it queued.
	ErrExpired = errors.New("serving: deadline expired before dispatch")
	// ErrStopped means the gateway is shut down.
	ErrStopped = errors.New("serving: gateway stopped")
	// ErrFaulted means fault injection failed the request and the retry
	// budget (or shutdown) ruled out another attempt.
	ErrFaulted = errors.New("serving: request failed by fault injection")
)

// Config parameterizes a Gateway. Zero fields take the documented defaults.
type Config struct {
	// Ladder is the variant ladder, least-pruned (most accurate) first.
	// Required, at least one variant.
	Ladder []Variant
	// Replicas is the number of batcher goroutines (default 2) — the
	// in-process stand-in for fleet size.
	Replicas int
	// QueueCap bounds the admission queue (default 64·Replicas).
	QueueCap int
	// MaxBatch caps a dynamic batch (default 8).
	MaxBatch int
	// BatchTimeout is the longest a batch waits to fill after its first
	// request (default 2ms).
	BatchTimeout time.Duration
	// Deadline is the default per-request deadline applied at admission
	// when the caller supplies none (0 = no deadline).
	Deadline time.Duration
	// SLO is the p99 latency target the controller defends (default
	// 50ms). Control is disabled when the ladder has a single variant.
	SLO time.Duration
	// ControlInterval is the controller tick period (default SLO, min 1ms).
	ControlInterval time.Duration
	// DegradeUtilization is the queue-fullness fraction that triggers
	// degradation even before p99 catches up (default 0.75).
	DegradeUtilization float64
	// RestoreFraction: the interval p99 must stay under SLO·RestoreFraction
	// to count as healthy (default 0.5).
	RestoreFraction float64
	// HoldIntervals is the number of consecutive healthy intervals before
	// one restoration step (default 3).
	HoldIntervals int
	// ForwardWorkers sizes each batch execution's worker pool (default 1;
	// replicas already run in parallel).
	ForwardWorkers int
	// Injector, when non-nil, drives chaos testing: each batch asks it
	// whether the replica is crashed and which requests to fail. Failed
	// requests go through the retry path below. Use *fault.Schedule.
	Injector fault.Injector
	// MaxRetries is how many extra attempts a fault-injected request gets
	// before it is answered with ErrFaulted (default 2; negative = none).
	MaxRetries int
	// RetryBackoff is the base delay before re-enqueueing a failed request;
	// attempt n waits RetryBackoff·2^(n-1) plus deterministic jitter
	// (default 2ms).
	RetryBackoff time.Duration
	// BreakerThreshold is how many consecutive failed batches open a
	// replica's circuit breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker blocks its replica before
	// admitting a half-open probe batch (default 250ms).
	BreakerCooldown time.Duration
	// WarmupDelay is how long a replica added at runtime (ScaleTo) waits
	// before pulling its first request — the in-process stand-in for
	// instance boot time (default 0). Replicas present at Start are warm.
	WarmupDelay time.Duration
	// ExternalControl disables the built-in pruning controller so an
	// outside control plane (internal/autoscale) owns both the ladder and
	// the replica count, through Observe, SetVariant and ScaleTo.
	ExternalControl bool
	// Registry and Tracer receive telemetry (nil = package defaults).
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer
}

func (c *Config) defaults() error {
	if len(c.Ladder) == 0 {
		return fmt.Errorf("serving: config needs a non-empty Ladder")
	}
	for i, v := range c.Ladder {
		if v.Net == nil {
			return fmt.Errorf("serving: ladder variant %d has nil net", i)
		}
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64 * c.Replicas
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.BatchTimeout <= 0 {
		c.BatchTimeout = 2 * time.Millisecond
	}
	if c.SLO <= 0 {
		c.SLO = 50 * time.Millisecond
	}
	if c.ControlInterval <= 0 {
		c.ControlInterval = c.SLO
	}
	if c.ControlInterval < time.Millisecond {
		c.ControlInterval = time.Millisecond
	}
	if c.DegradeUtilization <= 0 || c.DegradeUtilization > 1 {
		c.DegradeUtilization = 0.75
	}
	if c.RestoreFraction <= 0 || c.RestoreFraction >= 1 {
		c.RestoreFraction = 0.5
	}
	if c.HoldIntervals <= 0 {
		c.HoldIntervals = 3
	}
	if c.ForwardWorkers <= 0 {
		c.ForwardWorkers = 1
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 2 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 250 * time.Millisecond
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default
	}
	if c.Tracer == nil {
		c.Tracer = telemetry.DefaultTracer
	}
	return nil
}

// Response is one request's outcome.
type Response struct {
	ID    int64
	Err   error
	Class int // Top-1 class index (valid when Err == nil)
	// Variant is the ladder index the request was served at; Degree and
	// Accuracy describe that variant.
	Variant  int
	Degree   string
	Accuracy float64
	// Queue is admission→dispatch wait; Total is admission→completion
	// latency; Batch is the executed batch size.
	Queue time.Duration
	Total time.Duration
	Batch int
	// Attempts is how many executions the request took (1 = no retries).
	Attempts int
}

// DefaultTenant labels single-tenant traffic in the tenant-keyed stage
// histograms: Submit tags every request with it, so StageStatsByTenant
// stays meaningful on paths that never name a tenant.
const DefaultTenant = "default"

// request is the queued form of one submission. ctx carries the
// serving.request span so batch execution parents under it, and finish
// closes that span exactly once when the request is answered.
type request struct {
	id       int64
	img      *tensor.Tensor
	deadline time.Time // zero = none
	enqueued time.Time
	attempts int // execution attempts so far, starting at 1
	ctx      context.Context
	finish   telemetry.FinishFunc
	done     chan Response
	// stages is the tenant-keyed stage histogram set the request reports
	// into (resolved once at admission, so the hot path never locks).
	stages *stageSet
}

// respond finishes the request's span with its outcome and delivers the
// response. Every answered request goes through here, so the span is
// closed exactly once no matter which path (serve, expire, fault, drain)
// completed it.
func (r *request) respond(resp Response) {
	if r.finish != nil {
		r.finish(
			telemetry.L("outcome", outcomeLabel(resp.Err)),
			telemetry.L("attempts", resp.Attempts),
		)
		r.finish = nil
	}
	r.done <- resp
}

// outcomeLabel names a response error for span labels.
func outcomeLabel(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrExpired):
		return "expired"
	case errors.Is(err, ErrFaulted):
		return "faulted"
	case errors.Is(err, ErrOverloaded):
		return "shed"
	case errors.Is(err, ErrStopped):
		return "stopped"
	default:
		return "error"
	}
}

// replicaHandle is one live replica's control block. The id is stable for
// the gateway's lifetime (scale-out after scale-in mints a fresh id), so
// per-replica telemetry and fault-injection targets stay unambiguous.
type replicaHandle struct {
	id      int
	brk     *breaker
	stop    chan struct{} // closed exactly once by ScaleTo (guarded by scaleMu)
	retired bool          // guarded by Gateway.scaleMu
}

// Gateway is the online inference service. Construct with New, then Start;
// Submit/Infer from any goroutine; Stop for a graceful drain. The replica
// set is dynamic: ScaleTo adds and retires batcher goroutines at runtime.
type Gateway struct {
	cfg     Config
	queue   chan *request
	startAt time.Time // set by Start; injector elapsed-time origin

	nextID   atomic.Int64
	variant  atomic.Int64 // current ladder index
	stopping atomic.Bool
	stopCh   chan struct{}
	started  atomic.Bool

	submits sync.WaitGroup // in-flight Submit calls
	workers sync.WaitGroup // replica + controller goroutines

	// scaleMu guards the replica set and the replica-seconds integral.
	// Stop takes it as a barrier before closing stopCh, so a concurrent
	// ScaleTo can never register a worker after workers.Wait begins or
	// close a retired replica's stop channel twice.
	scaleMu    sync.Mutex
	replicas   []*replicaHandle
	replicaSeq int       // next replica id
	repSeconds float64   // accumulated replica-seconds up to repMark
	repMark    time.Time // zero before Start and after Stop

	// execMu guards the execution-throughput accumulators the autoscaler
	// uses to estimate per-replica capacity (served requests per busy
	// second of one batcher).
	execMu      sync.Mutex
	execSeconds float64
	execServed  int64

	// window collects the current control interval's total latencies
	// (seconds); whichever control loop runs drains it each tick.
	window Window

	// stageMu guards the tenant-keyed stage histogram sets; defaultStages
	// is prefetched so the single-tenant path skips the map.
	stageMu       sync.Mutex
	stageSets     map[string]*stageSet
	defaultStages *stageSet

	healthy int // consecutive healthy intervals (controller goroutine only)

	// wsPool hands forward workspaces to batch workers. Warmed at Start so
	// steady-state batches run the nn forward path allocation-free.
	wsPool *nn.WorkspacePool

	m gatewayMetrics
}

// gatewayMetrics holds the resolved telemetry instruments so hot paths
// skip the registry map lookups.
type gatewayMetrics struct {
	admitted, shed, expired, served *telemetry.Counter
	degrades, restores              *telemetry.Counter
	batches                         *telemetry.Counter
	retries, faulted, breakerOpens  *telemetry.Counter
	queueDepth, variantGauge        *telemetry.Gauge
	breakersOpen, replicasGauge     *telemetry.Gauge
	queueWait, total                *telemetry.Histogram
	batchSize                       *telemetry.Histogram
	assembly, forward               *telemetry.Histogram
	wsAllocsPerOp                   *telemetry.Gauge
}

// New validates the config and builds a gateway (not yet serving).
func New(cfg Config) (*Gateway, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:    cfg,
		queue:  make(chan *request, cfg.QueueCap),
		stopCh: make(chan struct{}),
	}
	reg := cfg.Registry
	g.m = gatewayMetrics{
		admitted:      reg.Counter("serving.admitted_total"),
		shed:          reg.Counter("serving.shed_total"),
		expired:       reg.Counter("serving.expired_total"),
		served:        reg.Counter("serving.served_total"),
		degrades:      reg.Counter("serving.degrade_total"),
		restores:      reg.Counter("serving.restore_total"),
		batches:       reg.Counter("serving.batches_total"),
		queueDepth:    reg.Gauge("serving.queue_depth"),
		variantGauge:  reg.Gauge("serving.variant"),
		retries:       reg.Counter("serving.retries_total"),
		faulted:       reg.Counter("fault.injected_requests"),
		breakerOpens:  reg.Counter("serving.breaker_opens_total"),
		breakersOpen:  reg.Gauge("serving.breakers_open"),
		replicasGauge: reg.Gauge("serving.replicas"),
		queueWait:     reg.Histogram("serving.queue_seconds", nil),
		total:         reg.Histogram("serving.request_seconds", nil),
		batchSize:     reg.Histogram("serving.batch_size", telemetry.LinearBuckets(1, 1, 64)),
		assembly:      reg.Histogram("serving.stage_assembly_seconds", nil),
		forward:       reg.Histogram("serving.stage_forward_seconds", nil),
		wsAllocsPerOp: reg.Gauge("serving.ws_allocs_per_op"),
	}
	g.wsPool = nn.NewWorkspacePool(cfg.ForwardWorkers)
	g.m.variantGauge.Set(0)
	g.stageSets = make(map[string]*stageSet)
	g.defaultStages = g.stageSetFor(DefaultTenant)
	for i := 0; i < cfg.Replicas; i++ {
		g.replicas = append(g.replicas, g.newReplicaLocked())
	}
	g.m.replicasGauge.Set(float64(len(g.replicas)))
	return g, nil
}

// newReplicaLocked mints a handle with a stable id and its own breaker.
// Callers hold scaleMu (or, in New, have exclusive access).
func (g *Gateway) newReplicaLocked() *replicaHandle {
	id := g.replicaSeq
	g.replicaSeq++
	state := g.cfg.Registry.Gauge(fmt.Sprintf("serving.breaker_state.r%d", id))
	h := &replicaHandle{id: id, stop: make(chan struct{})}
	h.brk = newBreaker(g.cfg.BreakerThreshold, g.cfg.BreakerCooldown,
		func(from, to BreakerState) {
			state.Set(float64(to))
			if to == BreakerOpen {
				g.m.breakerOpens.Inc()
				g.m.breakersOpen.Add(1)
			}
			if from == BreakerOpen {
				g.m.breakersOpen.Add(-1)
			}
		})
	return h
}

// accrueLocked folds the elapsed replica-time into the replica-seconds
// integral — the quantity the autoscaler prices. Callers hold scaleMu.
func (g *Gateway) accrueLocked(now time.Time) {
	if !g.repMark.IsZero() {
		g.repSeconds += float64(len(g.replicas)) * now.Sub(g.repMark).Seconds()
	}
	g.repMark = now
}

// ReplicaSeconds returns the fleet-time integral ∑ replicas·dt since
// Start, in seconds — replica-count-aware rental time, so cost under
// autoscaling is PricePerSecond × ReplicaSeconds.
func (g *Gateway) ReplicaSeconds() float64 {
	g.scaleMu.Lock()
	defer g.scaleMu.Unlock()
	s := g.repSeconds
	if !g.repMark.IsZero() {
		s += float64(len(g.replicas)) * time.Since(g.repMark).Seconds()
	}
	return s
}

// ReplicaCount returns the current number of live replicas (including any
// still in their warm-up delay).
func (g *Gateway) ReplicaCount() int {
	g.scaleMu.Lock()
	defer g.scaleMu.Unlock()
	return len(g.replicas)
}

// ScaleTo grows or shrinks the replica set to n (clamped to ≥ 1) and
// returns the resulting count. Scale-out spawns fresh batchers that begin
// serving after Config.WarmupDelay; scale-in retires the newest replicas
// by closing their private stop channels — each finishes its in-flight
// batch and exits without touching the shared queue, which the surviving
// replicas keep draining. Calling ScaleTo during or after Stop is a no-op
// returning ErrStopped.
func (g *Gateway) ScaleTo(n int) (int, error) {
	if n < 1 {
		n = 1
	}
	g.scaleMu.Lock()
	defer g.scaleMu.Unlock()
	if g.stopping.Load() {
		return len(g.replicas), ErrStopped
	}
	g.accrueLocked(time.Now())
	cur := len(g.replicas)
	switch {
	case n > cur:
		for i := cur; i < n; i++ {
			h := g.newReplicaLocked()
			g.replicas = append(g.replicas, h)
			if g.started.Load() {
				g.workers.Add(1)
				go g.replica(h, g.cfg.WarmupDelay)
			}
		}
	case n < cur:
		for _, h := range g.replicas[n:] {
			if !h.retired {
				h.retired = true
				close(h.stop)
			}
		}
		g.replicas = g.replicas[:n]
	}
	g.m.replicasGauge.Set(float64(len(g.replicas)))
	return len(g.replicas), nil
}

// Config returns the resolved (defaulted) configuration.
func (g *Gateway) Config() Config { return g.cfg }

// Start launches the replica batchers and, unless Config.ExternalControl
// hands the ladder to an outside control plane, the pruning controller.
func (g *Gateway) Start() {
	if !g.started.CompareAndSwap(false, true) {
		return
	}
	g.warmWorkspaces()
	g.scaleMu.Lock()
	g.startAt = time.Now()
	g.repMark = g.startAt
	for _, h := range g.replicas {
		g.workers.Add(1)
		go g.replica(h, 0) // replicas present at Start are warm
	}
	g.scaleMu.Unlock()
	if len(g.cfg.Ladder) > 1 && !g.cfg.ExternalControl {
		g.workers.Add(1)
		go g.controlLoop()
	}
}

// warmWorkspaces pre-sizes one forward workspace per batch worker across
// the fleet (Replicas × ForwardWorkers, each bounded by the model's peak
// activation footprint) by pushing a zero image of the largest ladder
// variant through each before any traffic arrives. Steady-state batches
// then hit only warm buckets — the ws_allocs_per_op gauge decays from the
// warm-up cost toward zero.
func (g *Gateway) warmWorkspaces() {
	n := g.cfg.Replicas * g.cfg.ForwardWorkers
	if n < 1 {
		n = 1
	}
	v := &g.cfg.Ladder[0]
	img := tensor.New(v.Net.Input.C, v.Net.Input.H, v.Net.Input.W)
	wss := make([]*nn.Workspace, 0, n)
	// Hold all n before returning any, so the pool holds n distinct
	// workspaces.
	for i := 0; i < n; i++ {
		ws := g.wsPool.Get()
		v.Net.Forward(img, ws)
		wss = append(wss, ws)
	}
	for _, ws := range wss {
		g.wsPool.Put(ws)
	}
}

// Stop drains and shuts down: in-flight submissions land, queued requests
// are served, goroutines exit. Safe to call once; Submit after (or during)
// Stop returns ErrStopped.
func (g *Gateway) Stop() {
	if !g.stopping.CompareAndSwap(false, true) {
		return
	}
	g.submits.Wait() // no new queue sends after this
	// Barrier against a racing ScaleTo: any call that entered before the
	// stopping flag flipped has finished mutating the replica set (and
	// registering its workers) once we hold scaleMu; any later call sees
	// stopping and backs off. Also freezes the replica-seconds integral.
	g.scaleMu.Lock()
	g.accrueLocked(time.Now())
	g.repMark = time.Time{}
	g.scaleMu.Unlock()
	close(g.stopCh)
	g.workers.Wait()
	// Everything left in the queue was drained by the replicas. A request
	// can still sit here if Start was never called, or if a sleeping retry
	// re-enqueued it after the replicas finished draining; workers.Wait
	// covers the retry goroutines, so by now the queue is quiescent.
	for {
		select {
		case r := <-g.queue:
			r.respond(Response{ID: r.id, Err: ErrStopped, Attempts: r.attempts})
		default:
			return
		}
	}
}

// Submit enqueues one image for inference and returns a channel that will
// receive exactly one Response. deadline zero applies Config.Deadline.
// Shedding and shutdown are reported as errors immediately. The request
// is attributed to DefaultTenant in the tenant-keyed stage histograms;
// multi-tenant callers use SubmitAs.
//
// ctx is the request's trace context (nil is treated as Background): a
// serving.request span opens here and closes when the request is answered,
// and the batch that executes it parents its serving.batch span under it.
func (g *Gateway) Submit(ctx context.Context, img *tensor.Tensor, deadline time.Time) (<-chan Response, error) {
	return g.SubmitAs(ctx, DefaultTenant, img, deadline)
}

// SubmitAs is Submit with an explicit tenant label: the request's stage
// latencies (queue wait, batch assembly, nn forward) land in histograms
// keyed by the tenant, so per-stage attribution survives multi-tenant
// traffic through one gateway. An empty tenant maps to DefaultTenant.
func (g *Gateway) SubmitAs(ctx context.Context, tenant string, img *tensor.Tensor, deadline time.Time) (<-chan Response, error) {
	if img == nil {
		return nil, fmt.Errorf("serving: nil image")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	g.submits.Add(1)
	defer g.submits.Done()
	if g.stopping.Load() {
		return nil, ErrStopped
	}
	now := time.Now()
	if deadline.IsZero() && g.cfg.Deadline > 0 {
		deadline = now.Add(g.cfg.Deadline)
	}
	sctx, finish := g.cfg.Tracer.StartSpan(ctx, "serving.request")
	r := &request{
		id:       g.nextID.Add(1),
		img:      img,
		deadline: deadline,
		enqueued: now,
		attempts: 1,
		ctx:      sctx,
		finish:   finish,
		done:     make(chan Response, 1),
		stages:   g.stageSetFor(tenant),
	}
	select {
	case g.queue <- r:
		g.m.admitted.Inc()
		g.m.queueDepth.Set(float64(len(g.queue)))
		return r.done, nil
	default:
		g.m.shed.Inc()
		finish(telemetry.L("outcome", "shed"), telemetry.L("attempts", 0))
		return nil, ErrOverloaded
	}
}

// Infer is the synchronous form of Submit: it blocks until the response
// (including admission errors, reported in Response.Err).
func (g *Gateway) Infer(ctx context.Context, img *tensor.Tensor, deadline time.Time) Response {
	ch, err := g.Submit(ctx, img, deadline)
	if err != nil {
		return Response{Err: err}
	}
	select {
	case resp := <-ch:
		return resp
	case <-ctx.Done():
		// The batcher still owns the request and will complete it; the
		// caller just stopped waiting.
		return Response{Err: ctx.Err()}
	}
}

// replica is one dynamic batcher: wait for a first request, fill the batch
// until MaxBatch or BatchTimeout, drop expired entries, execute, respond.
// warmup delays the first pull (a freshly scaled-out replica booting); a
// close of h.stop (scale-in) exits after the in-flight batch, while a
// close of g.stopCh (shutdown) drains the shared queue first.
func (g *Gateway) replica(h *replicaHandle, warmup time.Duration) {
	defer g.workers.Done()
	if warmup > 0 {
		select {
		case <-time.After(warmup):
		case <-h.stop:
			return
		case <-g.stopCh:
			g.drain(h)
			return
		}
	}
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		// An open breaker takes this replica out of rotation: it stops
		// pulling from the shared queue, so traffic re-routes to healthy
		// replicas (and, capacity now short, the pruning controller
		// degrades the ladder if latency suffers).
		if wait := h.brk.waitTime(time.Now()); wait > 0 {
			select {
			case <-time.After(wait):
			case <-h.stop:
				return
			case <-g.stopCh:
				g.drain(h)
				return
			}
			continue
		}
		var first *request
		select {
		case first = <-g.queue:
		case <-h.stop:
			return // retired: the surviving replicas own the queue
		case <-g.stopCh:
			g.drain(h)
			return
		}
		pulledAt := time.Now() // batch-assembly stage starts here
		batch := make([]*request, 1, g.cfg.MaxBatch)
		batch[0] = first
		timer.Reset(g.cfg.BatchTimeout)
	fill:
		for len(batch) < g.cfg.MaxBatch {
			select {
			case r := <-g.queue:
				batch = append(batch, r)
			case <-timer.C:
				break fill
			case <-h.stop:
				// Flush what we have, then exit on the next iteration.
				break fill
			case <-g.stopCh:
				// Flush what we have; the post-stop drain picks up the rest.
				break fill
			}
		}
		stopTimer(timer)
		g.execute(h, batch, pulledAt)
	}
}

func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// drain serves whatever is still queued at shutdown, in MaxBatch groups.
// Multiple replicas drain concurrently until the queue is empty.
func (g *Gateway) drain(h *replicaHandle) {
	for {
		pulledAt := time.Now()
		batch := make([]*request, 0, g.cfg.MaxBatch)
		for len(batch) < g.cfg.MaxBatch {
			select {
			case r := <-g.queue:
				batch = append(batch, r)
			default:
				goto flush
			}
		}
	flush:
		if len(batch) == 0 {
			return
		}
		g.execute(h, batch, pulledAt)
	}
}

// execute runs one coalesced batch: expired requests are answered with
// ErrExpired, fault-injected ones go through the retry path, and the rest
// run the current variant's forward path. The replica's breaker observes
// the batch outcome: a crashed replica (or a batch the injector failed
// wholesale) counts as a failure. pulledAt is when the replica received
// the batch's first request — now−pulledAt is the batch-assembly stage.
func (g *Gateway) execute(h *replicaHandle, batch []*request, pulledAt time.Time) {
	now := time.Now()
	asm := now.Sub(pulledAt).Seconds()
	g.m.assembly.Observe(asm)
	forEachStageSet(batch, func(s *stageSet) { s.assembly.Observe(asm) })
	live := batch[:0]
	for _, r := range batch {
		if !r.deadline.IsZero() && now.After(r.deadline) {
			g.m.expired.Inc()
			r.respond(Response{ID: r.id, Err: ErrExpired, Attempts: r.attempts, Queue: now.Sub(r.enqueued), Total: now.Sub(r.enqueued)})
			continue
		}
		live = append(live, r)
	}
	g.m.queueDepth.Set(float64(len(g.queue)))
	if len(live) == 0 {
		return
	}
	var failed []*request
	if inj := g.cfg.Injector; inj != nil {
		if inj.CrashActive(h.id, now.Sub(g.startAt).Seconds()) {
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
	if len(failed) > 0 {
		g.m.faulted.Add(int64(len(failed)))
		// A wholly failed batch counts against the breaker before any
		// request is answered, so a caller that sees ErrFaulted also sees
		// the breaker state that failure caused.
		if len(live) == 0 {
			h.brk.observe(false, time.Now())
		}
		for _, r := range failed {
			g.retryOrFail(r)
		}
		if len(live) == 0 {
			return
		}
	}
	vi := int(g.variant.Load())
	v := &g.cfg.Ladder[vi]
	imgs := make([]*tensor.Tensor, len(live))
	for i, r := range live {
		imgs[i] = r.img
	}
	// The batch span parents under the first live request's serving.request
	// span (satellite fix: it used to start from context.Background(), so
	// request↔batch linkage was impossible). The nn forward pass gets its
	// own child span so queue/assembly/forward attribution shows up in the
	// trace tree, not just the stage histograms.
	parent := live[0].ctx
	if parent == nil {
		parent = context.Background()
	}
	execStart := time.Now()
	bctx, finish := g.cfg.Tracer.StartSpan(parent, "serving.batch")
	_, finishFwd := g.cfg.Tracer.StartSpan(bctx, "serving.forward")
	outs := v.Net.ForwardBatchPool(imgs, g.cfg.ForwardWorkers, g.wsPool)
	fwdDone := time.Now()
	finishFwd(telemetry.L("workers", g.cfg.ForwardWorkers))
	if a, _, gets := g.wsPool.AllocStats(); gets > 0 {
		g.m.wsAllocsPerOp.Set(float64(a) / float64(gets))
	}
	fwd := fwdDone.Sub(execStart).Seconds()
	g.m.forward.Observe(fwd)
	forEachStageSet(live, func(s *stageSet) { s.forward.Observe(fwd) })
	finish(
		telemetry.L("replica", h.id),
		telemetry.L("batch", len(live)),
		telemetry.L("variant", v.Degree.Label()),
	)
	g.m.batches.Inc()
	g.m.batchSize.Observe(float64(len(live)))
	done := time.Now()
	g.execMu.Lock()
	g.execSeconds += done.Sub(execStart).Seconds()
	g.execServed += int64(len(live))
	g.execMu.Unlock()
	h.brk.observe(true, done)
	for i, r := range live {
		total := done.Sub(r.enqueued)
		g.m.served.Inc()
		g.m.queueWait.Observe(now.Sub(r.enqueued).Seconds())
		if r.stages != nil {
			r.stages.queueWait.Observe(now.Sub(r.enqueued).Seconds())
		}
		g.m.total.Observe(total.Seconds())
		g.window.Add(total.Seconds())
		r.respond(Response{
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

// retryOrFail handles one fault-injected request. If the retry budget and
// the request's deadline allow another attempt, it re-enqueues the request
// after an exponential backoff with deterministic jitter (so seeded chaos
// runs repeat); otherwise it answers ErrFaulted. Requests whose remaining
// deadline budget cannot cover the backoff are expired immediately rather
// than retried into certain failure.
func (g *Gateway) retryOrFail(r *request) {
	fail := func(err error) {
		age := time.Since(r.enqueued)
		r.respond(Response{ID: r.id, Err: err, Attempts: r.attempts, Queue: age, Total: age})
	}
	if r.attempts > g.cfg.MaxRetries || g.stopping.Load() {
		fail(ErrFaulted)
		return
	}
	backoff := g.cfg.RetryBackoff << uint(r.attempts-1)
	backoff += time.Duration(fault.Frac(uint64(r.id)*0x9e3779b97f4a7c15+uint64(r.attempts)) * float64(backoff))
	if !r.deadline.IsZero() && time.Now().Add(backoff).After(r.deadline) {
		g.m.expired.Inc()
		fail(ErrExpired)
		return
	}
	r.attempts++
	g.m.retries.Inc()
	// Registered in g.workers: the caller is a replica goroutine (itself
	// counted), so the group can't hit zero concurrently with this Add,
	// and Stop's workers.Wait covers sleeping retries.
	g.workers.Add(1)
	go func() {
		defer g.workers.Done()
		time.Sleep(backoff)
		if g.stopping.Load() {
			fail(ErrStopped)
			return
		}
		select {
		case g.queue <- r:
			g.m.queueDepth.Set(float64(len(g.queue)))
		default:
			g.m.shed.Inc()
			fail(ErrOverloaded)
		}
	}()
}

// Stats is a point-in-time view of the gateway's counters, for /status and
// the loadtest report.
type Stats struct {
	Variant  int     `json:"variant"`
	Degree   string  `json:"degree"`
	Accuracy float64 `json:"accuracy"`
	Replicas int     `json:"replicas"`
	// ReplicaSeconds is the fleet-time integral ∑ replicas·dt since Start —
	// multiply by an instance's per-second price for the rental cost.
	ReplicaSeconds float64 `json:"replica_seconds"`
	QueueDepth     int     `json:"queue_depth"`
	QueueCap       int     `json:"queue_cap"`
	Admitted       int64   `json:"admitted"`
	Served         int64   `json:"served"`
	Shed           int64   `json:"shed"`
	Expired        int64   `json:"expired"`
	Batches        int64   `json:"batches"`
	Degrades       int64   `json:"degrades"`
	Restores       int64   `json:"restores"`
	// Resilience counters (all zero when no Injector is configured).
	Faulted      int64    `json:"faulted"`
	Retries      int64    `json:"retries"`
	BreakerOpens int64    `json:"breaker_opens"`
	OpenBreakers int      `json:"open_breakers"`
	Breakers     []string `json:"breakers"`
	// Workspace-pool health: cumulative scratch-buffer allocations by the
	// forward workspaces, total workspace checkouts, and their ratio. The
	// count plateaus after warm-up — a growing ratio means the
	// zero-allocation steady state is broken.
	WsAllocs      uint64  `json:"ws_allocs"`
	WsGets        uint64  `json:"ws_gets"`
	WsAllocsPerOp float64 `json:"ws_allocs_per_op"`
}

// Stats snapshots the gateway.
func (g *Gateway) Stats() Stats {
	vi := int(g.variant.Load())
	v := g.cfg.Ladder[vi]
	open := 0
	g.scaleMu.Lock()
	states := make([]string, len(g.replicas))
	for i, h := range g.replicas {
		s := h.brk.current()
		states[i] = s.String()
		if s == BreakerOpen {
			open++
		}
	}
	replicas := len(g.replicas)
	repSec := g.repSeconds
	if !g.repMark.IsZero() {
		repSec += float64(replicas) * time.Since(g.repMark).Seconds()
	}
	g.scaleMu.Unlock()
	wsAllocs, _, wsGets := g.wsPool.AllocStats()
	var wsPerOp float64
	if wsGets > 0 {
		wsPerOp = float64(wsAllocs) / float64(wsGets)
	}
	return Stats{
		Variant:        vi,
		Degree:         v.Degree.Label(),
		Accuracy:       v.Accuracy,
		Replicas:       replicas,
		ReplicaSeconds: repSec,
		QueueDepth:     len(g.queue),
		QueueCap:       g.cfg.QueueCap,
		Admitted:       g.m.admitted.Value(),
		Served:         g.m.served.Value(),
		Shed:           g.m.shed.Value(),
		Expired:        g.m.expired.Value(),
		Batches:        g.m.batches.Value(),
		Degrades:       g.m.degrades.Value(),
		Restores:       g.m.restores.Value(),
		Faulted:        g.m.faulted.Value(),
		Retries:        g.m.retries.Value(),
		BreakerOpens:   g.m.breakerOpens.Value(),
		OpenBreakers:   open,
		Breakers:       states,
		WsAllocs:       wsAllocs,
		WsGets:         wsGets,
		WsAllocsPerOp:  wsPerOp,
	}
}

// CurrentVariant returns the ladder index requests are being served at.
func (g *Gateway) CurrentVariant() int { return int(g.variant.Load()) }

// SetVariant moves the ladder to rung target (clamped to the ladder ends)
// and returns the rung now in effect. tenant must be DefaultTenant ("" is
// DefaultTenant, as in SubmitAs). Each rung crossed counts as one degrade
// or restore in the gateway's counters, so an external controller jumping
// several rungs stays comparable with the built-in one-step controller.
// Safe from any goroutine.
//
// ctx is the caller's trace context (nil = Background): an external
// control plane passes its decision span's context so the
// serving.set_variant span links to the verb that caused it.
func (g *Gateway) SetVariant(ctx context.Context, tenant string, target int) (int, error) {
	if tenant != "" && tenant != DefaultTenant {
		return 0, fmt.Errorf("serving: unknown tenant %q", tenant)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if target < 0 {
		target = 0
	}
	if last := len(g.cfg.Ladder) - 1; target > last {
		target = last
	}
	for {
		cur := g.variant.Load()
		next := int64(target)
		if next == cur {
			return target, nil
		}
		if !g.variant.CompareAndSwap(cur, next) {
			continue
		}
		g.m.variantGauge.Set(float64(next))
		if steps := next - cur; steps > 0 {
			g.m.degrades.Add(steps)
		} else {
			g.m.restores.Add(-steps)
		}
		_, finish := g.cfg.Tracer.StartSpan(ctx, "serving.set_variant")
		finish(
			telemetry.L("from", g.cfg.Ladder[cur].Degree.Label()),
			telemetry.L("to", g.cfg.Ladder[next].Degree.Label()),
		)
		return target, nil
	}
}

// StageSummary is one pipeline stage's latency distribution, in
// milliseconds (the natural scale for serving stages).
type StageSummary struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// Stages attributes request latency to the serving pipeline's stages:
// admission-queue wait (per request), batch assembly (per batch, first
// pull → execution start) and the nn forward pass (per batch). It is the
// per-stage half of the loadtest report — the macro numbers the bench
// trajectory folds in alongside microbenchmarks.
type Stages struct {
	QueueWait     StageSummary `json:"queue_wait"`
	BatchAssembly StageSummary `json:"batch_assembly"`
	NNForward     StageSummary `json:"nn_forward"`
}

// stageSet is one tenant's keyed stage histograms. Requests resolve their
// set once at admission; batch stages are observed once per distinct
// tenant present in the batch.
type stageSet struct {
	queueWait, assembly, forward *telemetry.Histogram
}

// stageSetFor returns (lazily creating) the tenant's stage histogram set.
// The default tenant's set is prefetched so single-tenant traffic skips
// the lock after construction.
func (g *Gateway) stageSetFor(tenant string) *stageSet {
	if tenant == "" {
		tenant = DefaultTenant
	}
	if tenant == DefaultTenant && g.defaultStages != nil {
		return g.defaultStages
	}
	g.stageMu.Lock()
	defer g.stageMu.Unlock()
	if s, ok := g.stageSets[tenant]; ok {
		return s
	}
	reg := g.cfg.Registry
	s := &stageSet{
		queueWait: reg.Histogram("serving.queue_seconds."+tenant, nil),
		assembly:  reg.Histogram("serving.stage_assembly_seconds."+tenant, nil),
		forward:   reg.Histogram("serving.stage_forward_seconds."+tenant, nil),
	}
	g.stageSets[tenant] = s
	return s
}

// forEachStageSet calls fn once per distinct stage set among the batch's
// requests (batches are small, so the duplicate scan is a few pointer
// compares).
func forEachStageSet(reqs []*request, fn func(*stageSet)) {
	for i, r := range reqs {
		if r.stages == nil {
			continue
		}
		dup := false
		for _, prev := range reqs[:i] {
			if prev.stages == r.stages {
				dup = true
				break
			}
		}
		if !dup {
			fn(r.stages)
		}
	}
}

// StageStats summarizes the per-stage latency histograms across all
// tenants (the aggregate the single-tenant report always carried).
func (g *Gateway) StageStats() Stages {
	return Stages{
		QueueWait:     SummarizeStage(g.m.queueWait),
		BatchAssembly: SummarizeStage(g.m.assembly),
		NNForward:     SummarizeStage(g.m.forward),
	}
}

// StageStatsByTenant summarizes the stage histograms keyed by tenant
// label. Single-tenant traffic appears under DefaultTenant.
func (g *Gateway) StageStatsByTenant() map[string]Stages {
	g.stageMu.Lock()
	defer g.stageMu.Unlock()
	out := make(map[string]Stages, len(g.stageSets))
	for tenant, s := range g.stageSets {
		out[tenant] = Stages{
			QueueWait:     SummarizeStage(s.queueWait),
			BatchAssembly: SummarizeStage(s.assembly),
			NNForward:     SummarizeStage(s.forward),
		}
	}
	return out
}

// SummarizeStage folds one stage histogram (recorded in seconds) into a
// millisecond StageSummary — shared with the tenant mux's keyed stages.
func SummarizeStage(h *telemetry.Histogram) StageSummary {
	s := h.Snapshot()
	const ms = 1e3 // histograms record seconds
	return StageSummary{
		Count:  s.Count,
		MeanMS: s.Mean * ms,
		P50MS:  s.P50 * ms,
		P99MS:  s.P99 * ms,
		MaxMS:  s.Max * ms,
	}
}

// ExecStats reports the cumulative served-request count and batch
// execution busy-time across all replicas. Because each replica executes
// serially, Δserved/Δseconds between two calls estimates the requests per
// busy-second one replica sustains at the current ladder rung — the
// capacity signal the autoscaler feeds its policy.
func (g *Gateway) ExecStats() (served int64, execSeconds float64) {
	g.execMu.Lock()
	defer g.execMu.Unlock()
	return g.execServed, g.execSeconds
}

// BreakerState reports one replica's circuit-breaker state, by position
// in the current replica set.
func (g *Gateway) BreakerState(replica int) BreakerState {
	g.scaleMu.Lock()
	defer g.scaleMu.Unlock()
	if replica < 0 || replica >= len(g.replicas) {
		return BreakerClosed
	}
	return g.replicas[replica].brk.current()
}
