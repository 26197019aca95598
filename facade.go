package ccperf

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ccperf/internal/autoscale"
	"ccperf/internal/cloud"
	"ccperf/internal/engine"
	"ccperf/internal/fault"
	"ccperf/internal/prune"
	"ccperf/internal/serving"
	"ccperf/internal/telemetry"
	"ccperf/internal/tenant"
)

// Stack is the facade over the library's layers, all sharing one memoizing
// prediction engine: the offline System (characterization) and Planner
// (joint-space search) are always present; the online Gateway (one tenant,
// or N with WithTenants) and its Scaler exist when requested via
// WithGateway / WithTenants / WithAutoscale.
//
// Open is the documented entry point; NewSystem and NewPlanner remain as
// thin wrappers for callers that only want the offline layers.
type Stack struct {
	sys     *System
	planner *Planner
	inst    *cloud.Instance
	gw      *serving.Gateway
	scaler  *autoscale.Scaler

	// Transfer prediction is fitted lazily on first use; the calibration
	// set comes from WithCalibrationSet (default: the full catalog).
	calibNames   []string
	transferOnce sync.Once
	transfer     *engine.TransferPredictor
	transferErr  error
}

// options collects the functional-option state for Open.
type options struct {
	gateway      bool
	ratios       []float64
	replicas     int
	queueCap     int
	maxBatch     int
	batchTimeout time.Duration
	slo          time.Duration
	deadline     time.Duration
	warmup       time.Duration
	injector     fault.Injector
	instance     string

	autoscale   bool
	budget      float64
	minReplicas int
	maxReplicas int
	interval    time.Duration

	registry *telemetry.Registry
	tracer   *telemetry.Tracer

	tenants []tenant.Spec

	calibration []string
}

// Option configures Open.
type Option func(*options)

// WithGateway adds an online inference gateway (dynamic batching, bounded
// admission, load-adaptive pruning) to the stack.
func WithGateway() Option { return func(o *options) { o.gateway = true } }

// WithLadder sets the gateway's prune-ratio ladder, least pruned first
// (default 0, 0.3, 0.5, 0.7, 0.9). Implies WithGateway.
func WithLadder(ratios ...float64) Option {
	return func(o *options) { o.gateway = true; o.ratios = ratios }
}

// WithReplicas sets the gateway's initial replica count (default 2, or
// MinReplicas when autoscaling).
func WithReplicas(n int) Option { return func(o *options) { o.replicas = n } }

// WithQueueCap bounds the gateway admission queue (default 64×replicas).
func WithQueueCap(n int) Option { return func(o *options) { o.queueCap = n } }

// WithMaxBatch caps the gateway's dynamic batch size (default 8).
func WithMaxBatch(n int) Option { return func(o *options) { o.maxBatch = n } }

// WithBatchTimeout sets the longest a batch waits to fill (default 2ms).
func WithBatchTimeout(d time.Duration) Option { return func(o *options) { o.batchTimeout = d } }

// WithSLO sets the p99 latency objective the control plane defends
// (default 50ms).
func WithSLO(d time.Duration) Option { return func(o *options) { o.slo = d } }

// WithDeadline sets the default per-request deadline (default none).
func WithDeadline(d time.Duration) Option { return func(o *options) { o.deadline = d } }

// WithWarmup is how long a replica added at runtime waits before serving —
// the stand-in for instance boot time (default none).
func WithWarmup(d time.Duration) Option { return func(o *options) { o.warmup = d } }

// WithInjector installs a fault injector on the gateway (chaos testing).
func WithInjector(inj fault.Injector) Option { return func(o *options) { o.injector = inj } }

// WithInstance names the cloud instance type that prices a replica
// (default p2.xlarge).
func WithInstance(name string) Option { return func(o *options) { o.instance = name } }

// WithAutoscale adds the cost-accuracy autoscaler: replicas scale between
// min and max, spending at most budgetPerHour dollars; the pruning ladder
// degrades only when the budget binds. Implies WithGateway and puts the
// gateway under external control.
func WithAutoscale(budgetPerHour float64, min, max int) Option {
	return func(o *options) {
		o.gateway, o.autoscale = true, true
		o.budget, o.minReplicas, o.maxReplicas = budgetPerHour, min, max
	}
}

// WithAutoscaleInterval sets the autoscaler's control tick (default 250ms).
func WithAutoscaleInterval(d time.Duration) Option { return func(o *options) { o.interval = d } }

// WithTenants hosts N tenants — each with its own pruning ladder, SLO,
// admission quota, and fair-share weight — on the gateway's shared
// replica fleet instead of the one WithLadder model. Implies WithGateway.
// Without WithAutoscale the built-in controller defends each tenant's
// SLO; with it, the Scaler drives the shared replica count and every
// tenant's ladder rung — which tenant degrades first is the one with the
// largest accuracy-per-dollar slack.
func WithTenants(specs []tenant.Spec) Option {
	return func(o *options) { o.tenants = specs }
}

// WithCalibrationSet names the calibrated catalog instance types the
// stack's transfer predictor (Stack.Transfer) fits its roofline scaling
// factors from. Default: the full catalog. At least two distinct device
// kinds are needed for the two-feature fit; a single-kind set degrades to
// the compute-only fallback.
func WithCalibrationSet(names ...string) Option {
	return func(o *options) { o.calibration = names }
}

// WithTelemetry routes the stack's metrics and spans to a private registry
// and tracer instead of the process-wide defaults.
func WithTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) Option {
	return func(o *options) { o.registry = reg; o.tracer = tr }
}

// Open builds a stack for a paper model ("caffenet" or "googlenet") with
// every requested view sharing one memoizing engine.Predictor:
//
//	st, err := ccperf.Open(ccperf.Caffenet,
//	        ccperf.WithLadder(0, 0.5, 0.9),
//	        ccperf.WithAutoscale(8.0, 1, 8))
//	...
//	st.Start()
//	defer st.Close()
//
// Without options the stack holds only the offline System and Planner
// views, and Start/Close are no-ops.
func Open(model string, opts ...Option) (*Stack, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.instance == "" {
		o.instance = "p2.xlarge"
	}
	sys, err := NewSystem(model)
	if err != nil {
		return nil, err
	}
	inst, err := cloud.ByName(o.instance)
	if err != nil {
		return nil, err
	}
	st := &Stack{sys: sys, planner: &Planner{sys: sys}, inst: inst, calibNames: o.calibration}
	if !o.gateway && len(o.tenants) == 0 {
		return st, nil
	}

	// Every ladder and the scaler's profiles are derived from the system's
	// shared predictor, so the accuracy the gateway advertises and the
	// accuracy the planner optimizes come from the same curves.
	buildLadder := func(ratios []float64) ([]serving.Variant, error) {
		degrees, err := LadderDegrees(ratios)
		if err != nil {
			return nil, err
		}
		return serving.BuildLadder(context.Background(), serving.TinyNet, degrees, prune.L1Filter, sys.engine)
	}
	cfg := serving.Config{
		Replicas:        o.initialReplicas(),
		MaxBatch:        o.maxBatch,
		BatchTimeout:    o.batchTimeout,
		WarmupDelay:     o.warmup,
		Injector:        o.injector,
		ExternalControl: o.autoscale,
		Registry:        o.registry,
		Tracer:          o.tracer,
	}
	if len(o.tenants) > 0 {
		st.gw, err = tenant.NewGateway(o.tenants, buildLadder, cfg)
	} else {
		cfg.QueueCap, cfg.SLO, cfg.Deadline = o.queueCap, o.slo, o.deadline
		if cfg.Ladder, err = buildLadder(o.ratios); err != nil {
			return nil, err
		}
		st.gw, err = serving.New(cfg)
	}
	if err != nil {
		return nil, err
	}
	if o.autoscale {
		if err := st.openScaler(&o); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// initialReplicas returns the fleet's starting size: WithReplicas, or
// under WithAutoscale the replica floor when that is unset. Under
// WithAutoscale it first defaults the floor to 1 and raises the ceiling
// to at least the floor, the limits openScaler reads.
func (o *options) initialReplicas() int {
	if !o.autoscale {
		return o.replicas
	}
	if o.minReplicas <= 0 {
		o.minReplicas = 1
	}
	if o.maxReplicas < o.minReplicas {
		o.maxReplicas = o.minReplicas
	}
	if o.replicas <= 0 {
		return o.minReplicas
	}
	return o.replicas
}

// openScaler binds the stack's autoscale.Scaler to the gateway. Each
// tenant's rung profiles price its ladder's degrees through the shared
// predictor on the stack's instance type, so the accuracy the fleet
// serves and the accuracy the planner optimizes come from the same curves.
func (st *Stack) openScaler(o *options) error {
	profiles := make(map[string][]autoscale.Profile)
	for _, name := range st.gw.Tenants() {
		var degrees []prune.Degree
		for _, v := range st.gw.Ladder(name) {
			degrees = append(degrees, v.Degree)
		}
		var err error
		if profiles[name], err = autoscale.BuildProfiles(context.Background(), st.sys.engine, degrees, st.inst, st.gw.Config().MaxBatch); err != nil {
			return err
		}
	}
	var err error
	st.scaler, err = autoscale.New(st.gw, autoscale.Config{
		Policy: autoscale.Policy{
			Limits: autoscale.Limits{
				MinReplicas:         o.minReplicas,
				MaxReplicas:         o.maxReplicas,
				PricePerReplicaHour: st.inst.PricePerHour,
				BudgetPerHour:       o.budget,
			},
		},
		Profiles: profiles,
		Interval: o.interval,
		Registry: o.registry,
		Tracer:   o.tracer,
	})
	return err
}

// LadderDegrees maps prune-ratio rungs to the uniform conv1+conv2 degrees
// the demo serving ladder and the pack search both use, so online proxies
// and offline predictions address the same calibrated curves.
func LadderDegrees(ratios []float64) ([]prune.Degree, error) {
	if len(ratios) == 0 {
		ratios = serving.DefaultLadderRatios
	}
	degrees := make([]prune.Degree, len(ratios))
	for i, r := range ratios {
		if !(r >= 0 && r <= 1) {
			return nil, fmt.Errorf("ccperf: ladder ratio %v out of [0,1]", r)
		}
		degrees[i] = prune.Uniform([]string{"conv1", "conv2"}, r)
	}
	return degrees, nil
}

// System returns the measurement/characterization view.
func (st *Stack) System() *System { return st.sys }

// Planner returns the joint-space planning view.
func (st *Stack) Planner() *Planner { return st.planner }

// Gateway returns the online serving view (nil unless WithGateway or
// WithTenants).
func (st *Stack) Gateway() *serving.Gateway { return st.gw }

// Scaler returns the cost-accuracy control plane over the stack's gateway
// (nil unless WithAutoscale).
func (st *Stack) Scaler() *autoscale.Scaler { return st.scaler }

// Predictor returns the single memoizing prediction engine every view of
// this stack shares.
func (st *Stack) Predictor() engine.Predictor { return st.sys.engine }

// Transfer returns the stack's transfer predictor: the shared engine
// extended to instance types the harness never profiled (the p3/V100
// transfer targets), via roofline scaling factors fitted from the
// calibration set (WithCalibrationSet; default the full catalog). The fit
// runs once, on first call, against the shared memoizing engine, and the
// result is cached for the stack's lifetime.
func (st *Stack) Transfer(ctx context.Context) (*engine.TransferPredictor, error) {
	st.transferOnce.Do(func() {
		names := st.calibNames
		var calib []*cloud.Instance
		if len(names) == 0 {
			calib = cloud.Catalog()
		} else {
			for _, n := range names {
				inst, err := cloud.ByName(n)
				if err != nil {
					st.transferErr = err
					return
				}
				calib = append(calib, inst)
			}
		}
		st.transfer, st.transferErr = engine.FitTransfer(ctx, st.sys.engine, calib)
	})
	return st.transfer, st.transferErr
}

// Instance returns the cloud instance type pricing each replica.
func (st *Stack) Instance() *cloud.Instance { return st.inst }

// Start brings up the online components (the gateway, then its scaler).
// A stack without a gateway starts nothing.
func (st *Stack) Start() {
	if st.gw != nil {
		st.gw.Start()
	}
	if st.scaler != nil {
		st.scaler.Start()
	}
}

// Close stops the online components in reverse order (the scaler, then
// the gateway, draining in-flight requests). Idempotent.
func (st *Stack) Close() {
	if st.scaler != nil {
		st.scaler.Stop()
	}
	if st.gw != nil {
		st.gw.Stop()
	}
}
