package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ccperf/internal/cloud"
	"ccperf/internal/serving"
	"ccperf/internal/telemetry"
	"ccperf/internal/tensor"
)

// ErrNoShard means every shard was either drained by health or over its
// bounded-load cap: the router's load-shedding signal. It wraps
// serving.ErrOverloaded, so a replay counts it as shed, like a gateway's
// own shedding one level down.
var ErrNoShard = fmt.Errorf("shard: no healthy shard available: %w", serving.ErrOverloaded)

// Shard is one routing target: a gateway placed in a region. The caller
// owns the gateway's lifecycle (Start/Stop) and is expected to wire its
// Injector through fault.Schedule.ForRegion(Region) so region-scoped
// faults actually take the shard's replicas down.
type Shard struct {
	Gateway *serving.Gateway
	Region  string
}

// Config parameterizes a Router. Zero fields take the documented defaults.
type Config struct {
	// Shards is the fleet, at least one entry.
	Shards []Shard
	// VNodes is the virtual-node count per shard (default DefaultVNodes).
	VNodes int
	// LoadFactor is the bounded-load slack c ≥ 1: a shard's in-flight cap
	// is ⌈c · total · share⌉ where share is its health-weighted fraction
	// of the fleet (default 1.25). Lower values balance harder; 1.0
	// approaches round-robin, large values approach plain consistent
	// hashing.
	LoadFactor float64
	// Health tunes the drain/recover hysteresis.
	Health HealthConfig
	// HealthInterval is the observation period of the background health
	// loop started by Start (default 50ms).
	HealthInterval time.Duration
	// RTT models the extra network latency a request pays when its origin
	// region differs from the serving shard's region; the delay is added
	// on the response path. Default cloud.InterRegionRTT. Set to a
	// function returning 0 to disable.
	RTT func(origin, region string) time.Duration
	// Registry receives shard.* metrics (nil = telemetry.Default).
	Registry *telemetry.Registry
	// Tracer receives shard.route spans (nil = telemetry.DefaultTracer).
	Tracer *telemetry.Tracer
}

// shardState is the router's mutable view of one shard.
type shardState struct {
	gw     *serving.Gateway
	region string
	// inflight counts requests routed here whose responses have not yet
	// been delivered — the bounded-load denominator.
	inflight atomic.Int64
	// weightBits is the published effective weight (health × bias),
	// float64 bits; the route path reads it lock-free.
	weightBits atomic.Uint64
	// health and bias are guarded by Router.mu.
	health health
	bias   float64
}

func (s *shardState) weight() float64 {
	return math.Float64frombits(s.weightBits.Load())
}

func (s *shardState) publish() {
	s.weightBits.Store(math.Float64bits(s.health.weight * s.bias))
}

// Router spreads submissions across shards by consistent hashing with
// bounded loads and health-aware spill. It is safe for concurrent use.
type Router struct {
	cfg    Config
	ring   *Ring
	shards []*shardState

	mu      sync.Mutex // guards health/bias mutation (Tick, SetBias)
	elapsed func() float64

	stop    chan struct{}
	wg      sync.WaitGroup
	started atomic.Bool

	routed    *telemetry.Counter
	rerouted  *telemetry.Counter
	spilled   *telemetry.Counter
	shed      *telemetry.Counter
	failovers *telemetry.Counter
	weights   []*telemetry.Gauge
}

// NewRouter validates cfg and builds the ring. Gateways are used as
// given — the router never starts or stops them.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("shard: config needs at least one shard")
	}
	for i, s := range cfg.Shards {
		if s.Gateway == nil {
			return nil, fmt.Errorf("shard: shard %d has no gateway", i)
		}
	}
	if cfg.LoadFactor < 1 {
		cfg.LoadFactor = 1.25
	}
	cfg.Health = cfg.Health.withDefaults()
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 50 * time.Millisecond
	}
	if cfg.RTT == nil {
		cfg.RTT = cloud.InterRegionRTT
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.Default
	}
	if cfg.Tracer == nil {
		cfg.Tracer = telemetry.DefaultTracer
	}
	r := &Router{
		cfg:       cfg,
		ring:      NewRing(len(cfg.Shards), cfg.VNodes),
		stop:      make(chan struct{}),
		routed:    cfg.Registry.Counter("shard.routed"),
		rerouted:  cfg.Registry.Counter("shard.rerouted"),
		spilled:   cfg.Registry.Counter("shard.spilled"),
		shed:      cfg.Registry.Counter("shard.shed"),
		failovers: cfg.Registry.Counter("shard.failovers"),
	}
	start := time.Now()
	r.elapsed = func() float64 { return time.Since(start).Seconds() }
	for i, s := range cfg.Shards {
		st := &shardState{gw: s.Gateway, region: s.Region, health: newHealth(), bias: 1}
		st.publish()
		r.shards = append(r.shards, st)
		r.weights = append(r.weights, cfg.Registry.Gauge(fmt.Sprintf("shard.weight.%d", i)))
		r.weights[i].Set(1)
	}
	return r, nil
}

// choose walks the ring from the key's home shard and returns the first
// shard that is neither drained nor over its bounded-load cap, skipping
// avoid (< 0 = none). accept, when non-nil, gets a veto on each
// candidate (the submission path uses it to hand the request to the
// gateway, so a full admission queue reads as one more spill). The bool
// reports whether the choice passed over at least one shard.
func (r *Router) choose(key uint64, avoid int, accept func(int) bool) (int, bool, error) {
	var total int64 = 1 // the request being placed
	var sumW float64
	for _, st := range r.shards {
		total += st.inflight.Load()
		sumW += st.weight()
	}
	if sumW <= 0 {
		return -1, false, ErrNoShard
	}
	chosen, hops := -1, 0
	r.ring.Walk(key, func(s int) bool {
		if s == avoid {
			hops++
			return false
		}
		st := r.shards[s]
		w := st.weight()
		if w <= 0 {
			hops++
			return false
		}
		cap := int64(math.Ceil(r.cfg.LoadFactor * float64(total) * w / sumW))
		if cap < 1 {
			cap = 1
		}
		if st.inflight.Load() >= cap {
			hops++
			r.spilled.Inc()
			return false
		}
		if accept != nil && !accept(s) {
			hops++
			return false
		}
		chosen = s
		return true
	})
	if chosen < 0 {
		return -1, false, ErrNoShard
	}
	return chosen, hops > 0, nil
}

// Route reports where a key would be served right now: the chosen shard
// and whether the choice spilled past the key's home. It has no side
// effects beyond the spill counter — the benchmark's and the balancer's
// read-only view of the routing decision.
func (r *Router) Route(key uint64) (int, bool, error) {
	return r.choose(key, -1, nil)
}

// place picks a shard (skipping avoid) and submits the request to it,
// bumping the shard's in-flight count on success. Beyond the weight
// check, place consults the candidate gateway's live breaker panel: a
// shard whose replicas are majority-open is bypassed immediately, so in
// the window between a fault landing and the health loop draining the
// weight, new requests do not queue behind open breakers until their
// deadlines rot.
func (r *Router) place(ctx context.Context, key uint64, avoid int, img *tensor.Tensor, deadline time.Time) (<-chan serving.Response, int, bool, error) {
	var ch <-chan serving.Response
	s, spilled, err := r.choose(key, avoid, func(s int) bool {
		st := r.shards[s]
		if !healthyNow(st.gw.Stats()) {
			return false
		}
		c, err := st.gw.Submit(ctx, img, deadline)
		if err != nil {
			return false
		}
		ch = c
		return true
	})
	if err != nil {
		return nil, -1, spilled, err
	}
	r.shards[s].inflight.Add(1)
	return ch, s, spilled, nil
}

// failoverable reports whether a response error is worth resubmitting on
// another shard. Injected faults (the shard's replicas are dying) are;
// deadline expiry is not — a second shard cannot beat a deadline the
// first already burned.
func failoverable(err error) bool {
	return errors.Is(err, serving.ErrFaulted) || errors.Is(err, serving.ErrStopped) ||
		errors.Is(err, serving.ErrOverloaded)
}

// Submit routes one request: hash the key to its home shard, spill along
// the ring past drained or saturated shards, and hand the request to the
// chosen shard's gateway. If the serving shard fails the request (fault
// injection, shutdown, overload) the router fails over: the request is
// resubmitted to the next shard on the ring, up to shards−1 times — this
// is what keeps client-visible errors under control while a regional
// outage is still draining the dead shards' weights. origin is the
// request's source region; when it differs from the final serving
// shard's region the response is delayed by the configured inter-region
// RTT, which is how a replay's latency distribution feels a failover's
// geography.
//
// The returned channel delivers exactly one Routed response (or closes
// on gateway shutdown with no failover target left), stamped with the
// shard that actually served it; the int is the shard the request was
// first placed on (failovers are visible in the shard.failovers
// counter).
func (r *Router) Submit(ctx context.Context, key uint64, origin string, img *tensor.Tensor, deadline time.Time) (<-chan Routed, int, error) {
	_, finish := r.cfg.Tracer.StartSpan(ctx, "shard.route")
	ch, s, spilled, err := r.place(ctx, key, -1, img, deadline)
	finish()
	if err != nil {
		r.shed.Inc()
		return nil, -1, err
	}
	r.routed.Inc()
	if spilled {
		r.rerouted.Inc()
	}
	out := make(chan Routed, 1)
	go func() {
		defer close(out)
		cur := s
		for tries := 0; ; tries++ {
			resp, ok := <-ch
			r.shards[cur].inflight.Add(-1)
			if ok && (resp.Err == nil || !failoverable(resp.Err) || tries >= len(r.shards)-1) {
				r.deliver(ctx, out, resp, origin, cur)
				return
			}
			if !ok && tries >= len(r.shards)-1 {
				return // gateway stopped, nowhere left to go
			}
			// The shard failed the request (or its gateway stopped under
			// us): resubmit on the next shard along the ring.
			nch, ns, _, err := r.place(ctx, key, cur, img, deadline)
			if err != nil {
				if ok {
					r.deliver(ctx, out, resp, origin, cur)
				}
				return
			}
			r.failovers.Inc()
			ch, cur = nch, ns
		}
	}()
	return out, s, nil
}

// Routed is a gateway response stamped with the shard that served it —
// after a failover that is not the shard the request was first placed
// on, and per-region attribution must follow the server, not the plan.
type Routed struct {
	serving.Response
	Shard int
}

// deliver forwards the final response, first paying the inter-region
// RTT when the serving shard is remote from the request's origin.
func (r *Router) deliver(ctx context.Context, out chan<- Routed, resp serving.Response, origin string, s int) {
	if rtt := r.cfg.RTT(origin, r.shards[s].region); rtt > 0 {
		t := time.NewTimer(rtt)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}
	out <- Routed{Response: resp, Shard: s}
}

// healthyNow derives one shard's instantaneous health from its gateway's
// breaker panel: healthy while a strict majority of replicas hold closed
// (or half-open) breakers. A regional outage fails every batch, opens
// every breaker, and flips this within a breaker-threshold's worth of
// batches — no oracle knowledge of the fault schedule involved.
func healthyNow(st serving.Stats) bool {
	replicas := st.Replicas
	if replicas <= 0 {
		return false
	}
	return st.OpenBreakers*2 < replicas || (replicas == 1 && st.OpenBreakers == 0)
}

// Tick runs one health observation round: read each gateway's stats,
// fold the observation into the shard's weight hysteresis, and publish
// the new effective weights. Start calls it on a timer; tests and
// deterministic replays may call it directly instead.
func (r *Router) Tick() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, st := range r.shards {
		st.health.tick(healthyNow(st.gw.Stats()), r.cfg.Health)
		st.publish()
		r.weights[i].Set(st.weight())
	}
}

// SetBias scales a shard's effective weight by bias ∈ [0,1] on top of
// health — the traffic-shifting actuator: a balancer lowers the bias of
// an expensive (spot-spiked) region to move load toward cheaper regions
// without waiting for breakers to open. Out-of-range values clamp.
func (r *Router) SetBias(shard int, bias float64) {
	if shard < 0 || shard >= len(r.shards) {
		return
	}
	if bias < 0 {
		bias = 0
	}
	if bias > 1 {
		bias = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.shards[shard]
	st.bias = bias
	st.publish()
	r.weights[shard].Set(st.weight())
}

// Start launches the background health loop. The router observes only;
// gateway lifecycles stay with the caller.
func (r *Router) Start() {
	if !r.started.CompareAndSwap(false, true) {
		return
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		tick := time.NewTicker(r.cfg.HealthInterval)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				r.Tick()
			}
		}
	}()
}

// Stop halts the health loop. Idempotent; in-flight submissions drain
// through their gateways untouched.
func (r *Router) Stop() {
	if !r.started.CompareAndSwap(true, false) {
		return
	}
	close(r.stop)
	r.wg.Wait()
}

// Status is one shard's routing view for reports and balancers.
type Status struct {
	Shard    int     `json:"shard"`
	Region   string  `json:"region"`
	Weight   float64 `json:"weight"`
	Bias     float64 `json:"bias"`
	Inflight int64   `json:"inflight"`
	Serving  serving.Stats
}

// Statuses snapshots every shard.
func (r *Router) Statuses() []Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Status, len(r.shards))
	for i, st := range r.shards {
		out[i] = Status{
			Shard:    i,
			Region:   st.region,
			Weight:   st.weight(),
			Bias:     st.bias,
			Inflight: st.inflight.Load(),
			Serving:  st.gw.Stats(),
		}
	}
	return out
}

// Regions returns the distinct shard regions in first-seen order.
func (r *Router) Regions() []string {
	seen := map[string]bool{}
	var out []string
	for _, st := range r.shards {
		if !seen[st.region] {
			seen[st.region] = true
			out = append(out, st.region)
		}
	}
	return out
}
