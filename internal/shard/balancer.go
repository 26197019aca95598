package shard

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"ccperf/internal/autoscale"
	"ccperf/internal/cloud"
	"ccperf/internal/fault"
	"ccperf/internal/serving"
)

// Balancer closes the regional control loop over a Router: each tick it
// assembles per-region signals (current price under any spot spikes,
// routing weights, queue pressure and latency aggregated across the
// region's shards), asks the pure autoscale.RegionalPolicy for actions,
// and actuates them — biases on the router for traffic shifting, ladder
// rungs on the region's gateways for degradation. It follows the
// observe/decide/actuate shape of autoscale.Scaler one level up.
//
// Gateways under a Balancer should run with ExternalControl so the
// built-in per-gateway controller does not fight the regional one over
// the ladder.
type Balancer struct {
	r     *Router
	pol   autoscale.RegionalPolicy
	sched *fault.Schedule

	interval time.Duration
	elapsed  func() float64

	mu    sync.Mutex
	ticks int
	last  []autoscale.RegionAction

	stop    chan struct{}
	wg      sync.WaitGroup
	started atomic.Bool
}

// NewBalancer validates the policy and binds it to the router. sched
// supplies spot-spike pricing (nil = catalog pricing only).
func NewBalancer(r *Router, pol autoscale.RegionalPolicy, sched *fault.Schedule, interval time.Duration) (*Balancer, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	start := time.Now()
	return &Balancer{
		r:        r,
		pol:      pol,
		sched:    sched,
		interval: interval,
		elapsed:  func() float64 { return time.Since(start).Seconds() },
		stop:     make(chan struct{}),
	}, nil
}

// observe assembles the per-region signals at elapsed seconds into the
// run, in Router.Regions() order.
func (b *Balancer) observe(elapsed float64) []autoscale.RegionSignal {
	regions := b.r.Regions()
	byRegion := make(map[string]*autoscale.RegionSignal, len(regions))
	var out []autoscale.RegionSignal
	for _, name := range regions {
		pm := 1.0
		if reg, err := cloud.RegionByName(name); err == nil {
			pm = reg.PriceMultiplier
		}
		pm *= b.sched.PriceMultiplier(name, elapsed)
		byRegion[name] = &autoscale.RegionSignal{Region: name, PriceMultiplier: pm, Bias: 1}
	}
	for _, st := range b.r.Statuses() {
		sig := byRegion[st.Region]
		// The region's weight is its best shard's; bias likewise — the
		// balancer sets them region-wide, so any shard is representative,
		// but max() keeps a half-drained region visible as alive.
		if st.Weight > sig.Weight {
			sig.Weight = st.Weight
		}
		if st.Bias < sig.Bias {
			sig.Bias = st.Bias
		}
		cs := st.Serving
		if qf := float64(cs.QueueDepth) / float64(cs.QueueCap); qf > sig.QueueFrac {
			sig.QueueFrac = qf
		}
		if cs.Variant > sig.Variant {
			sig.Variant = cs.Variant
		}
		for _, win := range b.r.shards[st.Shard].gw.Observe() {
			if win.P99 > sig.P99 {
				sig.P99 = win.P99
			}
			sig.Samples += win.Samples
		}
		sig.Variants = len(b.r.shards[st.Shard].gw.Config().Ladder)
	}
	for _, name := range regions {
		out = append(out, *byRegion[name])
	}
	return out
}

// actuate applies the actions: each region's bias lands on every one of
// its shards, and a ladder move lands on every one of its gateways.
func (b *Balancer) actuate(ctx context.Context, actions []autoscale.RegionAction) {
	byRegion := make(map[string]autoscale.RegionAction, len(actions))
	for _, a := range actions {
		byRegion[a.Region] = a
	}
	for i, st := range b.r.shards {
		a, ok := byRegion[st.region]
		if !ok {
			continue
		}
		switch a.Verb {
		case autoscale.ShiftAway, autoscale.ShiftBack:
			b.r.SetBias(i, a.Bias)
		case autoscale.RegionDegrade, autoscale.RegionRestore:
			st.gw.SetVariant(ctx, serving.DefaultTenant, a.Variant)
		}
	}
}

// TickAt runs one observe→decide→actuate round at an explicit elapsed
// time — the deterministic entry point tests and replays drive; Tick and
// the Start loop feed it the wall clock.
func (b *Balancer) TickAt(ctx context.Context, elapsed float64) []autoscale.RegionAction {
	signals := b.observe(elapsed)
	actions := b.pol.Decide(signals)
	b.actuate(ctx, actions)
	b.mu.Lock()
	b.ticks++
	b.last = actions
	b.mu.Unlock()
	return actions
}

// Tick runs one round at the current wall-clock elapsed time.
func (b *Balancer) Tick(ctx context.Context) []autoscale.RegionAction {
	return b.TickAt(ctx, b.elapsed())
}

// Last returns the most recent tick's actions (nil before the first).
func (b *Balancer) Last() []autoscale.RegionAction {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.last
}

// Start launches the background control loop. Stop halts it; both are
// idempotent.
func (b *Balancer) Start() {
	if !b.started.CompareAndSwap(false, true) {
		return
	}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		tick := time.NewTicker(b.interval)
		defer tick.Stop()
		for {
			select {
			case <-b.stop:
				return
			case <-tick.C:
				b.Tick(context.Background())
			}
		}
	}()
}

// Stop halts the control loop.
func (b *Balancer) Stop() {
	if !b.started.CompareAndSwap(true, false) {
		return
	}
	close(b.stop)
	b.wg.Wait()
}
