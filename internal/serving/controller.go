package serving

import (
	"context"
	"time"

	"ccperf/internal/telemetry"
)

// Action is one control decision.
type Action int

// Control decisions.
const (
	// Hold keeps the current variant.
	Hold Action = iota
	// Degrade moves one step toward more pruning (faster, less accurate).
	Degrade
	// Restore moves one step toward less pruning (slower, more accurate).
	Restore
)

// String names the action.
func (a Action) String() string {
	switch a {
	case Degrade:
		return "degrade"
	case Restore:
		return "restore"
	default:
		return "hold"
	}
}

// Signal is what the controller observed over one interval.
type Signal struct {
	// P99 is the interval's p99 total latency in seconds (0 when Samples
	// is 0).
	P99 float64
	// Samples is the number of completed requests in the interval.
	Samples int
	// QueueFrac is the admission-queue fill fraction at tick time.
	QueueFrac float64
	// Healthy is the consecutive-healthy-interval count entering the tick.
	Healthy int
}

// Policy is the pure decision core of the load-adaptive pruning
// controller, separated from the goroutine so it can be tested
// deterministically. SLO fields are in seconds.
type Policy struct {
	SLOSeconds         float64
	DegradeUtilization float64 // queue fraction forcing a degrade
	RestoreFraction    float64 // healthy iff p99 < SLO·RestoreFraction
	HoldIntervals      int     // healthy intervals required per restore
}

// Decide maps one interval's signal to an action and the next healthy
// streak. A violated SLO (p99 over target, or queue pressure past the
// utilization bound) degrades immediately; restoration needs HoldIntervals
// consecutive healthy intervals — asymmetric on purpose, the classic
// fast-down/slow-up rule that keeps the fleet from oscillating.
// An idle interval (no samples) with an empty queue counts as healthy.
func (p Policy) Decide(s Signal) (Action, int) {
	violated := s.QueueFrac >= p.DegradeUtilization ||
		(s.Samples > 0 && s.P99 > p.SLOSeconds)
	if violated {
		return Degrade, 0
	}
	healthy := s.QueueFrac < p.DegradeUtilization &&
		(s.Samples == 0 || s.P99 <= p.SLOSeconds*p.RestoreFraction)
	if !healthy {
		return Hold, 0
	}
	streak := s.Healthy + 1
	if streak >= p.HoldIntervals {
		return Restore, 0
	}
	return Hold, streak
}

// policy derives the Policy from the gateway config.
func (g *Gateway) policy() Policy {
	return Policy{
		SLOSeconds:         g.cfg.SLO.Seconds(),
		DegradeUtilization: g.cfg.DegradeUtilization,
		RestoreFraction:    g.cfg.RestoreFraction,
		HoldIntervals:      g.cfg.HoldIntervals,
	}
}

// controlLoop ticks the controller until shutdown.
func (g *Gateway) controlLoop() {
	defer g.workers.Done()
	ticker := time.NewTicker(g.cfg.ControlInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			g.controlTick()
		case <-g.stopCh:
			return
		}
	}
}

// controlTick evaluates one interval and applies the decision. It is the
// unit the tests drive directly.
func (g *Gateway) controlTick() {
	o := g.observe()
	sig := Signal{P99: o.P99, Samples: o.Samples, QueueFrac: o.QueueFrac, Healthy: g.healthy}
	action, streak := g.policy().Decide(sig)
	g.healthy = streak
	g.apply(action, sig)
}

// apply moves the pool along the ladder (clamped at the ends) and records
// the decision: a counter per direction and one span carrying the signal
// that drove it.
func (g *Gateway) apply(action Action, sig Signal) {
	cur := int(g.variant.Load())
	next := cur
	switch action {
	case Degrade:
		if cur < len(g.cfg.Ladder)-1 {
			next = cur + 1
		}
	case Restore:
		if cur > 0 {
			next = cur - 1
		}
	}
	if next == cur {
		return
	}
	g.variant.Store(int64(next))
	g.m.variantGauge.Set(float64(next))
	switch action {
	case Degrade:
		g.m.degrades.Inc()
	case Restore:
		g.m.restores.Inc()
	}
	_, finish := g.cfg.Tracer.StartSpan(context.Background(), "serving."+action.String())
	finish(
		telemetry.L("from", g.cfg.Ladder[cur].Degree.Label()),
		telemetry.L("to", g.cfg.Ladder[next].Degree.Label()),
		telemetry.L("p99_seconds", sig.P99),
		telemetry.L("samples", sig.Samples),
		telemetry.L("queue_frac", sig.QueueFrac),
	)
}
