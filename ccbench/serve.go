package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ccperf/internal/serving"
	"ccperf/internal/telemetry"
	"ccperf/internal/tensor"
	"ccperf/internal/workload"
)

// Serving workload parameters. The gateway runs with two replicas, each
// executing its batches on two forward workers, all in the same process as
// the load generator.
const (
	serveReplicas   = 2
	serveWorkers    = 2
	serveSLO        = 50 * time.Millisecond
	serveImages     = 64 // distinct input images, cycled
	lagBound        = 50 * time.Millisecond
	ladderRuns      = 5     // ladders per run; the knee is their median
	ladderStart     = 950.0 // first offered rate, req/s
	ladderRatio     = 1.1   // geometric step between offered rates
	ladderSteps     = 10
	ladderStepTime  = 800 * time.Millisecond
	steadyRate      = 500.0 // the fixed-rate phase, below the knee
	steadyMinWindow = 1500 * time.Millisecond
	steadyWarmup    = 300 * time.Millisecond // untimed start of each fixed window
	flashBaseRate   = 400.0                  // req/s outside the crowd
	flashMult       = 4.0                    // plateau = flashBaseRate × flashMult
	flashDeadline   = 250 * time.Millisecond
)

// flashShape is the crowd: it ramps up from 25% of the run, holds the
// plateau for 30% and ramps down again.
var flashShape = workload.FlashCrowd{At: 0.25, Ramp: 0.1, Hold: 0.3, Mult: flashMult}

// serveSetup is what both serving workloads build before measuring: the
// ladder, the input images and each image's reference class on every rung.
type serveSetup struct {
	seed   int64
	ladder []serving.Variant
	imgs   []*tensor.Tensor
	ref    [][]int // ref[rung][image] = Top-1 class of Net.Forward
}

func newServeSetup(seed int64, ratios []float64) (*serveSetup, error) {
	ladder, err := serving.DemoLadder(ratios)
	if err != nil {
		return nil, fmt.Errorf("building ladder: %w", err)
	}
	s := &serveSetup{seed: seed, ladder: ladder}
	shape := ladder[0].Net.Input
	for i := 0; i < serveImages; i++ {
		s.imgs = append(s.imgs, serving.SyntheticImage(shape.C, shape.H, shape.W, seed*1_000_003+int64(i)))
	}
	for _, v := range ladder {
		classes := make([]int, len(s.imgs))
		for i, img := range s.imgs {
			classes[i] = v.Net.ForwardAlloc(img).ArgMax()
		}
		s.ref = append(s.ref, classes)
	}
	return s, nil
}

func (s *serveSetup) gateway(deadline time.Duration) (*serving.Gateway, error) {
	g, err := serving.New(serving.Config{
		Ladder:         s.ladder,
		Replicas:       serveReplicas,
		ForwardWorkers: serveWorkers,
		SLO:            serveSLO,
		Deadline:       deadline,
		Registry:       telemetry.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	g.Start()
	return g, nil
}

// sent is one open-loop request. Offsets are from the driver's origin.
type sent struct {
	step      int
	img       int
	sched     time.Duration // when it was due
	submit    time.Duration // when Submit was called
	inSubmit  time.Duration // time spent inside Submit
	done      time.Duration // when the client received the answer
	admitErr  error
	resp      serving.Response
	answered  bool
	deadlined bool // carried a deadline
}

// latency is the client-observed latency from the scheduled send time;
// a request that was never answered has infinite latency.
func (r *sent) latency() float64 {
	if !r.answered || r.resp.Err != nil {
		return math.Inf(1)
	}
	return ms(r.done - r.sched)
}

// driver is the benchmark's open-loop load generator: one goroutine
// submits each request when it is due, whether or not earlier ones have
// been answered, and one goroutine per admitted request waits for its
// answer.
type driver struct {
	s        *serveSetup
	g        *serving.Gateway
	deadline time.Duration // per request, counted from the scheduled send
	rec      *recorder
	origin   time.Time

	wg          sync.WaitGroup
	reqs        []*sent
	outstanding atomic.Int64
}

func newDriver(s *serveSetup, g *serving.Gateway, deadline time.Duration, rec *recorder) *driver {
	return &driver{s: s, g: g, deadline: deadline, rec: rec, origin: time.Now()}
}

// send submits arrivals (seconds from the driver's origin) as step step.
// slow counts answered requests slower than the SLO and unanswered ones.
func (d *driver) send(arrivals []float64, step int, slow *atomic.Int64, parent int32) {
	for _, at := range arrivals {
		due := time.Duration(at * float64(time.Second))
		if wait := due - time.Since(d.origin); wait > 0 {
			time.Sleep(wait)
		}
		r := &sent{step: step, img: len(d.reqs) % len(d.s.imgs), sched: due}
		d.reqs = append(d.reqs, r)
		var deadline time.Time
		if d.deadline > 0 {
			deadline = d.origin.Add(due + d.deadline)
			r.deadlined = true
		}
		id := d.rec.begin("serving.submit", parent)
		t0 := time.Now()
		ch, err := d.g.Submit(context.Background(), d.s.imgs[r.img], deadline)
		t1 := time.Now()
		d.rec.end(id)
		r.submit, r.inSubmit = t0.Sub(d.origin), t1.Sub(t0)
		if err != nil {
			r.admitErr = err
			slow.Add(1)
			continue
		}
		d.outstanding.Add(1)
		d.wg.Add(1)
		go func(r *sent) {
			defer d.wg.Done()
			r.resp = <-ch
			r.done = time.Since(d.origin)
			r.answered = true
			d.outstanding.Add(-1)
			if r.resp.Err != nil || r.done-r.sched > serveSLO {
				slow.Add(1)
			}
		}(r)
	}
}

// wait stops the gateway, which answers everything still queued, and
// waits for every answer to reach its client.
func (d *driver) wait() {
	d.g.Stop()
	d.wg.Wait()
}

// ledger classifies requests by outcome. Every submitted request lands
// in exactly one class; wrong counts served requests whose class differs
// from the reference.
type ledger struct {
	submitted, ok, late, wrong, shed, expired, faulted, stopped, errored int64
	accSum                                                               float64
}

func (l *ledger) failed() int64 { return l.submitted - l.ok }

func (l *ledger) add(m *ledger) {
	l.submitted, l.ok, l.late, l.wrong = l.submitted+m.submitted, l.ok+m.ok, l.late+m.late, l.wrong+m.wrong
	l.shed, l.expired, l.faulted = l.shed+m.shed, l.expired+m.expired, l.faulted+m.faulted
	l.stopped, l.errored, l.accSum = l.stopped+m.stopped, l.errored+m.errored, l.accSum+m.accSum
}

func (l *ledger) String() string {
	return fmt.Sprintf("%d submitted = %d ok + %d late + %d wrong class + %d shed + %d expired + %d faulted + %d stopped + %d errored",
		l.submitted, l.ok, l.late, l.wrong, l.shed, l.expired, l.faulted, l.stopped, l.errored)
}

// classify tallies reqs and checks each served class against the
// reference Net.Forward at the rung the response reports.
func (d *driver) classify(reqs []*sent, o *outcome) *ledger {
	l := &ledger{}
	for _, r := range reqs {
		l.submitted++
		err := r.admitErr
		if err == nil {
			err = r.resp.Err
		}
		switch {
		case err == nil:
			switch want := d.s.ref[r.resp.Variant][r.img]; {
			case r.resp.Class != want:
				l.wrong++
				if l.wrong <= 3 {
					o.checkf("request %d at rung %d: class %d, reference Net.Forward gives %d",
						r.resp.ID, r.resp.Variant, r.resp.Class, want)
				}
			case r.deadlined && r.done > r.sched+d.deadline:
				l.late++
			default:
				l.ok++
				l.accSum += r.resp.Accuracy
			}
		case errors.Is(err, serving.ErrOverloaded):
			l.shed++
		case errors.Is(err, serving.ErrExpired):
			l.expired++
		case errors.Is(err, serving.ErrFaulted):
			l.faulted++
		case errors.Is(err, serving.ErrStopped):
			l.stopped++
		default:
			l.errored++
		}
	}
	if sum := l.ok + l.late + l.wrong + l.shed + l.expired + l.faulted + l.stopped + l.errored; sum != l.submitted {
		o.checkf("outcome ledger: %d submitted but %d classified", l.submitted, sum)
	}
	return l
}

// checkGateway asserts the client-side ledger against the gateway's own
// counters once it has stopped.
func checkGateway(st serving.Stats, l *ledger, o *outcome) {
	if served := l.ok + l.late + l.wrong; st.Served != served {
		o.checkf("gateway served %d, clients received %d answers", st.Served, served)
	}
	if st.Shed != l.shed {
		o.checkf("gateway shed %d, clients saw %d sheds", st.Shed, l.shed)
	}
	if st.Expired != l.expired {
		o.checkf("gateway expired %d, clients saw %d expiries", st.Expired, l.expired)
	}
}

// genLag returns the p99 gap between scheduled and actual submit, in ms.
func genLag(reqs []*sent) float64 {
	lags := make([]float64, len(reqs))
	for i, r := range reqs {
		lags[i] = ms(r.submit - r.sched)
	}
	return quantile(lags, 0.99)
}

// servingLayers fills the serving per-layer metrics from the requests the
// gateways served and the generator's lag.
func servingLayers(o *outcome, gs []*serving.Gateway, reqs []*sent, lag float64) {
	var queue, batch, delivery, submit []float64
	for _, r := range reqs {
		submit = append(submit, float64(r.inSubmit.Nanoseconds())/1e3)
		if r.answered && r.resp.Err == nil {
			queue = append(queue, ms(r.resp.Queue))
			batch = append(batch, float64(r.resp.Batch))
			delivery = append(delivery, ms(r.done-r.submit-r.resp.Total))
		}
	}
	var busy, replicaSeconds, fwdMS, fwdN float64
	var shed, expired, degrades, restores int64
	for _, g := range gs {
		st := g.Stats()
		_, b := g.ExecStats()
		fwd := g.StageStats().NNForward
		busy += b
		replicaSeconds += st.ReplicaSeconds
		fwdMS += fwd.MeanMS * float64(fwd.Count)
		fwdN += float64(fwd.Count)
		shed, expired = shed+st.Shed, expired+st.Expired
		degrades, restores = degrades+st.Degrades, restores+st.Restores
	}
	n := float64(len(reqs))
	o.layers["gen.lag_p99_ms"] = lag
	o.layers["serving.submit_us"] = median(submit)
	o.layers["serving.queue_ms"] = mean(queue)
	if fwdN > 0 {
		o.layers["serving.forward_ms"] = fwdMS / fwdN
	}
	o.layers["serving.batch_mean"] = mean(batch)
	o.layers["serving.busy_frac"] = busy / replicaSeconds
	o.layers["serving.delivery_ms"] = median(delivery)
	o.layers["serving.shed_frac"] = float64(shed) / n
	o.layers["serving.expired_frac"] = float64(expired) / n
	o.layers["serving.degrades"] = float64(degrades)
	o.layers["serving.restores"] = float64(restores)
}

// latencies returns each request's latency from its scheduled send, ms.
func latencies(reqs []*sent) []float64 {
	out := make([]float64, len(reqs))
	for i, r := range reqs {
		out[i] = r.latency()
	}
	return out
}

// uniformArrivals is an open-loop Poisson stream at rate req/s for dur,
// offset by from seconds: workload.ArrivalTimes over a uniform trace.
func uniformArrivals(rate float64, dur time.Duration, from float64, seed int64) ([]float64, error) {
	const windows = 10
	tr, err := workload.Generate(workload.Config{
		Pattern:    workload.Uniform,
		DailyTotal: int64(math.Round(rate * dur.Seconds())),
		Windows:    windows,
	})
	if err != nil {
		return nil, err
	}
	at := workload.ArrivalTimes(tr, dur.Seconds()/windows, seed)
	for i := range at {
		at[i] += from
	}
	return at, nil
}

// ---- serve-steady -----------------------------------------------------

type serveSteady struct{ *serveSetup }

func setupServeSteady(seed int64) (runner, error) {
	s, err := newServeSetup(seed, []float64{0})
	if err != nil {
		return nil, err
	}
	return serveSteady{s}, nil
}

func (w serveSteady) params() map[string]any {
	return map[string]any{
		"replicas": serveReplicas, "forward_workers": serveWorkers, "ladder": "tinynet@0",
		"slo_ms": ms(serveSLO), "ladders": ladderRuns, "ladder_start_rps": ladderStart,
		"ladder_ratio": ladderRatio, "ladder_steps": ladderSteps, "ladder_step_s": ladderStepTime.Seconds(),
		"steady_rps": steadyRate, "steady_warmup_s": steadyWarmup.Seconds(),
		"lag_bound_ms": ms(lagBound),
		"images":       serveImages,
	}
}

// step is one rung of the offered-rate ladder as judged after the run.
type step struct {
	rate    float64
	n       int
	p99     float64 // answered requests only, ms
	fail    float64 // unanswered or failed share
	backlog float64 // outstanding at step end over rate·SLO
}

// badness folds a step's three limits into one number that is ≤ 1 exactly
// when the step passes: p99 under the SLO, at most 1% failed, and no
// backlog beyond one SLO's worth of arrivals.
func (s step) badness() float64 {
	return math.Max(s.p99/ms(serveSLO), math.Max(s.fail/0.01, s.backlog))
}

func (w serveSteady) run(seconds float64, rec *recorder) (*outcome, error) {
	o := newOutcome()
	start := time.Now()
	round := seconds / ladderRuns

	// Rounds: a ladder steps the offered rate up until a step fails, then
	// a window at the fixed rate below the knee runs until the round's
	// share of the pass is used. The knee, p50 and p90 are medians over the
	// rounds, which spreads each one's samples across the whole pass.
	var knees, p50s, p90s, timed []float64
	var passed, fixed []*sent
	var gs []*serving.Gateway
	var alloc float64
	total := &ledger{}
	for l := 0; l < ladderRuns; l++ {
		knee, reqs, err := w.ladder(l, rec, o)
		if err != nil {
			return nil, err
		}
		knees = append(knees, knee)
		passed = append(passed, reqs...)

		end := time.Duration(float64(l+1) * round * float64(time.Second))
		g, d, a, err := w.window(l, max(steadyMinWindow, end-time.Since(start)), rec)
		if err != nil {
			return nil, err
		}
		gs, alloc = append(gs, g), alloc+a
		fixed = append(fixed, d.reqs...)
		var lat []float64
		for _, r := range d.reqs {
			if r.sched >= steadyWarmup {
				lat = append(lat, r.latency())
			}
		}
		timed = append(timed, lat...)
		p50s, p90s = append(p50s, quantile(lat, 0.5)), append(p90s, quantile(lat, 0.9))
		led := d.classify(d.reqs, o)
		checkGateway(g.Stats(), led, o)
		total.add(led)
	}

	lag := genLag(append(passed, fixed...))
	if lag > ms(lagBound) {
		o.checkf("open-loop generator fell behind: p99 submit lag %.2f ms > %.0f ms bound, run invalid", lag, ms(lagBound))
	}
	o.attempted, o.failed = total.submitted, total.failed()
	o.e2e["rate_per_s"] = median(knees)
	o.e2e["alloc_kb_per_op"] = alloc / 1024 / float64(total.submitted)
	o.e2e["p50_ms"] = median(p50s)
	o.e2e["tail_ms"] = median(p90s)
	o.e2e["ok_frac"] = float64(total.ok) / float64(total.submitted)
	if total.ok > 0 {
		o.e2e["mean_accuracy"] = total.accSum / float64(total.ok)
	}
	o.notef("knee_rps %.1f 1/s (rate_per_s), the median of %.1f", o.e2e["rate_per_s"], knees)
	o.notef("fixed windows at %.0f req/s: %s", steadyRate, total)
	o.notef("p50_ms %.3f ms of %.2f and p90_ms %.3f ms (tail_ms) of %.2f, medians over the windows; p99_ms %.3f ms over all %d timed requests; all from the scheduled send",
		o.e2e["p50_ms"], p50s, o.e2e["tail_ms"], p90s, quantile(timed, 0.99), len(timed))
	o.notef("fail_frac %.4f, gen.lag_p99_ms %.3f ms", 1-o.e2e["ok_frac"], lag)
	if rec != nil {
		servingLayers(o, gs, fixed, lag)
	}
	return o, nil
}

// window serves steadyRate for dur on a fresh gateway, once the garbage of
// what ran before is collected. Requests due in its first steadyWarmup
// warm the gateway up: they are checked and counted, but not timed. It
// returns the stopped gateway, the driver with its requests and the bytes
// allocated while they ran.
func (w serveSteady) window(l int, dur time.Duration, rec *recorder) (*serving.Gateway, *driver, float64, error) {
	runtime.GC()
	g, err := w.gateway(0)
	if err != nil {
		return nil, nil, 0, err
	}
	d := newDriver(w.serveSetup, g, 0, rec)
	at, err := uniformArrivals(steadyRate, dur, 0, w.seed*7919+int64(1_000_003*(l+1)))
	if err != nil {
		return nil, nil, 0, err
	}
	root := rec.begin("gen.fixed", 0)
	var slow atomic.Int64
	alloc0 := allocated()
	d.send(at, 0, &slow, root)
	d.wait()
	alloc := allocated() - alloc0
	rec.end(root)
	return g, d, alloc, nil
}

// ladder runs ladder l on a fresh gateway: the offered rate steps up
// until a step fails. It returns the knee and the requests of the steps
// before the first failing one.
func (w serveSteady) ladder(l int, rec *recorder, o *outcome) (float64, []*sent, error) {
	g, err := w.gateway(0)
	if err != nil {
		return 0, nil, err
	}
	d := newDriver(w.serveSetup, g, 0, rec)
	root := rec.begin("gen.ladder", 0)
	var backlog []float64
	rate := ladderStart
	for k := 0; k < ladderSteps; k++ {
		from := float64(k) * ladderStepTime.Seconds()
		at, err := uniformArrivals(rate, ladderStepTime, from, w.seed*7919+int64(1000*l+k))
		if err != nil {
			return 0, nil, err
		}
		var slow atomic.Int64
		d.send(at, k, &slow, root)
		if wait := time.Duration((from+ladderStepTime.Seconds())*float64(time.Second)) - time.Since(d.origin); wait > 0 {
			time.Sleep(wait)
		}
		backlog = append(backlog, float64(d.outstanding.Load())/(rate*serveSLO.Seconds()))
		if float64(slow.Load()) > 0.01*float64(len(at)) || backlog[k] > 1 {
			break
		}
		rate *= ladderRatio
	}
	d.wait()
	rec.end(root)
	led := d.classify(d.reqs, o)
	checkGateway(g.Stats(), led, o)

	steps := make([]step, len(backlog))
	answered := make([][]float64, len(steps))
	for i := range steps {
		steps[i] = step{rate: ladderStart * math.Pow(ladderRatio, float64(i)), backlog: backlog[i]}
	}
	for _, r := range d.reqs {
		s := &steps[r.step]
		s.n++
		if lat := r.latency(); math.IsInf(lat, 1) {
			s.fail++
		} else {
			answered[r.step] = append(answered[r.step], lat)
		}
	}
	for i := range steps {
		steps[i].fail /= float64(steps[i].n)
		steps[i].p99 = quantile(answered[i], 0.99)
		o.notef("ladder %d step %d: %7.1f req/s offered, %5d sent, p99 %7.2f ms, failed %5.2f%%, backlog %.2f, badness %.2f",
			l, i, steps[i].rate, steps[i].n, steps[i].p99, 100*steps[i].fail, steps[i].backlog, steps[i].badness())
	}
	knee, kneeStep := kneeOf(steps)
	var passed []*sent
	for _, r := range d.reqs {
		if r.step < kneeStep {
			passed = append(passed, r)
		}
	}
	o.notef("ladder %d: knee %.1f req/s; %s", l, knee, led)
	return knee, passed, nil
}

// kneeOf interpolates the offered rate at which a step's badness crosses 1,
// linearly between the last passing and the first failing step, and
// returns the index of the first failing step.
func kneeOf(steps []step) (float64, int) {
	for i, s := range steps {
		b := s.badness()
		if b <= 1 {
			continue
		}
		if i == 0 {
			return s.rate / b, 0
		}
		p := steps[i-1]
		pb := p.badness()
		return p.rate + (s.rate-p.rate)*(1-pb)/(b-pb), i
	}
	last := steps[len(steps)-1]
	return last.rate, len(steps)
}

// ---- serve-flash ------------------------------------------------------

type serveFlash struct{ *serveSetup }

func setupServeFlash(seed int64) (runner, error) {
	s, err := newServeSetup(seed, serving.DefaultLadderRatios)
	if err != nil {
		return nil, err
	}
	return serveFlash{s}, nil
}

func (w serveFlash) params() map[string]any {
	return map[string]any{
		"replicas": serveReplicas, "forward_workers": serveWorkers,
		"ladder_ratios": serving.DefaultLadderRatios, "slo_ms": ms(serveSLO),
		"deadline_ms": ms(flashDeadline), "base_rps": flashBaseRate, "shape": flashShape.String(),
		"lag_bound_ms": ms(lagBound), "images": serveImages,
	}
}

func (w serveFlash) run(seconds float64, rec *recorder) (*outcome, error) {
	o := newOutcome()
	meanIntensity := 1 + (flashShape.Mult-1)*(flashShape.Ramp+flashShape.Hold)
	total := int64(math.Round(flashBaseRate * seconds * meanIntensity))
	at := workload.ShapedArrivals(total, seconds, []workload.Shape{flashShape}, w.seed*104729)
	g, err := w.gateway(flashDeadline)
	if err != nil {
		return nil, err
	}
	d := newDriver(w.serveSetup, g, flashDeadline, rec)
	root := rec.begin("gen.flash", 0)
	var slow atomic.Int64
	alloc0 := allocated()
	d.send(at, 0, &slow, root)
	d.wait()
	alloc := allocated() - alloc0
	rec.end(root)
	wall := time.Since(d.origin).Seconds()
	l := d.classify(d.reqs, o)
	st := g.Stats()
	checkGateway(st, l, o)
	lat := latencies(d.reqs)
	lag := genLag(d.reqs)
	if lag > ms(lagBound) {
		o.checkf("open-loop generator fell behind: p99 submit lag %.2f ms > %.0f ms bound, run invalid", lag, ms(lagBound))
	}
	o.attempted, o.failed = l.submitted, l.failed()
	o.e2e["rate_per_s"] = float64(l.ok) / wall
	o.e2e["alloc_kb_per_op"] = alloc / 1024 / float64(l.submitted)
	o.e2e["p50_ms"] = quantile(lat, 0.5)
	o.e2e["tail_ms"] = quantile(lat, 0.99)
	o.e2e["ok_frac"] = float64(l.ok) / float64(l.submitted)
	if l.ok > 0 {
		o.e2e["mean_accuracy"] = l.accSum / float64(l.ok)
	}
	perRung := make([]int, len(w.ladder))
	for _, r := range d.reqs {
		if r.answered && r.resp.Err == nil {
			perRung[r.resp.Variant]++
		}
	}
	o.notef("offered %d requests over %.1f s, %s; served per rung %v", total, seconds, flashShape, perRung)
	o.notef("ledger: %s", l)
	o.notef("ladder moves: %d degrades, %d restores; on-time goodput %.1f req/s (rate_per_s)", st.Degrades, st.Restores, o.e2e["rate_per_s"])
	o.notef("p50_ms %.3f ms, p99_ms %.3f ms (tail_ms), fail_frac %.4f, mean_accuracy %.4f, gen.lag_p99_ms %.3f ms",
		o.e2e["p50_ms"], o.e2e["tail_ms"], 1-o.e2e["ok_frac"], o.e2e["mean_accuracy"], lag)
	if rec != nil {
		servingLayers(o, []*serving.Gateway{g}, d.reqs, lag)
	}
	return o, nil
}
