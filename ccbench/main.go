// Command ccbench is the repository benchmark. It drives ccperf's public
// layers from outside — the serving gateway, the nn forward path and its
// tensor kernels, and the planner (engine, measure/gpusim, explore,
// cluster) — one named workload per run, checks every output it can, and
// prints each metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {name: {"value": v, "unit": u}}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
// run measures the workload once untraced and once with a span around every
// call the benchmark makes into a layer, and reports the per-layer metrics
// plus the tracing overhead. README.md in this directory defines every
// metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run builds its workload's inputs; setup_s
// is the median, and only the last build is measured.
const setupReps = 3

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is the metric set of an untraced run. Every workload reports
// every one of them; README.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rate_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"ok_frac", "frac"},
	{"mean_accuracy", "frac"},
	{"heap_mb", "MB"},
	{"alloc_kb_per_op", "KB"},
}

// perLayer is the metric set of a traced run, in report order. A layer a
// workload never calls reports 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"gen.lag_p99_ms", "ms"},
		{"serving.submit_us", "us"},
		{"serving.queue_ms", "ms"},
		{"serving.forward_ms", "ms"},
		{"serving.batch_mean", "count"},
		{"serving.busy_frac", "frac"},
		{"serving.delivery_ms", "ms"},
		{"serving.shed_frac", "frac"},
		{"serving.expired_frac", "frac"},
		{"serving.degrades", "count"},
		{"serving.restores", "count"},
	}
	for _, v := range []string{"dense", "pruned"} {
		for _, l := range caffenetTimedLayers {
			defs = append(defs, metricDef{"nn.layer_ms." + v + "." + l, "ms"})
		}
	}
	for _, k := range []string{"im2col", "gemm", "spmm"} {
		for _, l := range caffenetConvs {
			defs = append(defs, metricDef{"tensor." + k + "_ms." + l, "ms"})
		}
	}
	for _, l := range caffenetFCs {
		defs = append(defs, metricDef{"tensor.matvec_ms." + l, "ms"})
	}
	return append(defs,
		metricDef{"tensor.gemm_gflops", "GFLOP/s"},
		metricDef{"tensor.spmm_gflops", "GFLOP/s"},
		metricDef{"engine.calls", "count"},
		metricDef{"engine.hit_frac", "frac"},
		metricDef{"engine.call_us", "us"},
		metricDef{"measure.batch_us", "us"},
		metricDef{"explore.enumerate_ms", "ms"},
		metricDef{"explore.frontier_ms", "ms"},
		metricDef{"explore.allocate_ms", "ms"},
		metricDef{"explore.allocate_ops", "count"},
		metricDef{"explore.candidates", "count"},
		metricDef{"cluster.run_ms", "ms"},
		metricDef{"cluster.jobs", "count"},
		metricDef{"trace.overhead_pct", "%"},
		metricDef{"trace.spans", "count"},
	)
}

// outcome is what one measured pass of a workload produced.
type outcome struct {
	attempted, failed int64
	// checks lists failed correctness checks; any entry fails the run.
	checks []string
	// e2e holds the end-to-end metrics the workload defines (all of
	// endToEnd except setup_s and heap_mb, which main measures).
	e2e map[string]float64
	// layers holds per-layer metrics; filled only on a traced pass.
	layers map[string]float64
	// notes are human-readable report lines.
	notes []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (o *outcome) checkf(format string, args ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// runner is one workload's built inputs. run measures one pass of about
// seconds; rec is nil on an untraced pass.
type runner interface {
	run(seconds float64, rec *recorder) (*outcome, error)
	params() map[string]any
}

// workloads maps a workload name to its set-up function.
var workloads = map[string]func(seed int64) (runner, error){
	"serve-steady":   setupServeSteady,
	"serve-flash":    setupServeFlash,
	"infer-caffenet": setupInfer,
	"plan-pareto":    setupPlan,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 15, "measured seconds per pass")
	trace := flag.Int("trace", 0, "1 = add a traced pass and report per-layer metrics")
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "ccbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	var w runner
	var setupTimes []float64
	for i := 0; i < setupReps; i++ {
		w = nil
		runtime.GC()
		start := time.Now()
		var err error
		if w, err = setup(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: set-up of %s: %v\n", *name, err)
			return 1
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	meta := map[string]any{
		"workload":   *name,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"git_sha":    gitSHA(),
		"params":     w.params(),
	}
	metaJSON, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", metaJSON)

	res := result{Metrics: map[string]metricValue{}}
	var failedChecks []string
	measure := func(rec *recorder) (*outcome, bool) {
		runtime.GC()
		o, err := w.run(*seconds, rec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: %s: %v\n", *name, err)
			return nil, false
		}
		// The heap the workload retains, its inputs still held. The second
		// collection empties the sync.Pool caches the first one only moved
		// aside.
		runtime.GC()
		runtime.GC()
		o.e2e["heap_mb"] = readMetric("/gc/heap/live:bytes") / (1 << 20)
		runtime.KeepAlive(w)
		o.e2e["setup_s"] = median(setupTimes)
		res.Attempted += o.attempted
		res.Failed += o.failed
		failedChecks = append(failedChecks, o.checks...)
		return o, true
	}

	untraced, ok := measure(nil)
	if !ok {
		return 1
	}
	printReport("untraced", untraced)
	if *trace == 0 {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{untraced.e2e[d.name], d.unit}
		}
	} else {
		rec := newRecorder()
		traced, ok := measure(rec)
		if !ok {
			return 1
		}
		printReport("traced", traced)
		if u := untraced.e2e["p50_ms"]; u > 0 {
			traced.layers["trace.overhead_pct"] = 100 * (traced.e2e["p50_ms"] - u) / u
		}
		traced.layers["trace.spans"] = float64(len(rec.spans))
		fmt.Println("== per-layer metrics of the traced pass")
		printMetrics(traced.layers, perLayer)
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{traced.layers[d.name], d.unit}
		}
		dir := filepath.Join(outDir(), "spans")
		path, err := rec.write(dir, fmt.Sprintf("%s-seed%d.json", *name, *seed), meta)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: %v\n", err)
			return 1
		}
		fmt.Printf("spans    : %d kept, %d dropped, written to %s\n", len(rec.spans), rec.dropped, path)
	}

	res.Correct = len(failedChecks) == 0
	for _, c := range failedChecks {
		fmt.Printf("CHECK FAILED: %s\n", c)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ccbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// printReport prints a pass's notes and its end-to-end metrics, one per
// line.
func printReport(pass string, o *outcome) {
	fmt.Printf("== %s pass: %d attempted, %d failed\n", pass, o.attempted, o.failed)
	for _, n := range o.notes {
		fmt.Printf("   %s\n", n)
	}
	printMetrics(o.e2e, endToEnd)
}

func printMetrics(values map[string]float64, defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("   %-34s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// readMetric reads one runtime/metrics value as a float.
func readMetric(name string) float64 {
	sample := []metrics.Sample{{Name: name}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64())
}

// allocated is the number of bytes the process has allocated so far.
func allocated() float64 { return readMetric("/gc/heap/allocs:bytes") }

// outDir is where a traced run writes its spans: the build directory
// run.sh exports, inside the checkout.
func outDir() string {
	if d := os.Getenv("CCBENCH_OUT"); d != "" {
		return d
	}
	return ".bench_build"
}

// gitSHA names the commit under test, or "unknown" when the working
// directory is not the root of a git checkout.
func gitSHA() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
