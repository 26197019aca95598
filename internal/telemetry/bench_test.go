package telemetry

import (
	"fmt"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: ccperf
BenchmarkSpaceEnumeration
BenchmarkSpaceEnumeration-8   	      10	 123456789 ns/op	 2048 B/op	      12 allocs/op
BenchmarkAlgorithm1VsExhaustive/greedy-8         	     100	   1234567 ns/op	        86.0 model-evals
==== fig9 — some experiment printout that must be ignored
  feasible configurations          paper: 7654    measured: 7654
BenchmarkAblationBatchSize/batch=300-8           	     500	    234567 ns/op	      3760 sim-seconds-50k
PASS
ok  	ccperf	12.345s
`

func TestParseBench(t *testing.T) {
	results, err := ParseBench(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3: %+v", len(results), results)
	}
	r0 := results[0]
	if r0.Name != "BenchmarkSpaceEnumeration" || r0.Iterations != 10 {
		t.Fatalf("r0 = %+v", r0)
	}
	if r0.Values["ns/op"] != 123456789 || r0.Values["B/op"] != 2048 || r0.Values["allocs/op"] != 12 {
		t.Fatalf("r0 values = %+v", r0.Values)
	}
	r1 := results[1]
	if r1.Name != "BenchmarkAlgorithm1VsExhaustive/greedy" {
		t.Fatalf("sub-benchmark name = %q", r1.Name)
	}
	if r1.Values["model-evals"] != 86 {
		t.Fatalf("custom metric = %v", r1.Values["model-evals"])
	}
	r2 := results[2]
	if r2.Name != "BenchmarkAblationBatchSize/batch=300" || r2.Values["sim-seconds-50k"] != 3760 {
		t.Fatalf("r2 = %+v", r2)
	}
}

func TestParseBenchBadValue(t *testing.T) {
	_, err := ParseBench(strings.NewReader("BenchmarkX-8 10 oops ns/op\n"))
	if err == nil {
		t.Fatal("expected error for malformed value")
	}
}

// TestParseBenchNameEdges pins the name handling: deep sub-benchmark paths
// keep their slashes, the -GOMAXPROCS suffix is stripped exactly once and
// kept as Procs, and names whose final dash segment is not a number stay
// intact and ran at GOMAXPROCS=1.
func TestParseBenchNameEdges(t *testing.T) {
	in := strings.Join([]string{
		"BenchmarkDeep/a=1/b=2-16 4 99 ns/op",
		"BenchmarkNoProcSuffix 7 11 ns/op",              // no -GOMAXPROCS at all
		"BenchmarkTrailing/size-large-8 3 5 ns/op",      // only the numeric tail goes
		"BenchmarkDashNum/words-not-32x-bits 2 1 ns/op", // "bits" is not a proc count
	}, "\n")
	results, err := ParseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name  string
		procs int
	}{
		{"BenchmarkDeep/a=1/b=2", 16},
		{"BenchmarkNoProcSuffix", 1},
		{"BenchmarkTrailing/size-large", 8},
		{"BenchmarkDashNum/words-not-32x-bits", 1},
	}
	if len(results) != len(want) {
		t.Fatalf("results = %d, want %d: %+v", len(results), len(want), results)
	}
	for i, w := range want {
		if results[i].Name != w.name || results[i].Procs != w.procs {
			t.Errorf("result[%d] = %q at %d procs, want %q at %d", i, results[i].Name, results[i].Procs, w.name, w.procs)
		}
	}
}

// TestBenchProcs pins how a snapshot's GOMAXPROCS is read from its runs:
// the common -P suffix, 1 for unsuffixed names, and 0 when the runs
// disagree (go test -cpu 1,2) or there are none.
func TestBenchProcs(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int
	}{
		{"BenchmarkA-4 1 1 ns/op\nBenchmarkB/x-4 1 1 ns/op", 4},
		{"BenchmarkA 1 1 ns/op", 1},
		{"BenchmarkA 1 1 ns/op\nBenchmarkA-2 1 1 ns/op", 0},
		{"PASS", 0},
	} {
		results, err := ParseBench(strings.NewReader(c.in))
		if err != nil {
			t.Fatal(err)
		}
		if got := BenchProcs(results); got != c.want {
			t.Errorf("BenchProcs(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestParseBenchOddFields covers lines that start like results but are not:
// the bare pre-run name line, an odd field count (value without unit), and
// a non-numeric iteration count. All must be skipped, not errors.
func TestParseBenchOddFields(t *testing.T) {
	in := strings.Join([]string{
		"BenchmarkBare",                        // pre-run announcement line
		"BenchmarkOdd-8 10 123 ns/op trailing", // odd field count
		"BenchmarkNotIter-8 fast 1 ns/op",      // iterations not a number
		"BenchmarkReal-8 10 123 ns/op",
	}, "\n")
	results, err := ParseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Name != "BenchmarkReal" {
		t.Fatalf("results = %+v, want only BenchmarkReal", results)
	}
}

// TestParseBenchHugeLine exercises the scanner's 1MB buffer cap: a valid
// result line just under the cap parses, and a line over it is an error
// (bufio.ErrTooLong) rather than silent truncation.
func TestParseBenchHugeLine(t *testing.T) {
	line := func(pad int) string {
		return "BenchmarkHuge/pad=" + strings.Repeat("x", pad) + "-8 10 123 ns/op\n"
	}
	under := line(1<<20 - 64)
	results, err := ParseBench(strings.NewReader(under))
	if err != nil {
		t.Fatalf("line under the buffer cap: %v", err)
	}
	if len(results) != 1 || !strings.HasPrefix(results[0].Name, "BenchmarkHuge/pad=") {
		t.Fatalf("under-cap results = %d", len(results))
	}
	if _, err := ParseBench(strings.NewReader(line(1 << 20))); err == nil {
		t.Fatal("expected an error for a line over the 1MB scanner cap")
	}
}

// TestParseBenchNonNumericUnitValues: a line that is shaped like a result
// (even fields, numeric iterations) but has a non-numeric value must error
// loudly — silently dropping it would fake a missing benchmark.
func TestParseBenchNonNumericUnitValues(t *testing.T) {
	for _, in := range []string{
		"BenchmarkX-8 10 12.5.7 ns/op",         // malformed float
		"BenchmarkX-8 10 1e999x B/op",          // trailing junk
		"BenchmarkX-8 10 5 ns/op NaN-ish b/op", // second pair bad
	} {
		if _, err := ParseBench(strings.NewReader(in + "\n")); err == nil {
			t.Errorf("ParseBench(%q): expected error", in)
		}
	}
}

func TestCollectBench(t *testing.T) {
	in := strings.Join([]string{
		"BenchmarkB-8 10 200 ns/op 5 allocs/op",
		"BenchmarkA-8 3 100 ns/op",
		"BenchmarkA-8 4 110 ns/op",
		"BenchmarkA-8 5 90 ns/op",
	}, "\n")
	results, err := ParseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	series := CollectBench(results)
	if len(series) != 2 || series[0].Name != "BenchmarkA" || series[1].Name != "BenchmarkB" {
		t.Fatalf("series = %+v, want sorted [BenchmarkA BenchmarkB]", series)
	}
	a := series[0]
	if got := a.Values["ns/op"]; len(got) != 3 || got[0] != 100 || got[1] != 110 || got[2] != 90 {
		t.Fatalf("-count samples lost: %v", got)
	}
	if len(a.Iterations) != 3 || a.Iterations[1] != 4 {
		t.Fatalf("iterations = %v", a.Iterations)
	}
	set := BenchSet{Benchmarks: series}
	if s := set.Series("BenchmarkB"); s == nil || s.Values["allocs/op"][0] != 5 {
		t.Fatalf("Series lookup failed: %+v", s)
	}
	if set.Series("BenchmarkC") != nil {
		t.Fatal("Series on a missing name must return nil")
	}
}

func TestBenchMetaString(t *testing.T) {
	for _, c := range []struct {
		meta BenchMeta
		want string
	}{
		{BenchMeta{}, "unknown"},
		{BenchMeta{GitSHA: "abc1234"}, "abc1234"},
		{BenchMeta{GitSHA: "abc1234", Benchtime: "1s", Count: 5, GoVersion: "go1.24.0", GOMAXPROCS: 2, NumCPU: 4, Note: "ci"},
			"abc1234 (-benchtime 1s -count 5 go1.24.0 GOMAXPROCS=2 NumCPU=4 ci)"},
	} {
		if got := c.meta.String(); got != c.want {
			t.Errorf("%+v: String() = %q, want %q", c.meta, got, c.want)
		}
	}
}

// TestCollectBenchKeepsProcsApart pins that runs at different GOMAXPROCS
// never share a series: `go test -cpu 1,2` output gives one series per
// value, named with its -P suffix, while a benchmark that ran at one value
// keeps its bare name, as every committed BENCH_<n>.json records it.
func TestCollectBenchKeepsProcsApart(t *testing.T) {
	results, err := ParseBench(strings.NewReader(strings.Join([]string{
		"BenchmarkFoo 10 100 ns/op",
		"BenchmarkFoo-2 10 50 ns/op",
		"BenchmarkFoo 10 110 ns/op",
		"BenchmarkBar-2 10 7 ns/op",
		"BenchmarkBar-2 10 8 ns/op",
	}, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]float64{
		"BenchmarkBar":   {7, 8},
		"BenchmarkFoo-1": {100, 110},
		"BenchmarkFoo-2": {50},
	}
	series := CollectBench(results)
	if len(series) != len(want) {
		t.Fatalf("series = %+v, want %v", series, want)
	}
	for _, s := range series {
		w, ok := want[s.Name]
		if got := s.Values["ns/op"]; !ok || fmt.Sprint(got) != fmt.Sprint(w) {
			t.Errorf("series %s ns/op = %v, want %v", s.Name, got, w)
		}
	}
}
