package benchdiff

import (
	"fmt"
	"os"
	"strings"

	"ccperf/internal/report"
	"ccperf/internal/telemetry"
)

// Load reads a ccperf/v1 bench envelope from path into a BenchSet.
//
// Two payload shapes are accepted: the sample-preserving BenchSet written
// by current `ccperf benchjson`, and the legacy telemetry.Snapshot shape
// earlier snapshots used ("bench.<Name>.<unit>" gauges). Legacy points
// lose per-run variance — every series carries a single sample — so
// comparisons against them fall back to pure threshold tests.
func Load(path string) (*telemetry.BenchSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	env, err := report.ReadEnvelope(f)
	if err != nil {
		return nil, fmt.Errorf("benchdiff: %s: %w", path, err)
	}
	var set telemetry.BenchSet
	if err := env.Decode(report.KindBench, &set); err != nil {
		return nil, fmt.Errorf("benchdiff: %s: %w", path, err)
	}
	if len(set.Benchmarks) > 0 {
		return &set, nil
	}
	// Fall back to the legacy Snapshot gauge shape.
	var snap telemetry.Snapshot
	if err := env.Decode(report.KindBench, &snap); err != nil {
		return nil, fmt.Errorf("benchdiff: %s: %w", path, err)
	}
	legacy := fromSnapshot(&snap)
	if len(legacy.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchdiff: %s: no benchmarks in bench payload", path)
	}
	return legacy, nil
}

// fromSnapshot reconstructs a BenchSet from the legacy gauge naming
// "bench.<Name>.<unit>", reversing sanitizeUnit's "/"→"_per_" mapping for
// the common units so direction classification still works.
func fromSnapshot(s *telemetry.Snapshot) *telemetry.BenchSet {
	var results []telemetry.BenchResult
	byName := make(map[string]int)
	for key, v := range s.Gauges {
		rest, ok := strings.CutPrefix(key, "bench.")
		if !ok {
			continue
		}
		i := strings.LastIndex(rest, ".")
		if i <= 0 || i == len(rest)-1 {
			continue
		}
		name, unit := rest[:i], desanitizeUnit(rest[i+1:])
		j, ok := byName[name]
		if !ok {
			j = len(results)
			byName[name] = j
			results = append(results, telemetry.BenchResult{
				Name:   name,
				Values: make(map[string]float64),
			})
		}
		results[j].Values[unit] = v
	}
	for name, j := range byName {
		if n, ok := s.Counters["bench."+name+".iterations"]; ok {
			results[j].Iterations = n
		}
	}
	return &telemetry.BenchSet{
		UnixNano:   s.UnixNano,
		Meta:       telemetry.BenchMeta{Note: "legacy snapshot"},
		Benchmarks: telemetry.CollectBench(results),
	}
}

// desanitizeUnit reverses telemetry's sanitizeUnit for metric-name
// segments ("ns_per_op" → "ns/op").
func desanitizeUnit(u string) string {
	return strings.ReplaceAll(u, "_per_", "/")
}

// SnapshotEnv returns the scripts/bench-snapshot.sh settings, one shell
// assignment a line and single-quoted for eval, that rerun the benchmarks
// gate selects the way baseline recorded them: BENCH is gate as the
// -bench filter, BENCHTIME and COUNT are baseline's -benchtime and
// -count. go test splits -bench only at slashes outside parentheses and
// brackets, so DefaultGatePattern matches top-level names whole and runs
// every sub-benchmark of a gated one.
func SnapshotEnv(baseline *telemetry.BenchSet, gate string) (string, error) {
	if baseline.Meta.Benchtime == "" || baseline.Meta.Count <= 0 {
		return "", fmt.Errorf("no -benchtime and -count recorded, so no rerun can match it")
	}
	quote := func(v string) string { return "'" + strings.ReplaceAll(v, "'", `'\''`) + "'" }
	return fmt.Sprintf("BENCH=%s\nBENCHTIME=%s\nCOUNT=%d\n",
		quote(gate), quote(baseline.Meta.Benchtime), baseline.Meta.Count), nil
}

// CompareFiles loads both envelopes and diffs them.
func CompareFiles(oldPath, newPath string, opt Options) (*Report, error) {
	oldSet, err := Load(oldPath)
	if err != nil {
		return nil, err
	}
	newSet, err := Load(newPath)
	if err != nil {
		return nil, err
	}
	return Compare(oldSet, newSet, opt), nil
}
