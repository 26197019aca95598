package benchdiff

import (
	"fmt"
	"os"
	"strings"

	"ccperf/internal/report"
	"ccperf/internal/telemetry"
)

// Load reads a ccperf/v1 bench envelope from path into a BenchSet: the
// sample-preserving payload `ccperf benchjson` writes. A payload with no
// benchmarks is an error.
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
	if len(set.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchdiff: %s: no benchmarks in bench payload", path)
	}
	return &set, nil
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
