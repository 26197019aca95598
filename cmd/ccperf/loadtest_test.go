package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccperf/internal/report"
	"ccperf/internal/serving"
	"ccperf/internal/telemetry"
)

// TestLoadtestRejectsBadFlags: each bad flag combination is an error
// naming its flag, returned before any gateway is built. A gateway built
// on the default registry sets serving.replicas, so a sentinel there
// that survives the call shows none was.
func TestLoadtestRejectsBadFlags(t *testing.T) {
	replicas := telemetry.Default.Gauge("serving.replicas")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-shards", "2", "-tenants", "t.json"}, "-shards and -tenants"},
		{[]string{"-shards", "2", "-autoscale"}, "-balance"},
		{[]string{"-tenants", "t.json", "-slo", "10ms"}, "-slo"},
		{[]string{"-pattern", "zigzag"}, "zigzag"},
		{[]string{"-shards", "2", "-shape", "diurnal:Inf"}, "-shape"},
		{[]string{"-shards", "2", "-shape", "flash:0.5+0.05+0.2xNaN"}, "flash:0.5+0.05+0.2xNaN"},
		{[]string{"-shards", "2", "-origin-weights", "1,2,3"}, "-origin-weights"},
		{[]string{"-shards", "2", "-origin-weights", "NaN,1"}, "-origin-weights"},
	} {
		replicas.Set(-1)
		err := loadtestCmd(c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: error %v, want one naming %q", c.args, err, c.want)
		}
		if replicas.Value() != -1 {
			t.Errorf("%v: a gateway was built before the flags were checked", c.args)
		}
	}
}

// TestLoadtestOneReplayPerFleet runs a short replay through each fleet the
// loadtest can build, with -report-out, and checks that the envelope's
// report decodes, balances, and feeds benchjson's Loadtest results.
func TestLoadtestOneReplayPerFleet(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"plain", []string{"-requests", "60", "-windows", "2", "-deadline", "2s"}},
		{"tenants", []string{"-tenants", filepath.Join("..", "..", "examples", "tenants.json")}},
		{"shards", []string{"-shards", "2", "-requests", "60", "-deadline", "2s"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "loadtest.json")
			args := append([]string{"-duration", "300ms", "-cooldown", "0s", "-report-out", out}, c.args...)
			if err := loadtestCmd(args); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(out)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			env, err := report.ReadEnvelope(f)
			if err != nil {
				t.Fatal(err)
			}
			var payload struct {
				Report *serving.Report `json:"report"`
			}
			if err := env.Decode(report.KindLoadtest, &payload); err != nil {
				t.Fatal(err)
			}
			rep := payload.Report
			if rep == nil || rep.Submitted == 0 || rep.OK == 0 {
				t.Fatalf("report %+v, want a replay that served", rep)
			}
			if sum := rep.OK + rep.Late + rep.Rejected + rep.Shed + rep.Expired + rep.Faulted + rep.Other; sum != rep.Submitted {
				t.Fatalf("%d submitted but %d outcomes", rep.Submitted, sum)
			}
			results, err := loadtestBenchResults(out)
			if err != nil {
				t.Fatal(err)
			}
			if results[0].Name != "Loadtest" || results[0].Iterations != int64(rep.Submitted) {
				t.Fatalf("bench results %+v", results)
			}
		})
	}
}
