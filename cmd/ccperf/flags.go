package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"ccperf"
	"ccperf/internal/telemetry"
)

// newFlagSet builds one subcommand's flag set. Every subcommand goes
// through here so -h/-help uniformly prints a one-line usage summary
// followed by the flag defaults.
func newFlagSet(name, oneLine string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: ccperf %s [flags]\n  %s\n", name, oneLine)
		var n int
		fs.VisitAll(func(*flag.Flag) { n++ })
		if n > 0 {
			fmt.Fprintln(fs.Output(), "\nflags:")
			fs.PrintDefaults()
		}
	}
	return fs
}

// Shared flag helpers: subcommands spell common knobs identically by
// registering them through these, not ad hoc.

// rejectWithTenants returns an error naming each of the given flags set
// on the command line: next to -tenants, every tenant takes them from its
// spec, so a value given here would go unused.
func rejectWithTenants(fs *flag.FlagSet, names ...string) error {
	var set []string
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(names, f.Name) {
			set = append(set, "-"+f.Name)
		}
	})
	if len(set) > 0 {
		return fmt.Errorf("%s: -tenants cannot take %s: each tenant's spec sets its own", fs.Name(), strings.Join(set, ", "))
	}
	return nil
}

func modelFlag(fs *flag.FlagSet) *string {
	return fs.String("model", ccperf.Caffenet, "model: caffenet or googlenet")
}

// faultsFlag registers -faults with a context-appropriate example spec.
func faultsFlag(fs *flag.FlagSet, example string) *string {
	return fs.String("faults", "",
		fmt.Sprintf("fault schedule, e.g. %q (see docs/RESILIENCE.md)", example))
}

func workersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "exploration worker-pool size (0 = number of CPUs)")
}

// reportOutFlag registers -report-out: the run's primary result as a
// versioned ccperf/v1 JSON envelope.
func reportOutFlag(fs *flag.FlagSet) *string {
	return fs.String("report-out", "", "write the run report as a ccperf/v1 JSON envelope to this file")
}

// telemetryFlags registers the artifact flags shared by the run commands.
func telemetryFlags(fs *flag.FlagSet) (metricsOut, traceOut *string) {
	metricsOut = fs.String("metrics-out", "", "write telemetry metrics snapshot JSON to this file")
	traceOut = fs.String("trace-out", "", "write telemetry span dump JSON to this file (Chrome format if it ends in .chrome.json)")
	return metricsOut, traceOut
}

// writeTelemetry dumps the process-wide registry and tracer to the
// requested artifact files, creating parent directories.
func writeTelemetry(metricsOut, traceOut string) error {
	write := func(path string, emit func(io.Writer) error) error {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if metricsOut != "" {
		if err := write(metricsOut, telemetry.Default.WriteJSON); err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
		fmt.Fprintf(os.Stderr, "telemetry: metrics snapshot → %s\n", metricsOut)
	}
	if traceOut != "" {
		emit := telemetry.DefaultTracer.WriteJSON
		if strings.HasSuffix(traceOut, ".chrome.json") {
			emit = telemetry.DefaultTracer.WriteChromeTrace
		}
		if err := write(traceOut, emit); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		fmt.Fprintf(os.Stderr, "telemetry: span dump → %s\n", traceOut)
	}
	return nil
}
