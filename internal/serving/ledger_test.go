package serving_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"ccperf/internal/cloud"
	"ccperf/internal/serving"
	"ccperf/internal/shard"
	"ccperf/internal/telemetry"
	"ccperf/internal/tenant"
)

// fleet is one target of the ledger property with its arrivals and the
// gateways behind it.
type fleet struct {
	target   serving.Target
	arrivals []serving.Arrival
	gateways []*serving.Gateway
	router   *shard.Router
}

func (f fleet) start() {
	for _, g := range f.gateways {
		g.Start()
	}
	if f.router != nil {
		f.router.Start()
	}
}

func (f fleet) stop() {
	if f.router != nil {
		f.router.Stop()
	}
	for _, g := range f.gateways {
		g.Stop()
	}
}

func testConfig(t *testing.T) serving.Config {
	t.Helper()
	ladder, err := serving.DemoLadder([]float64{0, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	return serving.Config{
		Ladder: ladder, Replicas: 2, QueueCap: 256,
		Registry: telemetry.NewRegistry(), Tracer: telemetry.NewTracer(256),
	}
}

// The three targets the ledger property covers: a one-tenant gateway, a
// two-tenant gateway with one tenant flooding past its quota, and a
// two-shard router.
var fleets = []struct {
	name  string
	build func(t *testing.T) fleet
}{
	{"one tenant", func(t *testing.T) fleet {
		g, err := serving.New(testConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		return fleet{target: g, arrivals: serving.ShapedArrivals(60, 200*time.Millisecond, nil, 1), gateways: []*serving.Gateway{g}}
	}},
	{"flooding tenant", func(t *testing.T) fleet {
		specs := []tenant.Spec{
			{Name: "flood", QPS: 20, Burst: 2, OfferedQPS: 400},
			{Name: "quiet", OfferedQPS: 50},
		}
		cfg := testConfig(t)
		cfg.Ladder, cfg.QueueCap = nil, 0
		g, err := tenant.NewGateway(specs, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		arrivals, err := tenant.Arrivals(specs, 250*time.Millisecond, 2)
		if err != nil {
			t.Fatal(err)
		}
		return fleet{target: g, arrivals: arrivals, gateways: []*serving.Gateway{g}}
	}},
	{"two shards", func(t *testing.T) fleet {
		cfg := testConfig(t)
		regions := []cloud.Region{{Name: "us-west", PriceMultiplier: 1}, {Name: "us-east", PriceMultiplier: 1}}
		shards, err := shard.BuildFleet(cfg, 2, regions, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := shard.NewRouter(shard.Config{Shards: shards, Registry: cfg.Registry, Tracer: cfg.Tracer})
		if err != nil {
			t.Fatal(err)
		}
		arrivals := serving.ShapedArrivals(60, 200*time.Millisecond, nil, 3)
		target, err := shard.NewTarget(r, len(arrivals), nil, 0.5, 3)
		if err != nil {
			t.Fatal(err)
		}
		return fleet{target: target, arrivals: arrivals, gateways: []*serving.Gateway{shards[0].Gateway, shards[1].Gateway}, router: r}
	}},
}

// outcomes sums a row's seven outcomes.
func outcomes(r serving.Row) int {
	return r.OK + r.Late + r.Rejected + r.Shed + r.Expired + r.Faulted + r.Other
}

// TestRunLoadCountsEveryOutcome checks the replay ledger as a property
// over every kind of target, live and stopped: each request lands in
// exactly one outcome, in the totals and in every row; the tenant rows
// partition the totals; behind a router the served-by rows hold every
// answer; billed replica-seconds cover the busy seconds; and a stopped
// target serves nothing, so every outcome is an error.
func TestRunLoadCountsEveryOutcome(t *testing.T) {
	for _, fl := range fleets {
		for _, stopped := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/stopped=%v", fl.name, stopped), func(t *testing.T) {
				f := fl.build(t)
				f.start()
				if stopped {
					f.stop()
				}
				rep, err := serving.RunLoad(f.target, f.arrivals, serving.LoadConfig{Seed: 5, Deadline: 2 * time.Second})
				f.stop()
				if err != nil {
					t.Fatal(err)
				}
				if rep.Submitted == 0 || rep.Submitted != len(f.arrivals) {
					t.Fatalf("%d submitted for %d arrivals", rep.Submitted, len(f.arrivals))
				}
				tenants := 0
				for _, r := range slices.Concat([]serving.Row{rep.Row}, rep.Tenants, rep.ServedBy) {
					if outcomes(r) != r.Submitted {
						t.Fatalf("row %q: %d submitted but %d outcomes: %+v", r.Name, r.Submitted, outcomes(r), r)
					}
				}
				for _, r := range rep.Tenants {
					tenants += r.Submitted
				}
				if tenants != rep.Submitted {
					t.Fatalf("tenant rows hold %d of %d submissions", tenants, rep.Submitted)
				}
				answered := 0
				for _, r := range rep.ServedBy {
					answered += r.OK + r.Late
				}
				if want := rep.OK + rep.Late; f.router != nil && answered != want || f.router == nil && len(rep.ServedBy) != 0 {
					t.Fatalf("served-by rows %+v hold %d answers, totals %d", rep.ServedBy, answered, want)
				}
				for i, g := range f.gateways {
					_, busy := g.ExecStats()
					if billed := g.ReplicaSeconds(); billed < busy {
						t.Fatalf("gateway %d billed %.4f replica-seconds for %.4f busy seconds", i, billed, busy)
					}
				}
				if stopped {
					if rep.OK+rep.Late != 0 || rep.Errors() != rep.Submitted || rep.ErrorRate() != 1 {
						t.Fatalf("stopped target: %+v, want every outcome an error", rep.Row)
					}
					return
				}
				if rep.OK == 0 {
					t.Fatalf("live target served nothing: %+v", rep.Row)
				}
				if fl.name == "flooding tenant" {
					if rep.Tenant("flood").Rejected == 0 || rep.Tenant("quiet").Rejected != 0 {
						t.Fatalf("quota rejections %+v, want the flooding tenant's only", rep.Tenants)
					}
				}
			})
		}
	}
}

// fakeTarget refuses every request with refuse, or answers it with resp
// after delay.
type fakeTarget struct {
	refuse error
	resp   serving.Response
	delay  time.Duration
}

func (f fakeTarget) Send(context.Context, int, serving.Arrival, int64, time.Time) (func() (serving.Response, string), error) {
	if f.refuse != nil {
		return nil, f.refuse
	}
	return func() (serving.Response, string) {
		time.Sleep(f.delay)
		return f.resp, "fake"
	}, nil
}

// TestOutcomeClassifier pins where the driver files a request: by
// errors.Is, so a sentinel wrapped by %w or joined by errors.Join still
// lands in its outcome whether the target refused it or answered with it,
// and anything else lands in Other.
func TestOutcomeClassifier(t *testing.T) {
	type counts struct{ ok, late, rejected, shed, expired, faulted, other int }
	for _, c := range []struct {
		name string
		err  error
		want counts
	}{
		{"quota", serving.ErrQuotaExceeded, counts{rejected: 1}},
		{"wrapped quota", fmt.Errorf("admit: %w", serving.ErrQuotaExceeded), counts{rejected: 1}},
		{"joined quota", errors.Join(errors.New("tenant a"), serving.ErrQuotaExceeded), counts{rejected: 1}},
		{"shed", serving.ErrOverloaded, counts{shed: 1}},
		{"no shard", shard.ErrNoShard, counts{shed: 1}},
		{"expired", fmt.Errorf("late: %w", serving.ErrExpired), counts{expired: 1}},
		{"joined fault", errors.Join(serving.ErrFaulted, errors.New("replica 2")), counts{faulted: 1}},
		{"stopped", serving.ErrStopped, counts{other: 1}},
		{"other", errors.New("boom"), counts{other: 1}},
	} {
		for _, f := range []fakeTarget{{refuse: c.err}, {resp: serving.Response{Err: c.err}}} {
			rep, err := serving.RunLoad(f, []serving.Arrival{{}}, serving.LoadConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if got := (counts{rep.OK, rep.Late, rep.Rejected, rep.Shed, rep.Expired, rep.Faulted, rep.Other}); got != c.want {
				t.Errorf("%s (refused %v): counts = %+v, want %+v", c.name, f.refuse != nil, got, c.want)
			}
		}
	}
	// An answer without error is ok within the deadline and late past it.
	for _, c := range []struct {
		delay time.Duration
		want  counts
	}{{0, counts{ok: 1}}, {20 * time.Millisecond, counts{late: 1}}} {
		rep, err := serving.RunLoad(fakeTarget{resp: serving.Response{Accuracy: 0.5}, delay: c.delay},
			[]serving.Arrival{{}}, serving.LoadConfig{Deadline: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if got := (counts{rep.OK, rep.Late, rep.Rejected, rep.Shed, rep.Expired, rep.Faulted, rep.Other}); got != c.want {
			t.Errorf("answer after %s: counts = %+v, want %+v", c.delay, got, c.want)
		}
		if rep.MeanAccuracy != 0.5 || rep.ErrorRate() != 0 {
			t.Errorf("answer after %s: accuracy %v, error rate %v", c.delay, rep.MeanAccuracy, rep.ErrorRate())
		}
	}
}
