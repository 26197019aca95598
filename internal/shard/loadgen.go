package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"ccperf/internal/cloud"
	"ccperf/internal/fault"
	"ccperf/internal/serving"
	"ccperf/internal/workload"
)

// BuildFleet constructs one gateway per shard from the base config,
// placing shards round-robin across the regions and wiring each
// gateway's Injector through sched.ForRegion so region-scoped faults
// reach the right shards' replicas. The base config's Ladder is shared —
// nets are read-only during forward, so N gateways over one ladder cost
// one ladder's memory. The caller owns Start/Stop of the returned
// gateways.
func BuildFleet(base serving.Config, shards int, regions []cloud.Region, sched *fault.Schedule) ([]Shard, error) {
	if shards <= 0 {
		return nil, errors.New("shard: fleet needs at least one shard")
	}
	if len(regions) == 0 {
		return nil, errors.New("shard: fleet needs at least one region")
	}
	out := make([]Shard, shards)
	for i := range out {
		region := regions[i%len(regions)].Name
		cfg := base
		if sched != nil {
			cfg.Injector = sched.ForRegion(region)
		}
		gw, err := serving.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("shard: building shard %d: %w", i, err)
		}
		out[i] = Shard{Gateway: gw, Region: region}
	}
	return out, nil
}

// Target adapts a Router to serving.RunLoad. Request i comes from the
// origin region drawn for it and is keyed Key(seed); its answer is filed
// under the region of the shard that served it, or, when the gateway it
// was placed on stopped with nowhere left to fail over, of that shard.
type Target struct {
	r       *Router
	origins []string
	// The router's counters when the replay began, so Bill reports the
	// replay's own reroutes and failovers.
	rerouted, failovers int64
}

// NewTarget draws the origins of n requests across the router's regions:
// weights skew them in Router.Regions() order (nil = uniform) and corr is
// the Markov stickiness of consecutive origins (workload.AssignRegions,
// seeded seed+1).
func NewTarget(r *Router, n int, weights []float64, corr float64, seed int64) (*Target, error) {
	regions := r.Regions()
	if weights == nil {
		weights = make([]float64, len(regions))
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != len(regions) {
		return nil, fmt.Errorf("shard: %d origin weights for %d regions", len(weights), len(regions))
	}
	origins := make([]string, n)
	for i, o := range workload.AssignRegions(n, weights, corr, seed+1) {
		origins[i] = regions[o]
	}
	return &Target{r: r, origins: origins, rerouted: r.rerouted.Value(), failovers: r.failovers.Value()}, nil
}

// Send implements serving.Target through Router.Submit.
func (t *Target) Send(ctx context.Context, i int, _ serving.Arrival, seed int64, deadline time.Time) (func() (serving.Response, string), error) {
	if i >= len(t.origins) {
		return nil, fmt.Errorf("shard: request %d past the %d origins drawn", i, len(t.origins))
	}
	in := t.r.shards[0].gw.Config().Ladder[0].Net.Input
	ch, s, err := t.r.Submit(ctx, Key(seed), t.origins[i], serving.SyntheticImage(in.C, in.H, in.W, seed), deadline)
	if err != nil {
		return nil, err
	}
	return func() (serving.Response, string) {
		resp, ok := <-ch
		if !ok {
			return serving.Response{Err: serving.ErrStopped}, t.r.shards[s].region
		}
		return resp.Response, t.r.shards[resp.Shard].region
	}, nil
}

// RegionReport is one region's slice of a replay: what its shards
// answered, its rental bill under regional pricing and any spot spikes,
// and the cost-accuracy point it contributes to the global frontier.
type RegionReport struct {
	Region string `json:"region"`
	Shards int    `json:"shards"`
	// OK / Late / Errors partition the answers of this region's shards:
	// on time, past the deadline, and failed.
	OK     int `json:"ok"`
	Late   int `json:"late"`
	Errors int `json:"errors"`
	// ReplicaSeconds is the region's fleet-time integral; SpotMean the
	// time-averaged price multiplier over the run (1 without spikes);
	// DownSeconds how long the schedule held the region dark.
	ReplicaSeconds float64 `json:"replica_seconds"`
	SpotMean       float64 `json:"spot_mean"`
	DownSeconds    float64 `json:"down_seconds"`
	// CostUSD = ReplicaSeconds × regional $/s × SpotMean; CostPerMillion
	// is that bill normalized per million on-time images — the paper's
	// cost-accuracy axis generalized to a region under faults.
	CostUSD        float64 `json:"cost_usd"`
	CostPerMillion float64 `json:"cost_per_million_on_time"`
	// MeanAccuracy is the mean accuracy proxy of the region's answers.
	MeanAccuracy float64 `json:"mean_accuracy"`
}

// Report is the router's half of a sharded replay, next to the driver's
// serving.Report: reroutes, failovers, and the regional bill.
type Report struct {
	// Rerouted counts submissions that spilled past their home shard;
	// Failovers answers resubmitted on another shard after a failure.
	Rerouted  int64 `json:"rerouted"`
	Failovers int64 `json:"failovers"`
	// CostUSD and CostPerMillion aggregate the regional bills into the
	// global $/million-on-time-images point.
	CostUSD        float64        `json:"cost_usd"`
	CostPerMillion float64        `json:"cost_per_million_on_time"`
	Regions        []RegionReport `json:"regions"`
	Shards         []Status       `json:"shards"`
}

// Bill folds a replay's served-by rows into one report per region, and
// bills each region's replica-seconds at its regional price for inst
// times the run's time-averaged spot multiplier under sched (nil =
// fault-free pricing). The multiplier is averaged over the run rather
// than integrated against the instantaneous replica count; with replica
// counts roughly constant the two agree.
func (t *Target) Bill(rep *serving.Report, sched *fault.Schedule, inst *cloud.Instance) *Report {
	out := &Report{
		Rerouted:  t.r.rerouted.Value() - t.rerouted,
		Failovers: t.r.failovers.Value() - t.failovers,
		Shards:    t.r.Statuses(),
	}
	served := map[string]serving.Row{}
	for _, row := range rep.ServedBy {
		served[row.Name] = row
	}
	for _, name := range t.r.Regions() {
		row := served[name]
		reg := RegionReport{
			Region: name, SpotMean: 1,
			OK: row.OK, Late: row.Late, Errors: row.Errors(),
			MeanAccuracy: row.MeanAccuracy,
		}
		for _, st := range t.r.shards {
			if st.region == name {
				reg.Shards++
				reg.ReplicaSeconds += st.gw.ReplicaSeconds()
			}
		}
		region, err := cloud.RegionByName(name)
		if err != nil {
			// Unknown to the catalog (tests use synthetic names): bill at
			// baseline pricing.
			region = cloud.Region{Name: name, PriceMultiplier: 1}
		}
		if sched != nil && rep.WallSeconds > 0 {
			reg.SpotMean = sched.PriceIntegral(name, 0, rep.WallSeconds) / rep.WallSeconds
			reg.DownSeconds = regionDownSeconds(sched, name, rep.WallSeconds)
		}
		reg.CostUSD = reg.ReplicaSeconds * (cloud.RegionalPrice(inst, region) / 3600) * reg.SpotMean
		if reg.OK > 0 {
			reg.CostPerMillion = reg.CostUSD / (float64(reg.OK) / 1e6)
		}
		out.CostUSD += reg.CostUSD
		out.Regions = append(out.Regions, reg)
	}
	if rep.OK > 0 {
		out.CostPerMillion = out.CostUSD / (float64(rep.OK) / 1e6)
	}
	return out
}

// FrontierTable renders the per-region cost-accuracy frontier: each
// region is one point ($/million-on-time vs delivered accuracy), with
// rep's totals last. This is the artifact the multi-region story is
// about — under a regional fault the dark region's row collapses while
// the survivors' rows absorb its load at a visible cost.
func (b *Report) FrontierTable(rep *serving.Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "router   : %d rerouted, %d failovers; $%.4f billed ($%.2f/M on-time)\n",
		b.Rerouted, b.Failovers, b.CostUSD, b.CostPerMillion)
	fmt.Fprintf(&sb, "%-12s %6s %8s %6s %6s %8s %9s %12s %9s\n",
		"region", "shards", "ok", "late", "err", "down(s)", "spot", "$/M-on-time", "accuracy")
	for _, reg := range b.Regions {
		fmt.Fprintf(&sb, "%-12s %6d %8d %6d %6d %8.1f %9.2f %12.2f %9.4f\n",
			reg.Region, reg.Shards, reg.OK, reg.Late, reg.Errors,
			reg.DownSeconds, reg.SpotMean, reg.CostPerMillion, reg.MeanAccuracy)
	}
	fmt.Fprintf(&sb, "%-12s %6s %8d %6d %6d %8s %9s %12.2f %9.4f\n",
		"global", "", rep.OK, rep.Late, rep.Errors(), "", "", b.CostPerMillion, rep.MeanAccuracy)
	return sb.String()
}

// regionDownSeconds sums the schedule's RegionDown windows for one
// region clipped to [0, wall].
func regionDownSeconds(s *fault.Schedule, region string, wall float64) float64 {
	var total float64
	for _, e := range s.Events {
		if e.Kind != fault.RegionDown || e.Region != region {
			continue
		}
		lo, hi := e.At, e.At+e.Duration
		if lo < 0 {
			lo = 0
		}
		if hi > wall {
			hi = wall
		}
		if hi > lo {
			total += hi - lo
		}
	}
	return total
}
