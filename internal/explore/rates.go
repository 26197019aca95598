package explore

import "ccperf/internal/cloud"

// rateTable is one degree's cloud.Perf read once per distinct instance of a
// pool. Under Equations 1–4 a configuration's time and cost depend only on
// each member's saturated batch bᵢ and batch time t_{bᵢ}, so a search that
// prices every subset of the pool needs one predictor lookup per distinct
// instance, not one per member of every configuration. The table is not
// shared between goroutines and takes no lock; it feeds the unchanged
// cloud.EstimateRunWith, so every estimate is the one the wrapped Perf
// would give.
type rateTable struct {
	inner cloud.Perf
	rates []instRate
}

// instRate is one instance's saturated batch and, when that batch is
// positive, its batch time.
type instRate struct {
	inst *cloud.Instance
	b    int
	t    float64
}

func newRateTable(perf cloud.Perf, pool []*cloud.Instance) *rateTable {
	rt := &rateTable{inner: perf}
	for _, inst := range pool {
		if rt.lookup(inst) != nil {
			continue
		}
		r := instRate{inst: inst, b: perf.MaxBatch(inst)}
		if r.b > 0 {
			r.t = perf.BatchTime(inst, r.b)
		}
		rt.rates = append(rt.rates, r)
	}
	return rt
}

// lookup finds an instance by pointer: a pool holds a handful of distinct
// instances, so a scan beats a map.
func (rt *rateTable) lookup(it *cloud.Instance) *instRate {
	for i := range rt.rates {
		if rt.rates[i].inst == it {
			return &rt.rates[i]
		}
	}
	return nil
}

// MaxBatch implements cloud.Perf.
func (rt *rateTable) MaxBatch(it *cloud.Instance) int {
	if r := rt.lookup(it); r != nil {
		return r.b
	}
	return rt.inner.MaxBatch(it)
}

// BatchTime implements cloud.Perf. An instance outside the pool, or a batch
// other than the saturated one, goes to the wrapped Perf.
func (rt *rateTable) BatchTime(it *cloud.Instance, b int) float64 {
	if r := rt.lookup(it); r != nil && r.b == b && b > 0 {
		return r.t
	}
	return rt.inner.BatchTime(it, b)
}

// priceGroups maps each configuration to a pricing group: configurations
// whose sorted instance slices hold the same pointers in the same order
// price identically under any Perf, so only the first of each group needs
// an estimate. firsts lists each group's first configuration, in order.
// cloud.Subsets caps a pool at 20 instances, so a byte names each one.
func priceGroups(configs []cloud.Config) (group, firsts []int) {
	ids := map[*cloud.Instance]byte{}
	seen := map[string]int{}
	group = make([]int, len(configs))
	var key []byte
	for ci, cfg := range configs {
		key = key[:0]
		for _, inst := range cfg.Instances {
			id, ok := ids[inst]
			if !ok {
				id = byte(len(ids))
				ids[inst] = id
			}
			key = append(key, id)
		}
		g, ok := seen[string(key)]
		if !ok {
			g = len(firsts)
			seen[string(key)] = g
			firsts = append(firsts, ci)
		}
		group[ci] = g
	}
	return group, firsts
}
