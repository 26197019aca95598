package engine

import (
	"context"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"time"

	"ccperf/internal/accuracy"
	"ccperf/internal/cloud"
	"ccperf/internal/prune"
	"ccperf/internal/telemetry"
)

// shardCount spreads cache keys over independent locks so parallel
// exploration workers rarely contend. Keys differ in degree (the unit of
// worker parallelism), so the FNV spread keeps workers on disjoint shards.
const shardCount = 32

// Cache is a concurrency-safe memoizing Predictor. Each prediction family
// (batch time, total time, accuracy, analytic Perf batch time) has its own
// key namespace; a key is evaluated at most once, and concurrent requests
// for an in-flight key wait for the first evaluation instead of
// recomputing (singleflight-style deduplication). Failed evaluations are
// not cached: the error is returned to everyone waiting on the in-flight
// key, the key is evicted, and a later call retries.
//
// Telemetry (all under the engine.* prefix):
//
//	engine.cache_hits     counter — lookups served from a filled entry
//	engine.cache_misses   counter — lookups that evaluated the predictor
//	engine.dedup_waits    counter — lookups that waited on an in-flight fill
//	engine.cache_entries  gauge   — live entries across all namespaces
//	engine.fill_seconds   histogram — wall time of each underlying evaluation
//
// One Cache describes one model: keys do not include the model name, so
// wrap each Predictor in its own Cache.
type Cache struct {
	inner Predictor
	batch memo[float64]       // measured BatchSeconds (min over reps)
	total memo[float64]       // TotalSeconds at saturated batch
	acc   memo[accuracy.TopK] // per-degree accuracy
	perf  memo[float64]       // jitter-free analytic Perf.BatchTime
}

// NewCache wraps a Predictor in a memoizing cache.
func NewCache(inner Predictor) *Cache {
	return &Cache{inner: inner}
}

var _ Predictor = (*Cache)(nil)

// BatchSeconds memoizes the inner predictor's BatchSeconds.
func (c *Cache) BatchSeconds(ctx context.Context, d prune.Degree, inst *cloud.Instance, gpus, b int) (float64, error) {
	return c.batch.get(ctx, key(d.Label(), inst.Name, gpus, b), func() (float64, error) {
		return c.inner.BatchSeconds(ctx, d, inst, gpus, b)
	})
}

// TotalSeconds memoizes the inner predictor's TotalSeconds.
func (c *Cache) TotalSeconds(ctx context.Context, d prune.Degree, inst *cloud.Instance, gpus int, w int64) (float64, error) {
	k := key(d.Label(), inst.Name, gpus, int(w))
	return c.total.get(ctx, k, func() (float64, error) {
		return c.inner.TotalSeconds(ctx, d, inst, gpus, w)
	})
}

// Accuracy memoizes the inner predictor's Accuracy.
func (c *Cache) Accuracy(ctx context.Context, d prune.Degree) (accuracy.TopK, error) {
	return c.acc.get(ctx, d.Label(), func() (accuracy.TopK, error) {
		return c.inner.Accuracy(ctx, d)
	})
}

// Perf returns a cloud.Perf whose BatchTime is memoized in the cache under
// (degree, instance type, gpus, batch), so adapters for the same degree
// share one evaluation per instance type. Every lookup builds its key and
// takes a shard lock: a caller that prices many configurations should read
// each instance's rate once (the explore package keeps a per-degree rate
// table) rather than call BatchTime per configuration. MaxBatch delegates
// directly (it is arithmetic, not a model evaluation).
func (c *Cache) Perf(d prune.Degree, gpus int) cloud.Perf {
	return &cachedPerf{c: c, inner: c.inner.Perf(d, gpus), dkey: d.Label(), gpus: gpus}
}

// Len returns the number of live cache entries across all namespaces.
func (c *Cache) Len() int {
	return c.batch.len() + c.total.len() + c.acc.len() + c.perf.len()
}

type cachedPerf struct {
	c     *Cache
	inner cloud.Perf
	dkey  string
	gpus  int
}

// BatchTime implements cloud.Perf. cloud.Perf has no error or context in
// its contract, so fills run under context.Background() and a fill that
// panics (e.g. an unknown GPU kind) propagates as it would uncached.
func (p *cachedPerf) BatchTime(it *cloud.Instance, b int) float64 {
	v, _ := p.c.perf.get(context.Background(), key(p.dkey, it.Name, p.gpus, b), func() (float64, error) {
		return p.inner.BatchTime(it, b), nil
	})
	return v
}

// MaxBatch implements cloud.Perf.
func (p *cachedPerf) MaxBatch(it *cloud.Instance) int { return p.inner.MaxBatch(it) }

// key renders a stable cache key from a degree label, instance name and
// integer parameters.
func key(degree, inst string, a, b int) string {
	var sb strings.Builder
	sb.Grow(len(degree) + len(inst) + 16)
	sb.WriteString(degree)
	sb.WriteByte('|')
	sb.WriteString(inst)
	sb.WriteByte('|')
	sb.WriteString(strconv.Itoa(a))
	sb.WriteByte('|')
	sb.WriteString(strconv.Itoa(b))
	return sb.String()
}

// entry is one memoized evaluation. done is closed when val/err are set.
type entry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// memo is a sharded map of singleflight entries. The zero value is ready
// to use.
type memo[V any] struct {
	shards [shardCount]struct {
		mu sync.Mutex
		m  map[string]*entry[V]
	}
}

func shardIndex(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % shardCount)
}

// get returns the memoized value for key, evaluating fill at most once
// concurrently. A caller that finds the key in flight waits for the fill
// or its own context, whichever ends first; context cancellation while
// waiting does not disturb the fill.
func (m *memo[V]) get(ctx context.Context, k string, fill func() (V, error)) (V, error) {
	sh := &m.shards[shardIndex(k)]
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[string]*entry[V])
	}
	if e, ok := sh.m[k]; ok {
		sh.mu.Unlock()
		select {
		case <-e.done:
			telemetry.Default.Counter("engine.cache_hits").Inc()
			return e.val, e.err
		default:
		}
		telemetry.Default.Counter("engine.dedup_waits").Inc()
		select {
		case <-e.done:
			return e.val, e.err
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
	e := &entry[V]{done: make(chan struct{})}
	sh.m[k] = e
	sh.mu.Unlock()

	reg := telemetry.Default
	reg.Counter("engine.cache_misses").Inc()
	start := time.Now()
	e.val, e.err = fill()
	reg.Histogram("engine.fill_seconds", nil).Observe(time.Since(start).Seconds())
	if e.err != nil {
		// Do not cache failures: evict so a later call retries. Current
		// waiters still observe this attempt's error through the entry.
		sh.mu.Lock()
		delete(sh.m, k)
		sh.mu.Unlock()
	} else {
		reg.Gauge("engine.cache_entries").Add(1)
	}
	close(e.done)
	return e.val, e.err
}

// len counts live entries across shards.
func (m *memo[V]) len() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}
