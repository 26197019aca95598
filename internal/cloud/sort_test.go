package cloud

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// referenceConfig is NewConfig as it was built on sort.Slice.
func referenceConfig(instances ...*Instance) Config {
	c := Config{Instances: append([]*Instance(nil), instances...)}
	sort.Slice(c.Instances, func(a, b int) bool { return c.Instances[a].Name < c.Instances[b].Name })
	return c
}

// twinHeavyPool draws n instances from a few names, each name backed by
// several distinct pointers, so an unstable sort's order among equal names
// shows in the pointers.
func twinHeavyPool(rng *rand.Rand, n int) []*Instance {
	var kinds []*Instance
	for _, name := range []string{"p2.xlarge", "g3.4xlarge", "p2.8xlarge"} {
		for k := 0; k < 3; k++ {
			kinds = append(kinds, &Instance{Name: name, GPUs: k + 1})
		}
	}
	pool := make([]*Instance, n)
	for i := range pool {
		pool[i] = kinds[rng.Intn(len(kinds))]
	}
	return pool
}

func TestNewConfigMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		insts := twinHeavyPool(rng, rng.Intn(40))
		if got, want := NewConfig(insts...), referenceConfig(insts...); !slices.Equal(got.Instances, want.Instances) {
			t.Fatalf("NewConfig order differs from sort.Slice for %d instances", len(insts))
		}
	}
}

func TestSubsetsMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 5, 9, 13, 16} {
		pool := twinHeavyPool(rng, n)
		got := Subsets(pool)
		if len(got) != (1<<n)-1 {
			t.Fatalf("n=%d: %d subsets", n, len(got))
		}
		for mask := 1; mask < 1<<n; mask++ {
			var insts []*Instance
			for b := 0; b < n; b++ {
				if mask&(1<<b) != 0 {
					insts = append(insts, pool[b])
				}
			}
			want := referenceConfig(insts...)
			cfg := got[mask-1]
			if !slices.Equal(cfg.Instances, want.Instances) {
				t.Fatalf("n=%d mask %b: %s, want %s", n, mask, names(cfg), names(want))
			}
			if cap(cfg.Instances) != len(cfg.Instances) {
				t.Fatalf("n=%d mask %b: cap %d > len %d lets an append reach the next subset", n, mask, cap(cfg.Instances), len(cfg.Instances))
			}
		}
	}
}

func names(c Config) string {
	s := ""
	for _, i := range c.Instances {
		s += fmt.Sprintf("%s/%d ", i.Name, i.GPUs)
	}
	return s
}
