package tenant

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestParseSpecsArrayAndWrapped(t *testing.T) {
	arr := `[{"name":"a","qps":10},{"name":"b","slo_ms":200}]`
	specs, err := ParseSpecs(strings.NewReader(arr))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "a" || specs[1].SLOMS != 200 {
		t.Fatalf("parsed %+v", specs)
	}

	wrapped := `{"tenants":[{"name":"x","weight":2}]}`
	specs, err = ParseSpecs(strings.NewReader(wrapped))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Name != "x" || specs[0].Weight != 2 {
		t.Fatalf("parsed %+v", specs)
	}

	if _, err := ParseSpecs(strings.NewReader(`{"nope":true}`)); err == nil {
		t.Fatal("expected error for spec file without tenants")
	}
}

func TestRegistryDefaultsAndOrder(t *testing.T) {
	reg, err := NewRegistry([]Spec{{Name: "zeta", QPS: 10}, {Name: "alpha"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Names(); got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("registry order %v, want sorted by name", got)
	}
	z, ok := reg.Get("zeta")
	if !ok {
		t.Fatal("zeta missing")
	}
	if z.SLOMS != 50 || z.Weight != 1 || z.QueueCap != 64 {
		t.Fatalf("defaults not applied: %+v", z)
	}
	if z.Burst != 10 {
		t.Fatalf("burst default = %v, want QPS", z.Burst)
	}
	a, _ := reg.Get("alpha")
	if a.Burst != 0 {
		t.Fatalf("unlimited tenant should not get a burst, got %v", a.Burst)
	}
	if z.SLO() != 50*time.Millisecond {
		t.Fatalf("SLO() = %v", z.SLO())
	}
}

func TestRegistryRejectsDuplicatesAndBadSpecs(t *testing.T) {
	if _, err := NewRegistry([]Spec{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Fatal("expected duplicate-name error")
	}
	if _, err := NewRegistry(nil); err == nil {
		t.Fatal("expected empty-registry error")
	}
	if _, err := NewRegistry([]Spec{{Name: ""}}); err == nil {
		t.Fatal("expected unnamed-spec error")
	}
	if _, err := NewRegistry([]Spec{{Name: "a", Ladder: []float64{1.5}}}); err == nil {
		t.Fatal("expected out-of-range ladder error")
	}
	if _, err := NewRegistry([]Spec{{Name: "a", QPS: -1}}); err == nil {
		t.Fatal("expected negative-field error")
	}
}

func TestBucketAdmission(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBucket(10, 2) // 10/s, burst 2

	if !b.allow(now) || !b.allow(now) {
		t.Fatal("burst of 2 should admit two immediately")
	}
	if b.allow(now) {
		t.Fatal("third immediate request should be rejected")
	}
	// 100ms refills exactly one token at 10/s.
	now = now.Add(100 * time.Millisecond)
	if !b.allow(now) {
		t.Fatal("one token should have refilled")
	}
	if b.allow(now) {
		t.Fatal("bucket should be empty again")
	}
	// A long idle period caps at the burst, not the elapsed rate.
	now = now.Add(time.Hour)
	if !b.allow(now) || !b.allow(now) {
		t.Fatal("burst should refill after idle")
	}
	if b.allow(now) {
		t.Fatal("refill must cap at burst")
	}
}

func TestBucketUnlimited(t *testing.T) {
	b := newBucket(0, 0)
	now := time.Unix(0, 0)
	for i := 0; i < 1000; i++ {
		if !b.allow(now) {
			t.Fatal("rate 0 means unlimited")
		}
	}
}

func TestSpecValidateRejectsNaNRatio(t *testing.T) {
	if err := (Spec{Name: "a", Ladder: []float64{0, math.NaN()}}).Validate(); err == nil {
		t.Fatal("Validate accepts a NaN ladder ratio")
	}
}
