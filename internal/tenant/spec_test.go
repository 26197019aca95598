package tenant

import (
	"bytes"
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

// TestSpecValidateBoundsFields: non-finite fields, and rates or latencies
// past their bounds, fail at once and name the tenant and the field. At
// offered_qps 1e12 every replay gap rounds to 0 ns, and slo_ms 1e13
// overflows SLO() to a negative duration.
func TestSpecValidateBoundsFields(t *testing.T) {
	for _, c := range []struct {
		field string
		spec  Spec
	}{
		{"offered_qps", Spec{Name: "a", OfferedQPS: 1e12}},
		{"qps", Spec{Name: "a", QPS: MaxSpecQPS * 2}},
		{"offered_qps", Spec{Name: "a", OfferedQPS: 1e-12}},
		{"slo_ms", Spec{Name: "a", SLOMS: 1e13}},
		{"slo_ms", Spec{Name: "a", SLOMS: 1e-9}},
		{"deadline_ms", Spec{Name: "a", DeadlineMS: MaxSpecMS + 1}},
		{"slo_ms", Spec{Name: "a", SLOMS: math.NaN()}},
		{"weight", Spec{Name: "a", Weight: math.Inf(1)}},
		{"burst", Spec{Name: "a", Burst: math.NaN()}},
		{"max_cost_per_hour", Spec{Name: "a", MaxCostPerHour: math.Inf(1)}},
		{"pack_deadline_hours", Spec{Name: "a", PackDeadlineHours: math.NaN()}},
		{"qps", Spec{Name: "a", QPS: math.Inf(-1)}},
	} {
		err := c.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), "tenant a") || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%+v: Validate = %v, want an error naming tenant a and %s", c.spec, err, c.field)
		}
	}
	edge := Spec{Name: "a", QPS: MaxSpecQPS, OfferedQPS: MinSpecQPS, SLOMS: MaxSpecMS, DeadlineMS: MinSpecMS}
	if err := edge.Validate(); err != nil {
		t.Fatalf("bounds are inclusive: %v", err)
	}
	if edge.SLO() != 24*time.Hour || edge.Deadline() != time.Microsecond {
		t.Fatalf("edge durations %v/%v, want 24h/1µs", edge.SLO(), edge.Deadline())
	}
}

// FuzzParseSpecs: parsing a spec file never panics, and every spec set
// NewRegistry accepts has finite fields, a positive SLO and a
// non-negative deadline.
func FuzzParseSpecs(f *testing.F) {
	for _, s := range []string{
		`[{"name":"a","qps":10},{"name":"b","slo_ms":200}]`,
		`{"tenants":[{"name":"x","weight":2,"offered_qps":60,"max_cost_per_hour":4}]}`,
		`[{"name":"a","offered_qps":1e12}]`,
		`[{"name":"a","slo_ms":1e13,"deadline_ms":1e-300}]`,
		`[{"name":"a","ladder":[0,0.5,0.9],"burst":1e308,"images":-1}]`,
		`[{"name":"a"},{"name":"a"}]`,
		`[]`, `{}`, `null`, `[{"name":""}]`, `[{"name":"a","slo_ms":"x"}]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		specs, err := ParseSpecs(bytes.NewReader(data))
		if err != nil {
			return
		}
		reg, err := NewRegistry(specs)
		if err != nil {
			return
		}
		for _, s := range reg.Specs() {
			for _, v := range []float64{s.QPS, s.Burst, s.Weight, s.SLOMS, s.DeadlineMS,
				s.MaxCostPerHour, s.OfferedQPS, s.PackDeadlineHours} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted a non-finite field: %+v", s)
				}
			}
			if s.SLO() <= 0 || s.Deadline() < 0 {
				t.Fatalf("accepted SLO %v, deadline %v: %+v", s.SLO(), s.Deadline(), s)
			}
		}
	})
}
