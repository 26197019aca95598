package main

import (
	"strings"
	"testing"
	"time"
)

// TestRejectWithTenants: a one-tenant flag given on the command line next
// to -tenants is an error naming it, even when given its default value;
// flags left unset are not.
func TestRejectWithTenants(t *testing.T) {
	for _, c := range []struct {
		args []string
		want []string
	}{
		{nil, nil},
		{[]string{"-tenants", "t.json", "-max-batch", "4"}, nil},
		{[]string{"-slo", "50ms"}, []string{"-slo"}},
		{[]string{"-ladder", "0,0.5", "-queue", "8", "-deadline", "1s"}, []string{"-ladder", "-queue", "-deadline"}},
	} {
		fs := newFlagSet("loadtest", "test")
		fs.String("tenants", "", "")
		fs.String("ladder", "", "")
		fs.Int("queue", 0, "")
		fs.Int("max-batch", 8, "")
		fs.Duration("slo", 50*time.Millisecond, "")
		fs.Duration("deadline", 0, "")
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		err := rejectWithTenants(fs, "ladder", "queue", "slo", "deadline")
		if (err != nil) != (c.want != nil) {
			t.Fatalf("%v: err = %v, want one naming %v", c.args, err, c.want)
		}
		for _, name := range c.want {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%v: error %q does not name %s", c.args, err, name)
			}
		}
	}
}
