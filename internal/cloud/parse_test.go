package cloud

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseConfigRoundTrip(t *testing.T) {
	a, _ := ByName("p2.xlarge")
	b, _ := ByName("p2.8xlarge")
	g, _ := ByName("g3.4xlarge")
	cases := []Config{
		NewConfig(a),
		NewConfig(a, a, b),
		NewConfig(g, b, a, a, g),
	}
	for _, want := range cases {
		got, err := ParseConfig(want.Label())
		if err != nil {
			t.Fatalf("ParseConfig(%q): %v", want.Label(), err)
		}
		if got.Label() != want.Label() {
			t.Fatalf("round trip %q → %q", want.Label(), got.Label())
		}
	}
}

func TestParseConfigBareNames(t *testing.T) {
	c, err := ParseConfig("p2.xlarge, g3.4xlarge")
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 2 {
		t.Fatalf("size = %d", c.Size())
	}
	c, err = ParseConfig("3xp2.xlarge")
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 3 {
		t.Fatalf("size = %d", c.Size())
	}
}

func TestParseConfigErrors(t *testing.T) {
	for _, bad := range []string{"", "empty", "2xm5.large", "m5.large", "0xp2.xlarge", "+,"} {
		if _, err := ParseConfig(bad); err == nil {
			t.Errorf("ParseConfig(%q) should fail", bad)
		}
	}
}

// Property: any random multiset over the catalog round-trips.
func TestParseConfigRoundTripProperty(t *testing.T) {
	cat := Catalog()
	f := func(counts [6]uint8) bool {
		var insts []*Instance
		for i, c := range counts {
			for k := 0; k < int(c%4); k++ {
				insts = append(insts, cat[i])
			}
		}
		if len(insts) == 0 {
			return true
		}
		want := NewConfig(insts...)
		got, err := ParseConfig(want.Label())
		return err == nil && got.Label() == want.Label()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestParseConfigMalformed covers the error paths one by one: unknown
// types, empty specs, and malformed count prefixes.
func TestParseConfigMalformed(t *testing.T) {
	cases := []struct {
		in   string
		want string // substring of the error
	}{
		{"", "empty configuration"},
		{"   ", "empty configuration"},
		{"empty", "empty configuration"},
		{"+", "no instances"},
		{"+,+", "no instances"},
		{"nosuch.type", "unknown instance"},
		{"2xnosuch.type", "unknown instance"},
		{"p2.xlarge+bogus", "unknown instance"},
		{"0xp2.xlarge", "non-positive count"},
		{"-3xp2.xlarge", "non-positive count"},
		{"1.5xp2.xlarge", "unknown instance"}, // non-integer prefix is read as a name
		{"xp2.xlarge", "unknown instance"},    // bare leading x is part of the name
	}
	for _, c := range cases {
		_, err := ParseConfig(c.in)
		if err == nil {
			t.Errorf("ParseConfig(%q) should fail", c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseConfig(%q) error = %v, want substring %q", c.in, err, c.want)
		}
	}
}

// TestParseConfigBoundsSize checks that a count, or a running total, past
// MaxConfigSize is an error naming its part, returned before any instance
// slice of that size is built.
func TestParseConfigBoundsSize(t *testing.T) {
	limit := strconv.Itoa(MaxConfigSize)
	for _, c := range []struct{ in, part string }{
		{"2000000000xp2.xlarge", "2000000000xp2.xlarge"},
		{strconv.Itoa(MaxConfigSize+1) + "xp2.xlarge", strconv.Itoa(MaxConfigSize+1) + "xp2.xlarge"},
		{"p2.xlarge+" + limit + "xg3.4xlarge", limit + "xg3.4xlarge"},
		{limit + "xp2.xlarge,1xp2.8xlarge", "1xp2.8xlarge"},
	} {
		for _, parse := range []func(string) (Config, error){ParseConfig, ParseConfigAll} {
			_, err := parse(c.in)
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(c.part)) || !strings.Contains(err.Error(), limit) {
				t.Errorf("parse(%q) error = %v, want one naming %q and %s", c.in, err, c.part, limit)
			}
		}
	}
	c, err := ParseConfig(strconv.Itoa(MaxConfigSize-1) + "xp2.xlarge+p2.8xlarge")
	if err != nil || c.Size() != MaxConfigSize {
		t.Fatalf("a configuration of exactly MaxConfigSize: size %d, err %v", c.Size(), err)
	}
}

// FuzzParseConfig checks the fleet grammar of both parsers: parsing never
// panics, and the label of an accepted configuration parses back to the
// same label.
func FuzzParseConfig(f *testing.F) {
	for _, s := range []string{
		"", "empty", "p2.xlarge", "2xp2.xlarge+1xp2.8xlarge", "p2.xlarge, g3.4xlarge", "3xp2.xlarge",
		"0xp2.xlarge", "-3xp2.xlarge", "1.5xp2.xlarge", "xp2.xlarge", "+,+", "2000000000xp2.xlarge",
		"65536xp2.xlarge", "65535xp2.xlarge+p2.xlarge", "99999999999999999999xp2.xlarge", "2xnosuch.type",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, parse := range []func(string) (Config, error){ParseConfig, ParseConfigAll} {
			c, err := parse(s)
			if err != nil {
				continue
			}
			if c.Size() < 1 || c.Size() > MaxConfigSize {
				t.Fatalf("parse(%q) accepted %d instances", s, c.Size())
			}
			label := c.Label()
			back, err := parse(label)
			if err != nil {
				t.Fatalf("parse(%q), the label of %q: %v", label, s, err)
			}
			if got := back.Label(); got != label {
				t.Fatalf("label %q of %q parses back as %q", label, s, got)
			}
		}
	})
}
