package cloud

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseConfig parses a configuration label of the form produced by
// Config.Label — "2xp2.xlarge+1xp2.8xlarge" — or a bare comma/plus list of
// type names ("p2.xlarge+g3.4xlarge"). It is the inverse of Label up to
// instance ordering.
func ParseConfig(s string) (Config, error) {
	return parseConfig(s, ByName)
}

// ParseConfigAll is ParseConfig over the full instance universe: names
// from the calibrated catalog and the uncalibrated transfer targets both
// resolve. The predict surface parses fleets through this.
func ParseConfigAll(s string) (Config, error) {
	return parseConfig(s, ByNameAll)
}

// MaxConfigSize bounds the instances one parsed configuration may hold,
// in any one "NxTYPE" part and in total. It lies far above any fleet the
// commands price, and it keeps a label such as "2000000000xp2.xlarge"
// from building a 16 GB slice before anything rejects it.
const MaxConfigSize = 1 << 16

func parseConfig(s string, byName func(string) (*Instance, error)) (Config, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "empty" {
		return Config{}, fmt.Errorf("cloud: empty configuration %q", s)
	}
	var insts []*Instance
	for _, part := range strings.FieldsFunc(s, func(r rune) bool { return r == '+' || r == ',' }) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		count := 1
		name := part
		// "NxTYPE" prefix — careful: instance names also contain 'x'
		// ("p2.xlarge"), so only split when the prefix is numeric.
		if i := strings.IndexByte(part, 'x'); i > 0 {
			if n, err := strconv.Atoi(part[:i]); err == nil {
				count, name = n, part[i+1:]
			}
		}
		if count < 1 {
			return Config{}, fmt.Errorf("cloud: non-positive count in %q", part)
		}
		if count > MaxConfigSize-len(insts) {
			return Config{}, fmt.Errorf("cloud: %q takes the configuration past %d instances", part, MaxConfigSize)
		}
		inst, err := byName(name)
		if err != nil {
			return Config{}, err
		}
		for k := 0; k < count; k++ {
			insts = append(insts, inst)
		}
	}
	if len(insts) == 0 {
		return Config{}, fmt.Errorf("cloud: no instances in %q", s)
	}
	return NewConfig(insts...), nil
}
