package main

import (
	"strings"
	"testing"
)

// A -fault-rate outside [0,1] is a usage error naming the flag, not a
// soak that injects nothing and reports every invariant held.
func TestParseArgsRejectsOutOfRangeProbability(t *testing.T) {
	for _, tc := range []struct {
		args []string
		ok   bool
	}{
		{[]string{"-ops", "20", "-fault-rate", "-1"}, false},
		{[]string{"-fault-rate", "1.01"}, false},
		{[]string{"-fault-rate", "NaN"}, false},
		{[]string{"-ops", "20", "-fault-rate", "0"}, true},
		{[]string{"-fault-rate", "1"}, true},
		{nil, true},
	} {
		var stderr strings.Builder
		c, err := parseArgs(tc.args, &stderr)
		if tc.ok {
			if err != nil || stderr.Len() != 0 {
				t.Errorf("%v: rejected: %v %s", tc.args, err, stderr.String())
			}
			continue
		}
		if err == nil || !strings.Contains(stderr.String(), "-fault-rate") {
			t.Errorf("%v: accepted (rate %v), stderr %q", tc.args, c.FaultRate, stderr.String())
		}
	}
}
