package main

import (
	"strings"
	"testing"
)

func report(unit string, v float64) Report {
	return Report{Metrics: map[string]map[string]float64{"BenchmarkX": {unit: v}}}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		name      string
		unit      string
		base, cur float64
		want      string // substring of the one failure; "" = passes
	}{
		{"counter within threshold", "envelopes/MB", 4, 4.9, ""},
		{"counter past threshold", "envelopes/MB", 4, 5.1, "regressed"},
		{"zero baseline stays zero", "envelopes/MB", 0, 0, ""},
		{"zero baseline must stay zero", "envelopes/job", 0, 0.5, "must stay 0"},
		{"one envelope in a thousand requests", "envelopes/request", 0, 0.001, "must stay 0"},
		{"rate above floor", "consigns/sec", 1000, 600, ""},
		{"rate below floor", "consigns/sec", 1000, 400, "collapsed"},
		{"rate with no baseline figure", "events/sec", 0, 10, ""},
		{"ungated unit", "ns/op", 10, 1000, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := compare(report(tc.unit, tc.base), report(tc.unit, tc.cur), 0.25)
			switch {
			case tc.want == "" && len(got) != 0:
				t.Fatalf("unexpected failures: %v", got)
			case tc.want != "" && (len(got) != 1 || !strings.Contains(got[0], tc.want)):
				t.Fatalf("failures %v, want one containing %q", got, tc.want)
			}
		})
	}
}
