package main

import (
	"strings"
	"testing"
)

// TestRendersAColumnPerMethod runs Fig. 6 at one site per family, one sample
// and a compressed clock: five families by four estimators.
func TestRendersAColumnPerMethod(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-per-family", "1", "-samples", "1", "-scale", "0.05"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{"2nd Exp. (Jan 2017), 1 sites/family", "h2-ping  icmp", "tcp-rtt  h1-request", "\n0.50  ", "(20 samples total;"} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}

func TestUnknownFlag(t *testing.T) {
	if err := run([]string{"-sites", "3"}, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "not defined: -sites") {
		t.Errorf("run(-sites 3) = %v, want an unknown-flag error", err)
	}
}
