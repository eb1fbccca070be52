package main

import (
	"strings"
	"testing"
)

// TestRendersARowPerPushSite runs Fig. 3 at two visits and a compressed
// clock: the Jul 2016 epoch has six push-capable sites.
func TestRendersARowPerPushSite(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-visits", "2", "-scale", "0.05"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "1st Exp. (Jul 2016), 2 visits") || !strings.Contains(got, "PLT push on") {
		t.Errorf("no Figure 3 heading:\n%s", got)
	}
	_, table, _ := strings.Cut(got, "------\n")
	if rows := strings.Fields(table); len(rows) != 6*4 || !strings.HasSuffix(rows[1], "ms") {
		t.Errorf("want six rows of site, two PLTs and the saving:\n%s", got)
	}
}

func TestUnknownFlag(t *testing.T) {
	if err := run([]string{"-sites", "3"}, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "not defined: -sites") {
		t.Errorf("run(-sites 3) = %v, want an unknown-flag error", err)
	}
}
