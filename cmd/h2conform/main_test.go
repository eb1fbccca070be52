package main

import (
	"strings"
	"testing"
)

// TestBuiltinProfilePassesEveryCheck drives the in-process mode, TLS twin
// included, and pins the size of the suite.
func TestBuiltinProfilePassesEveryCheck(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-profile", "apache"}, &out); err != nil {
		t.Errorf("run(-profile apache) = %v, want nil", err)
	}
	if !strings.Contains(out.String(), "\n34/34 checks passed\n") {
		t.Errorf("no 34/34 summary line:\n%s", out.String())
	}
}

func TestFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "need -target or -profile"},
		{[]string{"-profile", "caddy"}, `unknown profile "caddy"`},
	} {
		if err := run(tc.args, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}
