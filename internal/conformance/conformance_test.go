package conformance_test

import (
	"strings"
	"testing"
	"time"

	"h2scope/internal/conformance"
	"h2scope/internal/netsim"
	"h2scope/internal/server"
	"h2scope/internal/tlsutil"
)

func newEnv(t *testing.T, p server.Profile) *conformance.Env {
	t.Helper()
	srv := server.New(p, server.DefaultSite("conf.example"))
	l := netsim.NewListener("conformance")
	go func() {
		_ = srv.Serve(l)
	}()
	// A second, TLS-wrapped listener on the same server backs the checks
	// that speak the record layer themselves (GREASE ClientHello).
	cert, err := tlsutil.SelfSignedCert("conf.example")
	if err != nil {
		t.Fatalf("cert: %v", err)
	}
	tl := netsim.NewListener("conformance-tls")
	go func() {
		_ = srv.Serve(tlsutil.NewFingerprintListener(tl, tlsutil.ServerConfig(cert, true)))
	}()
	// Shutdown, not Close: Close waits for as long as a connection a check
	// leaked stays open, and the leak check's message is lost to the timeout.
	t.Cleanup(func() { srv.Shutdown(time.Second) })
	// Every test that runs checks through here ends on the leak check: most
	// of the suite provokes a GOAWAY and a server-side close, and those
	// transports must be closed like any other.
	dialer := &netsim.CountingDialer{DialFunc: l.Dial}
	tlsDialer := &netsim.CountingDialer{DialFunc: tl.Dial}
	t.Cleanup(func() {
		for _, d := range []*netsim.CountingDialer{dialer, tlsDialer} {
			if opened, closed := d.Counts(); opened != closed {
				t.Errorf("checks opened %d connections and closed %d", opened, closed)
			}
		}
	})
	return &conformance.Env{
		Dialer:        dialer,
		Authority:     "conf.example",
		Timeout:       5 * time.Second,
		TLSDialer:     tlsDialer,
		TLSServerName: "conf.example",
	}
}

func TestSuiteAgainstCompliantProfiles(t *testing.T) {
	// The engine behind every profile implements the generic RFC rules, so
	// the suite must fully pass regardless of the profile's paper-level
	// behavior quirks.
	for _, p := range []server.Profile{server.ApacheProfile(), server.NginxProfile()} {
		p := p
		t.Run(p.Family, func(t *testing.T) {
			t.Parallel()
			results := conformance.RunSuite(newEnv(t, p))
			if len(results) != len(conformance.Suite()) {
				t.Fatalf("results = %d, want %d", len(results), len(conformance.Suite()))
			}
			for _, r := range results {
				if r.Verdict != conformance.Pass {
					t.Errorf("%s: %v (%s)", r.ID, r.Verdict, r.Detail)
				}
			}
			if got := conformance.Passed(results); got != len(results) {
				t.Errorf("Passed = %d", got)
			}
			if fails := conformance.Failures(results); len(fails) != 0 {
				t.Errorf("Failures = %v", fails)
			}
		})
	}
}

// TestFrameValidationChecks pins the frame-size, reserved-bit, and
// flag-validation checks: each must be in the suite, cover the expected RFC
// section, and pass against a compliant testbed server.
func TestFrameValidationChecks(t *testing.T) {
	results := conformance.RunSuite(newEnv(t, server.ApacheProfile()))
	byID := make(map[string]conformance.Result, len(results))
	for _, r := range results {
		byID[r.ID] = r
	}
	cases := []struct {
		id      string
		section string
	}{
		{"4.1/reserved-bit-ignored", "4.1"},
		{"4.1/undefined-flags-ignored", "4.1"},
		{"6.1/data-padding-exceeds-payload", "6.1"},
		{"6.4/rst-stream-bad-length", "6.4"},
		{"6.5/settings-ack-with-payload", "6.5.3"},
		{"6.5/settings-bad-length", "6.5"},
		{"6.7/ping-bad-length", "6.7"},
		{"6.9/window-update-bad-length", "6.9"},
	}
	for _, tc := range cases {
		t.Run(tc.id, func(t *testing.T) {
			r, ok := byID[tc.id]
			if !ok {
				t.Fatalf("check %s missing from suite", tc.id)
			}
			if r.Section != tc.section {
				t.Errorf("section = %q, want %q", r.Section, tc.section)
			}
			if r.Verdict != conformance.Pass {
				t.Errorf("verdict = %v (%s), want PASS", r.Verdict, r.Detail)
			}
		})
	}
}

func TestSuiteDetectsPingViolation(t *testing.T) {
	p := server.NginxProfile()
	p.AnswerPing = false
	results := conformance.RunSuite(newEnv(t, p))
	var found *conformance.Result
	for i := range results {
		if results[i].ID == "6.7/ping-ack-payload" {
			found = &results[i]
		}
	}
	if found == nil {
		t.Fatal("ping check missing from suite")
	}
	if found.Verdict != conformance.Fail {
		t.Errorf("ping check = %v, want FAIL for a non-acking server", found.Verdict)
	}
	if len(conformance.Failures(results)) == 0 {
		t.Error("Failures empty despite a violation")
	}
}

func TestRenderAndSummary(t *testing.T) {
	results := conformance.RunSuite(newEnv(t, server.H2OProfile()))
	out := conformance.Render(results)
	if !strings.Contains(out, "PASS") || !strings.Contains(out, "6.9/window-overflow-conn") {
		t.Errorf("render output:\n%s", out)
	}
	sum := conformance.Summary(results)
	if !strings.Contains(sum, "checks passed") {
		t.Errorf("summary = %q", sum)
	}
}

func TestVerdictString(t *testing.T) {
	if conformance.Pass.String() != "PASS" || conformance.Fail.String() != "FAIL" ||
		conformance.Skip.String() != "SKIP" {
		t.Error("verdict strings wrong")
	}
}

// TestAttackResilienceChecks pins the attack-battery checks: present in the
// suite, covering their sections, and passing against a compliant engine
// (whose protocol bounds are the defense under test — no detector attached).
func TestAttackResilienceChecks(t *testing.T) {
	results := conformance.RunSuite(newEnv(t, server.ApacheProfile()))
	cases := []struct {
		id      string
		section string
	}{
		{"attack/rapid-reset", "5.1"},
		{"attack/hpack-bomb", "4.3"},
		{"attack/continuation-bound", "6.10"},
		{"attack/settings-flood", "6.5"},
		{"attack/slow-drip", "6.1"},
		{"attack/zero-window", "6.9"},
	}
	byID := make(map[string]conformance.Result, len(results))
	for _, r := range results {
		byID[r.ID] = r
	}
	for _, tc := range cases {
		t.Run(tc.id, func(t *testing.T) {
			r, ok := byID[tc.id]
			if !ok {
				t.Fatalf("check %s missing from suite", tc.id)
			}
			if r.Section != tc.section {
				t.Errorf("section = %q, want %q", r.Section, tc.section)
			}
			if r.Verdict != conformance.Pass {
				t.Errorf("verdict = %v (%s), want PASS", r.Verdict, r.Detail)
			}
		})
	}
}

// TestFingerprintChecks pins the fingerprinting pair: both checks are in
// the suite and pass against a compliant testbed server.
func TestFingerprintChecks(t *testing.T) {
	results := conformance.RunSuite(newEnv(t, server.ApacheProfile()))
	want := map[string]bool{
		"9.2/grease-clienthello-alpn":        false,
		"6.5/settings-fingerprint-stability": false,
	}
	for _, r := range results {
		if _, ok := want[r.ID]; !ok {
			continue
		}
		want[r.ID] = true
		if r.Verdict != conformance.Pass {
			t.Errorf("%s: %v (%s)", r.ID, r.Verdict, r.Detail)
		}
	}
	for id, seen := range want {
		if !seen {
			t.Errorf("%s missing from suite", id)
		}
	}
}

// TestGREASECheckSkipsWithoutTLS pins the degraded mode: a cleartext-only
// env skips (not fails) the record-layer check.
func TestGREASECheckSkipsWithoutTLS(t *testing.T) {
	env := newEnv(t, server.ApacheProfile())
	env.TLSDialer = nil
	for _, r := range conformance.RunSuite(env) {
		if r.ID != "9.2/grease-clienthello-alpn" {
			continue
		}
		if r.Verdict != conformance.Skip {
			t.Errorf("verdict = %v (%s), want Skip", r.Verdict, r.Detail)
		}
		return
	}
	t.Fatal("check missing from suite")
}

// TestSettingsStabilityFlagsAdaptiveServer pins the enforcement edge: a
// server re-tuning SETTINGS by client fingerprint fails the stability
// check — unless the env declares the behavior intentional.
func TestSettingsStabilityFlagsAdaptiveServer(t *testing.T) {
	p := server.ApacheProfile()
	p.FingerprintAdaptive = true
	env := newEnv(t, p)
	find := func(results []conformance.Result) conformance.Result {
		for _, r := range results {
			if r.ID == "6.5/settings-fingerprint-stability" {
				return r
			}
		}
		t.Fatal("check missing from suite")
		return conformance.Result{}
	}
	if r := find(conformance.RunSuite(env)); r.Verdict != conformance.Fail {
		t.Errorf("undeclared adaptive server: verdict = %v (%s), want Fail", r.Verdict, r.Detail)
	}
	env2 := newEnv(t, p)
	env2.FingerprintAdaptive = true
	if r := find(conformance.RunSuite(env2)); r.Verdict != conformance.Pass {
		t.Errorf("declared adaptive server: verdict = %v (%s), want Pass", r.Verdict, r.Detail)
	}
}
