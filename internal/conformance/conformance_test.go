package conformance_test

import (
	"crypto/tls"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"h2scope/internal/conformance"
	"h2scope/internal/netsim"
	"h2scope/internal/server"
	"h2scope/internal/tlsutil"
)

// newEnv serves profile p in-process behind listeners whose connections add
// owd of latency each way.
func newEnv(t *testing.T, p server.Profile, owd time.Duration) *conformance.Env {
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
		_ = srv.Serve(tls.NewListener(tl, tlsutil.ServerConfig(cert, true)))
	}()
	// Shutdown, not Close: Close waits for as long as a connection a check
	// leaked stays open, and the leak check's message is lost to the timeout.
	t.Cleanup(func() { srv.Shutdown(time.Second) })
	// Every test that runs checks through here ends on the leak check: most
	// of the suite provokes a GOAWAY and a server-side close, and those
	// transports must be closed like any other.
	dialer := &netsim.CountingDialer{DialFunc: func() (net.Conn, error) { return l.DialLatency(owd, owd) }}
	tlsDialer := &netsim.CountingDialer{DialFunc: func() (net.Conn, error) { return tl.DialLatency(owd, owd) }}
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
			results := conformance.RunSuite(newEnv(t, p, 0))
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
	results := conformance.RunSuite(newEnv(t, server.ApacheProfile(), 0))
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

// verdicts runs the suite and maps each check to its verdict.
func verdicts(env *conformance.Env) map[string]conformance.Verdict {
	out := make(map[string]conformance.Verdict)
	for _, r := range conformance.RunSuite(env) {
		out[r.ID] = r.Verdict
	}
	return out
}

// TestSuiteOverASlowPath: over a 200 ms round trip every reaction comes back
// after the reaction floor, and only the fence behind each provocation keeps
// a late GOAWAY or PING ACK from reading as none. Every check's verdict must
// be its zero-latency one, on all six profiles. The suites run at once on
// goroutines of their own: they wait, and -parallel follows the core count.
func TestSuiteOverASlowPath(t *testing.T) {
	if testing.Short() {
		t.Skip("a suite per profile over a 200 ms round trip")
	}
	const owd = 100 * time.Millisecond
	profiles := server.TestbedProfiles()
	envs := make([]*conformance.Env, 0, 2*len(profiles))
	for _, p := range profiles {
		envs = append(envs, newEnv(t, p, 0), newEnv(t, p, owd))
	}
	got := make([]map[string]conformance.Verdict, len(envs))
	var wg sync.WaitGroup
	for i, env := range envs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = verdicts(env)
		}()
	}
	wg.Wait()
	for i, p := range profiles {
		fast, slow := got[2*i], got[2*i+1]
		for id, v := range fast {
			if slow[id] != v {
				t.Errorf("%s %s: %v over a %v one-way path, %v without latency", p.Family, id, slow[id], owd, v)
			}
		}
	}
}

// TestSuiteAgainstNetHTTP runs the suite against Go's own HTTP/2 server over
// TCP loopback: an independent implementation, and a peer that may ACK a
// PING ahead of frames it has queued, which is what the reaction floor is
// for. Every verdict is pinned; the exceptions are listed in DESIGN.md.
func TestSuiteAgainstNetHTTP(t *testing.T) {
	site := server.DefaultSite("conf.example")
	var protocols http.Protocols
	protocols.SetUnencryptedHTTP2(true)
	srv := &http.Server{
		Protocols: &protocols,
		ErrorLog:  log.New(io.Discard, "", 0),
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// The whole request first, as our server does: a POST whose body
			// never ends holds its stream open, which 4.3/discarded-block-decoded
			// needs to reach the concurrency limit.
			_, _ = io.Copy(io.Discard, r.Body)
			res, ok := site.Lookup(r.URL.Path)
			if !ok {
				http.NotFound(w, r)
				return
			}
			w.Header().Set("content-type", res.ContentType)
			_, _ = w.Write(res.Body)
		}),
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })
	dialer := &netsim.CountingDialer{DialFunc: func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) }}
	got := verdicts(&conformance.Env{Dialer: dialer, Authority: "conf.example", Timeout: 5 * time.Second})
	if opened, closed := dialer.Counts(); opened != closed {
		t.Errorf("checks opened %d connections and closed %d", opened, closed)
	}
	exceptions := map[string]conformance.Verdict{
		// A 431 response instead of GOAWAY(COMPRESSION_ERROR), which RFC
		// 7540 section 10.5.1 allows.
		"attack/hpack-bomb": conformance.Fail,
		// No TLS endpoint.
		"9.2/grease-clienthello-alpn": conformance.Skip,
	}
	for _, ch := range conformance.Suite() {
		want, ok := exceptions[ch.ID]
		if !ok {
			want = conformance.Pass
		}
		if got[ch.ID] != want {
			t.Errorf("%s: %v, want %v", ch.ID, got[ch.ID], want)
		}
	}
}

func TestSuiteDetectsPingViolation(t *testing.T) {
	p := server.NginxProfile()
	p.AnswerPing = false
	// Every wait for a PING ACK or behind a fence runs to Timeout here.
	env := newEnv(t, p, 0)
	env.Timeout = time.Second
	results := conformance.RunSuite(env)
	// The PING must be answered on an idle connection (6.7) and while the
	// server may send no DATA, every response pinned by a zero stream window.
	for _, id := range []string{"6.7/ping-ack-payload", "attack/zero-window"} {
		var found *conformance.Result
		for i := range results {
			if results[i].ID == id {
				found = &results[i]
			}
		}
		if found == nil {
			t.Fatalf("%s missing from suite", id)
		}
		if found.Verdict != conformance.Fail {
			t.Errorf("%s = %v, want FAIL for a non-acking server", id, found.Verdict)
		}
	}
	if len(conformance.Failures(results)) == 0 {
		t.Error("Failures empty despite a violation")
	}
}

func TestRenderAndSummary(t *testing.T) {
	results := conformance.RunSuite(newEnv(t, server.H2OProfile(), 0))
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

// attackResults runs the suite's attack checks, and only those, against p.
func attackResults(t *testing.T, p server.Profile) map[string]conformance.Result {
	env := newEnv(t, p, 0)
	env.Timeout = 5 * time.Second
	out := make(map[string]conformance.Result)
	for _, ch := range conformance.Suite() {
		if strings.HasPrefix(ch.ID, "attack/") {
			v, detail := ch.Run(env)
			out[ch.ID] = conformance.Result{ID: ch.ID, Section: ch.Section, Verdict: v, Detail: detail}
		}
	}
	return out
}

// TestAttackResilienceChecks pins the attack-battery checks: present in the
// suite, covering their sections, and passing on every testbed profile
// (whose protocol bounds are the defense under test — no detector attached).
func TestAttackResilienceChecks(t *testing.T) {
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
	profiles := server.TestbedProfiles()
	results := make([]map[string]conformance.Result, len(profiles))
	for i, p := range profiles {
		results[i] = attackResults(t, p)
		if len(results[i]) != len(cases) {
			t.Errorf("%s: %d attack checks in the suite, want %d", p.Family, len(results[i]), len(cases))
		}
	}
	for _, tc := range cases {
		t.Run(tc.id, func(t *testing.T) {
			for i, p := range profiles {
				r, ok := results[i][tc.id]
				switch {
				case !ok:
					t.Fatalf("check %s missing from suite", tc.id)
				case r.Section != tc.section:
					t.Errorf("section = %q, want %q", r.Section, tc.section)
				case r.Verdict != conformance.Pass:
					t.Errorf("%s: verdict = %v (%s), want PASS", p.Family, r.Verdict, r.Detail)
				}
			}
		})
	}
}

// TestSlowDripHoldsOneBody: the slow-drip check drips one request body, so
// the fetch beside it fits a server that allows two concurrent streams. A
// burst that opened the battery's four bodies would read FAIL here.
func TestSlowDripHoldsOneBody(t *testing.T) {
	p := server.NginxProfile()
	p.AdvertiseMaxStreams = true
	p.MaxConcurrentStreams = 2
	if r := attackResults(t, p)["attack/slow-drip"]; r.Verdict != conformance.Pass {
		t.Errorf("attack/slow-drip at MAX_CONCURRENT_STREAMS 2: %v (%s), want PASS", r.Verdict, r.Detail)
	}
}

// TestFingerprintChecks pins the GREASE ClientHello check: it is in the
// suite and passes against a compliant testbed server.
func TestFingerprintChecks(t *testing.T) {
	for _, r := range conformance.RunSuite(newEnv(t, server.ApacheProfile(), 0)) {
		if r.ID != "9.2/grease-clienthello-alpn" {
			continue
		}
		if r.Verdict != conformance.Pass {
			t.Errorf("%s: %v (%s)", r.ID, r.Verdict, r.Detail)
		}
		return
	}
	t.Fatal("9.2/grease-clienthello-alpn missing from suite")
}

// TestGREASECheckSkipsWithoutTLS pins the degraded mode: a cleartext-only
// env skips (not fails) the record-layer check.
func TestGREASECheckSkipsWithoutTLS(t *testing.T) {
	env := newEnv(t, server.ApacheProfile(), 0)
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
