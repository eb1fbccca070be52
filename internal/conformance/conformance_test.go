package conformance_test

import (
	"crypto/tls"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
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

var update = flag.Bool("update", false, "rewrite testdata/suite.golden")

// goldenPath holds the suite's one expected catalog: every check's ID,
// section, verdict, requirement and detail ("-" when empty), one
// tab-separated line each.
var goldenPath = filepath.Join("testdata", "suite.golden")

// TestSuiteAgainstCompliantProfiles pins the whole catalog against all six
// testbed profiles. The engine behind every profile implements the generic
// RFC rules, so each must read the golden catalog, all PASS, whatever its
// paper-level quirks.
func TestSuiteAgainstCompliantProfiles(t *testing.T) {
	for _, p := range server.TestbedProfiles() {
		t.Run(p.Family, func(t *testing.T) {
			t.Parallel()
			results := conformance.RunSuite(newEnv(t, p, 0))
			var got strings.Builder
			for _, r := range results {
				detail := r.Detail
				if detail == "" {
					detail = "-"
				}
				fmt.Fprintf(&got, "%s\t%s\t%v\t%s\t%s\n", r.ID, r.Section, r.Verdict, r.Description, detail)
			}
			if *update {
				if p.Family == "apache" {
					if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if got.String() != string(want) {
				t.Errorf("catalog drifted from %s (run with -update to accept):\n--- got ---\n%s--- want ---\n%s", goldenPath, got.String(), want)
			}
			if sum, n := conformance.Summary(results), len(results); sum != fmt.Sprintf("%d/%d checks passed", n, n) {
				t.Errorf("Summary = %q", sum)
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
		// RST_STREAM(PROTOCOL_ERROR) on the bomb's stream, with no GOAWAY
		// and no response: a header list without pseudo-headers is
		// malformed, and net/http refuses the stream, keeping the connection.
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

// findCheck returns the suite's check id.
func findCheck(t *testing.T, id string) conformance.Check {
	t.Helper()
	for _, ch := range conformance.Suite() {
		if ch.ID == id {
			return ch
		}
	}
	t.Fatalf("check %s missing from suite", id)
	return conformance.Check{}
}

// runCheck runs the suite's check id, and only that check, against env.
func runCheck(t *testing.T, env *conformance.Env, id string) (conformance.Verdict, string) {
	t.Helper()
	return findCheck(t, id).Run(env)
}

// TestFrameValidationChecks pins the frame-size, reserved-bit and
// flag-validation checks apart from the golden file, which -update rewrites:
// each is in the suite, covers its RFC section and passes against a
// compliant testbed server.
func TestFrameValidationChecks(t *testing.T) {
	env := newEnv(t, server.ApacheProfile(), 0)
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
			ch := findCheck(t, tc.id)
			if ch.Section != tc.section {
				t.Errorf("section = %q, want %q", ch.Section, tc.section)
			}
			if v, detail := ch.Run(env); v != conformance.Pass {
				t.Errorf("verdict = %v (%s), want PASS", v, detail)
			}
		})
	}
}

// TestAttackResilienceChecks pins the attack-battery checks apart from the
// golden file: present in the suite, covering their sections, and passing on
// every testbed profile (whose protocol bounds are the defense under test —
// no detector attached).
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
	n := 0
	for _, ch := range conformance.Suite() {
		if strings.HasPrefix(ch.ID, "attack/") {
			n++
		}
	}
	if n != len(cases) {
		t.Errorf("%d attack checks in the suite, want %d", n, len(cases))
	}
	profiles := server.TestbedProfiles()
	envs := make([]*conformance.Env, len(profiles))
	for i, p := range profiles {
		envs[i] = newEnv(t, p, 0)
	}
	for _, tc := range cases {
		t.Run(tc.id, func(t *testing.T) {
			ch := findCheck(t, tc.id)
			if ch.Section != tc.section {
				t.Errorf("section = %q, want %q", ch.Section, tc.section)
			}
			for i, p := range profiles {
				if v, detail := ch.Run(envs[i]); v != conformance.Pass {
					t.Errorf("%s: verdict = %v (%s), want PASS", p.Family, v, detail)
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
	if v, detail := runCheck(t, newEnv(t, p, 0), "attack/slow-drip"); v != conformance.Pass {
		t.Errorf("attack/slow-drip at MAX_CONCURRENT_STREAMS 2: %v (%s), want PASS", v, detail)
	}
}

// TestFingerprintChecks pins the GREASE ClientHello check: it is in the
// suite and passes against a compliant testbed server.
func TestFingerprintChecks(t *testing.T) {
	if v, detail := runCheck(t, newEnv(t, server.ApacheProfile(), 0), "9.2/grease-clienthello-alpn"); v != conformance.Pass {
		t.Errorf("verdict = %v (%s), want PASS", v, detail)
	}
}

// TestGREASECheckSkipsWithoutTLS pins the degraded mode: a cleartext-only
// env skips (not fails) the record-layer check.
func TestGREASECheckSkipsWithoutTLS(t *testing.T) {
	env := newEnv(t, server.ApacheProfile(), 0)
	env.TLSDialer = nil
	if v, detail := runCheck(t, env, "9.2/grease-clienthello-alpn"); v != conformance.Skip {
		t.Errorf("verdict = %v (%s), want Skip", v, detail)
	}
}
