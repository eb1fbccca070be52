package attack_test

import (
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"h2scope/internal/attack"
	"h2scope/internal/conformance"
	"h2scope/internal/core"
	"h2scope/internal/metrics"
	"h2scope/internal/netsim"
	"h2scope/internal/pageload"
	"h2scope/internal/server"
	"h2scope/internal/tlsutil"
	"h2scope/internal/trace"
)

// target is one in-process server under attack.
type target struct {
	srv *server.Server
	lis *netsim.Listener
	det *server.Detector
}

// startTarget serves profile over netsim; cfg non-nil attaches a detector.
func startTarget(t *testing.T, p server.Profile, cfg *server.DetectorConfig, reg *metrics.Registry) *target {
	t.Helper()
	srv := server.New(p, server.DefaultSite("attack.example"))
	var det *server.Detector
	if cfg != nil {
		srv.Trace = trace.New(1 << 14)
		det = srv.StartDetector(*cfg, reg)
	}
	l := netsim.NewListener("attack")
	go func() {
		_ = srv.Serve(l)
	}()
	t.Cleanup(srv.Close)
	return &target{srv: srv, lis: l, det: det}
}

func (tg *target) runner() *attack.Runner {
	return &attack.Runner{
		Dial:      func() (net.Conn, error) { return tg.lis.Dial() },
		Authority: "attack.example",
		ProbePath: "/about.html",
	}
}

// smokeDuration is the per-scenario attack duration: short by default, 2s
// in CI's race-enabled smoke job via H2SCOPE_ATTACK_DURATION.
func smokeDuration(t *testing.T) time.Duration {
	if v := os.Getenv("H2SCOPE_ATTACK_DURATION"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("H2SCOPE_ATTACK_DURATION: %v", err)
		}
		return d
	}
	if testing.Short() {
		return 150 * time.Millisecond
	}
	return 400 * time.Millisecond
}

// TestAttackBatterySmoke runs the full catalog against an undefended
// compliant server: every scenario must execute real operations and the
// server must come out healthy (the engine's protocol bounds — the
// CONTINUATION cap, the HPACK list-size limit — are its only defense here).
func TestAttackBatterySmoke(t *testing.T) {
	tg := startTarget(t, server.ApacheProfile(), nil, nil)
	r := tg.runner()
	dur := smokeDuration(t)

	outs := r.RunAll(attack.Params{Path: "/large/1", Duration: dur, Concurrency: 2})
	if len(outs) != len(attack.Kinds()) {
		t.Fatalf("outcomes = %d, want %d", len(outs), len(attack.Kinds()))
	}
	for _, out := range outs {
		if out.Ops == 0 {
			t.Errorf("%s: no operations performed", out.Kind)
		}
		if out.Conns == 0 {
			t.Errorf("%s: no connections established", out.Kind)
		}
		switch out.Verdict {
		case attack.VerdictSurvived, attack.VerdictKilledAttacker:
		default:
			t.Errorf("%s: verdict %s (%s), want survived/killed-attacker",
				out.Kind, out.Verdict, out.Note)
		}
	}
}

// TestBoundsEndHeaderFloods pins the two structural bounds the detector
// leaves these scenarios to (DESIGN.md §8.14): on every testbed profile, with
// no detector armed, an HPACK bomb draws GOAWAY(COMPRESSION_ERROR) from the
// header-list guard and nothing else, and a CONTINUATION flood draws
// GOAWAY(ENHANCE_YOUR_CALM) from the header-block bound; both kill the
// attacker and leave the server answering.
func TestBoundsEndHeaderFloods(t *testing.T) {
	for _, tc := range []struct {
		kind attack.Kind
		code string
	}{
		{attack.KindHPACKBomb, "COMPRESSION_ERROR"},
		{attack.KindContinuationFlood, "ENHANCE_YOUR_CALM"},
	} {
		t.Run(string(tc.kind), func(t *testing.T) {
			for _, p := range server.TestbedProfiles() {
				t.Run(p.Family, func(t *testing.T) {
					t.Parallel()
					// The default second: the flood's 1 KiB frames at 500/s
					// reach the 256 KiB bound about halfway through it.
					out, err := startTarget(t, p, nil, nil).runner().Run(tc.kind, attack.Params{})
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
					if out.Verdict != attack.VerdictKilledAttacker {
						t.Errorf("verdict %s (%s), want killed-attacker: %+v", out.Verdict, out.Note, out)
					}
					if want := []string{tc.code}; !reflect.DeepEqual(out.GoAwayCodes, want) {
						t.Errorf("GOAWAY codes %v over %d GOAWAYs, want %v", out.GoAwayCodes, out.GoAways, want)
					}
				})
			}
		})
	}
}

// TestRunAllClosesEveryConnection is the attack runner's connection
// accounting: every transport the whole battery dials (baseline and health
// probes, attacker connections, the ones the server killed included) is
// closed by the time RunAll returns.
func TestRunAllClosesEveryConnection(t *testing.T) {
	tg := startTarget(t, server.NginxProfile(), nil, nil)
	d := &netsim.CountingDialer{DialFunc: func() (net.Conn, error) { return tg.lis.Dial() }}
	r := tg.runner()
	r.Dial = d.Dial
	outs := r.RunAll(attack.Params{Duration: 150 * time.Millisecond})
	// Each scenario dials three baseline probes, an attacker and a health
	// probe at the least.
	if opened, closed := d.Counts(); opened != closed || opened < int64(5*len(outs)) {
		t.Errorf("the battery opened %d connections and closed %d", opened, closed)
	}
}

// TestAttackRunLeavesNoGoroutines is the attack runner's goroutine-leak
// guard: after a scenario completes, every worker goroutine and every
// server-side connection goroutine it provoked must be gone, leaving only
// the target's accept loop from before the baseline.
func TestAttackRunLeavesNoGoroutines(t *testing.T) {
	tg := startTarget(t, server.ApacheProfile(), nil, nil)
	r := tg.runner()
	base := runtime.NumGoroutine()

	out, err := r.Run(attack.KindRapidReset, attack.Params{
		Path: "/large/1", Duration: smokeDuration(t), Concurrency: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Ops == 0 || out.Conns == 0 {
		t.Fatalf("attack performed no work: %+v", out)
	}

	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain after attack: %d live, baseline %d", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sensitiveConfig returns detector settings tightened so sub-second test
// attacks cross their thresholds within a couple of sweep intervals.
func sensitiveConfig(onDetect func(server.Detection)) *server.DetectorConfig {
	return &server.DetectorConfig{
		Thresholds: server.Thresholds{
			HeaderRate:     25,
			ResetRate:      10,
			MinResets:      5,
			ResetRatio:     0.3,
			SettingsRate:   10,
			TinyDataRate:   2.5,
			TinyDataBytes:  16,
			StarvationTime: 250 * time.Millisecond,
		},
		OnDetect: onDetect,
	}
}

// TestDetectorFlagsEveryScenario is the battery/detector integration
// contract: each scenario the detector scores, run against a detector-armed
// server, must produce at least one detection of the right kind within the
// attack window, and the mitigation must leave the server able to answer a
// clean request (every non-hung verdict implies the post-attack probe
// passed). The other two scenarios are TestBoundsEndHeaderFloods'.
func TestDetectorFlagsEveryScenario(t *testing.T) {
	// Kinds whose signals legitimately blur: a long-lived drip also stops
	// making progress, so it may score as starvation.
	acceptable := map[attack.Kind][]server.AttackKind{
		attack.KindRapidReset:       {server.AttackRapidReset},
		attack.KindSlowDrip:         {server.AttackSlowDrip, server.AttackZeroWindowStarve},
		attack.KindSettingsFlood:    {server.AttackSettingsFlood},
		attack.KindZeroWindowStarve: {server.AttackZeroWindowStarve},
	}
	for _, sk := range server.AttackKinds() {
		kind := attack.Kind(sk)
		t.Run(string(kind), func(t *testing.T) {
			reg := metrics.NewRegistry()
			tg := startTarget(t, server.ApacheProfile(), sensitiveConfig(nil), reg)
			r := tg.runner()
			out, err := r.Run(kind, attack.Params{Path: "/large/1", Duration: 800 * time.Millisecond})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if out.Verdict == attack.VerdictHung {
				t.Fatalf("server hung after mitigation: %s", out.Note)
			}
			dets := tg.det.Detections()
			if len(dets) == 0 {
				t.Fatalf("no detections for %s (outcome %+v)", kind, out)
			}
			want := acceptable[kind]
			found := false
			for _, d := range dets {
				for _, w := range want {
					if d.Kind == w {
						found = true
					}
				}
				if d.Score < 1 {
					t.Errorf("detection fired below threshold: %+v", d)
				}
			}
			if !found {
				t.Errorf("detections %v lack any of %v", dets, want)
			}
			// The labeled metrics counters must agree with the detections.
			var total int64
			for _, m := range reg.Snapshot() {
				if strings.HasPrefix(m.Name, "h2_attacks_detected_total{") {
					total += m.Value
				}
			}
			if total != int64(len(dets)) {
				t.Errorf("counter total %d != detections %d", total, len(dets))
			}
		})
	}
}

// TestDetectorMitigationEvidence pins the mitigation side: a rapid-reset
// attack against the default matrix draws GOAWAY(ENHANCE_YOUR_CALM) and
// kills attacker connections, and the mitigation counters account for it.
func TestDetectorMitigationEvidence(t *testing.T) {
	reg := metrics.NewRegistry()
	tg := startTarget(t, server.ApacheProfile(), sensitiveConfig(nil), reg)
	r := tg.runner()
	out, err := r.Run(attack.KindRapidReset, attack.Params{Duration: 800 * time.Millisecond})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.Killed == 0 {
		t.Errorf("no attacker connections killed: %+v", out)
	}
	if out.GoAways == 0 {
		t.Errorf("no GOAWAY evidence: %+v", out)
	}
	found := false
	for _, code := range out.GoAwayCodes {
		if code == "ENHANCE_YOUR_CALM" {
			found = true
		}
	}
	if !found {
		t.Errorf("GoAwayCodes = %v, want ENHANCE_YOUR_CALM", out.GoAwayCodes)
	}
	if out.Verdict != attack.VerdictKilledAttacker {
		t.Errorf("verdict = %s, want killed-attacker", out.Verdict)
	}
	mitigations := int64(0)
	for _, snap := range reg.Snapshot() {
		if len(snap.Name) >= len("h2_mitigations_total") &&
			snap.Name[:len("h2_mitigations_total")] == "h2_mitigations_total" {
			mitigations += snap.Value
		}
	}
	if mitigations == 0 {
		t.Error("h2_mitigations_total counters all zero after mitigation")
	}
}

// TestDetectorNoFalsePositives replays the benign corpus — the full
// conformance suite plus repeated page loads — through a detector-armed
// server at the default per-profile thresholds and requires zero
// detections. This is the acceptance bar that keeps the detector deployable
// on every testbed personality.
func TestDetectorNoFalsePositives(t *testing.T) {
	if testing.Short() {
		t.Skip("benign corpus replay is slow")
	}
	var dets []server.Detection
	cfg := &server.DetectorConfig{OnDetect: func(d server.Detection) { dets = append(dets, d) }}
	site := server.DefaultSite("attack.example")
	site.SetPush("/", "/static/style.css", "/static/app.js")

	srv := server.New(server.ApacheProfile(), site)
	srv.Trace = trace.New(1 << 14)
	det := srv.StartDetector(*cfg, nil)
	l := netsim.NewListener("attack-benign")
	go func() {
		_ = srv.Serve(l)
	}()
	// The record-layer conformance checks (GREASE ClientHello) need a TLS
	// twin of the same server; their handshakes are benign traffic too.
	cert, err := tlsutil.SelfSignedCert("attack.example")
	if err != nil {
		t.Fatalf("cert: %v", err)
	}
	tl := netsim.NewListener("attack-benign-tls")
	go func() {
		_ = srv.Serve(tlsutil.NewFingerprintListener(tl, tlsutil.ServerConfig(cert, true)))
	}()
	t.Cleanup(srv.Close)

	env := &conformance.Env{
		Dialer:        core.DialerFunc(func() (net.Conn, error) { return l.Dial() }),
		Authority:     "attack.example",
		Timeout:       5 * time.Second,
		TLSDialer:     core.DialerFunc(func() (net.Conn, error) { return tl.Dial() }),
		TLSServerName: "attack.example",
	}
	// The benign corpus is the RFC-conformance checks; the attack/* checks
	// are intentionally adversarial, so they are exactly what the detector
	// must flag and cannot be part of a false-positive baseline.
	for _, ch := range conformance.Suite() {
		if strings.HasPrefix(ch.ID, "attack/") {
			continue
		}
		if verdict, detail := ch.Run(env); verdict == conformance.Skip {
			t.Errorf("conformance %s skipped: %s", ch.ID, detail)
		}
	}
	if _, err := pageload.Measure(func() (net.Conn, error) { return l.Dial() },
		"attack.example", "/", []string{"/static/style.css", "/static/app.js"}, 3, 10*time.Second); err != nil {
		t.Fatalf("pageload: %v", err)
	}
	// One extra sweep interval so trailing events are scored before we read.
	time.Sleep(250 * time.Millisecond)
	if got := det.Detections(); len(got) != 0 {
		t.Fatalf("false positives on benign corpus: %+v", got)
	}
	if len(dets) != 0 {
		t.Fatalf("OnDetect fired on benign corpus: %+v", dets)
	}
}

// TestScoreOutcomes pins the fold behind h2attack's score line.
func TestScoreOutcomes(t *testing.T) {
	outs := []attack.Outcome{
		{Kind: attack.KindRapidReset, Verdict: attack.VerdictKilledAttacker},
		{Kind: attack.KindSlowDrip, Verdict: attack.VerdictSurvived},
		{Kind: attack.KindSettingsFlood, Verdict: attack.VerdictDegraded},
		{Kind: attack.KindHPACKBomb, Verdict: attack.VerdictHung},
	}
	s := attack.ScoreOutcomes(outs)
	if s.Total != 4 || s.Survived != 2 {
		t.Fatalf("Survived/Total = %d/%d, want 2/4", s.Survived, s.Total)
	}
	if want := 2.5 / 4; s.Value != want {
		t.Fatalf("Value = %v, want %v", s.Value, want)
	}
}

// TestParseKind pins the name round trip the CLI depends on.
func TestParseKind(t *testing.T) {
	for _, k := range attack.Kinds() {
		got, ok := attack.ParseKind(string(k))
		if !ok || got != k {
			t.Errorf("ParseKind(%q) = %q, %v", k, got, ok)
		}
	}
	if _, ok := attack.ParseKind("nope"); ok {
		t.Error("ParseKind accepted unknown name")
	}
}

// TestHPACKBombBlockShape sanity-checks the bomb builder: small wire size,
// huge decoded expansion (asserted via the amplification arithmetic, not a
// decoder, to keep the test independent of decode limits).
func TestHPACKBombBlockShape(t *testing.T) {
	block := attack.HPACKBombBlock(3000, 12000)
	if len(block) > 20<<10 {
		t.Fatalf("bomb block is %d bytes on the wire, want < 20KiB", len(block))
	}
	decoded := 12001 * (3000 + len("bomb") + 32)
	if decoded < 30<<20 {
		t.Fatalf("decoded expansion only %d bytes", decoded)
	}
}
