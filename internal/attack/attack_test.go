package attack_test

import (
	"net"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"h2scope/internal/attack"
	"h2scope/internal/netsim"
	"h2scope/internal/population"
	"h2scope/internal/server"
)

// target is one in-process server under attack, reached through lis.
type target struct {
	lis *netsim.Listener
}

// startTarget serves profile over netsim.
func startTarget(t *testing.T, p server.Profile) *target {
	t.Helper()
	srv := server.New(p, server.DefaultSite("attack.example"))
	l := netsim.NewListener("attack")
	go func() {
		_ = srv.Serve(l)
	}()
	t.Cleanup(srv.Close)
	return &target{lis: l}
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

// TestAttackBatterySmoke runs the full catalog against every testbed
// profile and against three census sites whose behaviour none of them has
// (censusProfiles): every scenario must execute real operations, the benign
// victim running alongside must see no failed request, and the server must
// come out healthy. The engine's protocol bounds (the CONTINUATION cap, the
// HPACK list-size limit) are its only defense.
func TestAttackBatterySmoke(t *testing.T) {
	dur := smokeDuration(t)
	smoke := func(name string, p server.Profile) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			outs := startTarget(t, p).runner().RunAll(attack.Params{Path: "/large/1", Duration: dur, Concurrency: 2})
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
				if out.CollateralProbes == 0 || out.CollateralFailed != 0 {
					t.Errorf("%s: %d of %d collateral probes failed", out.Kind, out.CollateralFailed, out.CollateralProbes)
				}
				switch out.Verdict {
				case attack.VerdictSurvived, attack.VerdictKilledAttacker:
				default:
					t.Errorf("%s: verdict %s (%s), want survived/killed-attacker",
						out.Kind, out.Verdict, out.Note)
				}
			}
		})
	}
	for _, p := range server.TestbedProfiles() {
		smoke(p.Family, p)
	}
	for _, s := range censusProfiles() {
		smoke(s.Domain, s.Profile)
	}
}

// censusProfiles are the census sites of the seed-23 Jan 2017 population at
// scale 0.01 that first show a behaviour no testbed profile has: silence
// under a 1-byte window (with HEADERS withheld under a zero one), an empty
// SETTINGS frame, and SETTINGS_MAX_CONCURRENT_STREAMS = 1. A site's server
// runs its spec's Profile as it is.
func censusProfiles() []population.SiteSpec {
	sites := population.Generate(population.EpochJan2017, 0.01, 23).Sites
	var out []population.SiteSpec
	for _, first := range []func(s *population.SiteSpec) bool{
		func(s *population.SiteSpec) bool { return s.TinyWindow == server.TinyWindowSilent },
		func(s *population.SiteSpec) bool { return s.OmitSettings },
		func(s *population.SiteSpec) bool { return s.AdvertiseMaxStreams && s.MaxConcurrentStreams == 1 },
	} {
		for i := range sites {
			if first(&sites[i]) {
				out = append(out, sites[i])
				break
			}
		}
	}
	return out
}

// TestBoundsEndHeaderFloods pins the two structural bounds that end these
// scenarios (DESIGN.md §8.14): on every testbed profile an HPACK bomb draws
// GOAWAY(COMPRESSION_ERROR) from the header-list guard and nothing else, and
// a CONTINUATION flood draws GOAWAY(ENHANCE_YOUR_CALM) from the header-block
// bound; both kill the attacker and leave the server answering.
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
					out, err := startTarget(t, p).runner().Run(tc.kind, attack.Params{})
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
	tg := startTarget(t, server.NginxProfile())
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
	tg := startTarget(t, server.ApacheProfile())
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
