// Package attack drives adversarial HTTP/2 scenarios against a server
// through h2conn's raw frame control and reports typed outcome records.
//
// The paper's measurements assume servers that at least try to behave; this
// package asks the complementary question its robustness discussion leaves
// open — what does an implementation do when the client is hostile? Each
// scenario reproduces a known HTTP/2 attack shape at a parameterized rate,
// concurrency, duration, and jitter: Rapid-Reset stream churn
// (CVE-2023-44487), slow-DATA body drips, SETTINGS floods, zero-window
// starvation, HPACK bombs, and CONTINUATION floods. A Runner measures a
// clean-request latency baseline before the attack, runs a benign victim
// client during it (the collateral latency), and re-probes after it,
// classifying the server as survived, degraded, or hung — or as having
// actively killed the attackers, the strongest defense — with GOAWAY
// evidence collected from the attacking connections.
//
// The defense is the server's structural bounds (internal/server): the
// header-list guard answers an HPACK bomb with GOAWAY(COMPRESSION_ERROR),
// and the header-block bound answers a CONTINUATION flood with
// GOAWAY(ENHANCE_YOUR_CALM). This package's tests assert that both bounds
// end their scenarios on every testbed profile, and that no scenario costs
// the victim a failed fetch.
package attack

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/h2conn"
)

// Kind names one adversarial scenario.
type Kind string

// The scenario catalog.
const (
	// KindRapidReset opens streams and immediately resets them, as fast as
	// the rate allows — stream-accounting churn with no request cost.
	KindRapidReset Kind = "rapid-reset"
	// KindSlowDrip opens request bodies and drips them one byte at a time,
	// pinning server stream state for the whole duration.
	KindSlowDrip Kind = "slow-drip"
	// KindSettingsFlood streams SETTINGS frames, each obligating an ACK.
	KindSettingsFlood Kind = "settings-flood"
	// KindZeroWindowStarve advertises a zero stream window, requests large
	// resources, and never opens the window.
	KindZeroWindowStarve Kind = "zero-window-starvation"
	// KindHPACKBomb sends header blocks that decompress massively through
	// dynamic-table references.
	KindHPACKBomb Kind = "hpack-bomb"
	// KindContinuationFlood sends an unterminated CONTINUATION sequence.
	KindContinuationFlood Kind = "continuation-flood"
)

// Kinds returns the full scenario catalog in canonical order.
func Kinds() []Kind {
	return []Kind{
		KindRapidReset, KindSlowDrip, KindSettingsFlood,
		KindZeroWindowStarve, KindHPACKBomb, KindContinuationFlood,
	}
}

// ParseKind resolves a scenario name; ok is false for unknown names.
func ParseKind(name string) (Kind, bool) {
	for _, k := range Kinds() {
		if string(k) == name {
			return k, true
		}
	}
	return "", false
}

// Params tunes one scenario run. The zero value is usable: every field has
// a scenario-appropriate default.
type Params struct {
	// Authority is the :authority of attack and probe requests.
	Authority string
	// Path is the resource attacked (default "/"); starvation scenarios
	// want a large one so there is response data to withhold.
	Path string
	// Duration bounds the attack (default 1s).
	Duration time.Duration
	// Rate is the per-connection operation rate in ops/second (streams
	// reset, bytes dripped, frames sent — the scenario's natural unit);
	// 0 selects the scenario default.
	Rate float64
	// Concurrency is the number of attacker connections (default 1).
	// Connections the server kills are re-dialed until Duration elapses.
	Concurrency int
	// Jitter shifts each operation's due time within a window this fraction
	// (0..1) of the nominal interval wide, centred on the schedule, so paced
	// frames do not arrive in lockstep across connections.
	Jitter float64
	// Seed makes the jitter sequence reproducible; 0 derives one from the
	// scenario kind.
	Seed int64
}

// withDefaults resolves zero fields against the scenario's defaults.
func (p Params) withDefaults(k Kind) Params {
	if p.Path == "" {
		p.Path = "/"
	}
	if p.Duration <= 0 {
		p.Duration = time.Second
	}
	if p.Concurrency <= 0 {
		p.Concurrency = 1
	}
	if p.Rate <= 0 {
		p.Rate = defaultRate(k)
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	if p.Seed == 0 {
		var h int64
		for _, b := range []byte(k) {
			h = h*131 + int64(b)
		}
		p.Seed = h
	}
	return p
}

func defaultRate(k Kind) float64 {
	switch k {
	case KindRapidReset:
		return 2000
	case KindSlowDrip:
		return 30
	case KindSettingsFlood:
		return 500
	case KindZeroWindowStarve:
		return 8 // streams opened, not a pace
	case KindHPACKBomb:
		return 50
	case KindContinuationFlood:
		return 500
	default:
		return 100
	}
}

// Verdict classifies the server's fate after one scenario.
type Verdict string

// Verdicts, best server showing first.
const (
	// VerdictKilledAttacker: the server stayed healthy and terminated the
	// attacking connections early (GOAWAY or close) — active defense.
	VerdictKilledAttacker Verdict = "killed-attacker"
	// VerdictSurvived: the post-attack probe and the collateral stayed
	// under the degradation bar, and no collateral probe failed.
	VerdictSurvived Verdict = "survived"
	// VerdictDegraded: the probe succeeded, but it or the collateral p99
	// blew past the degradation bar, or a collateral probe failed.
	VerdictDegraded Verdict = "degraded"
	// VerdictHung: the post-attack probe failed or timed out.
	VerdictHung Verdict = "hung"
)

// Outcome is the typed record one scenario run produces.
type Outcome struct {
	Kind Kind `json:"kind"`
	// Parameters the run resolved to.
	Rate        float64       `json:"rate"`
	Concurrency int           `json:"concurrency"`
	Duration    time.Duration `json:"duration_ns"`

	// Ops counts completed scenario operations across all connections;
	// Errors counts attacker-side write/dial failures.
	Ops    int64 `json:"ops"`
	Errors int64 `json:"errors"`
	// Conns is how many attacker connections were established; Killed how
	// many of them the server terminated before the deadline.
	Conns  int `json:"conns"`
	Killed int `json:"killed"`
	// GoAways counts GOAWAY frames the attackers received, with the
	// distinct error codes seen — the server's defense evidence.
	GoAways     int      `json:"goaways"`
	GoAwayCodes []string `json:"goaway_codes,omitempty"`

	// BaselineLatency and ProbeLatency are the clean-request round trips
	// measured before and after the attack.
	BaselineLatency time.Duration `json:"baseline_latency_ns"`
	ProbeLatency    time.Duration `json:"probe_latency_ns"`

	// CollateralProbes counts the clean requests a benign victim made
	// during the attack, CollateralFailed those that failed, and
	// CollateralP99 is the p99 round trip of the rest.
	CollateralProbes int           `json:"collateral_probes"`
	CollateralFailed int           `json:"collateral_failed"`
	CollateralP99    time.Duration `json:"collateral_p99_ns"`

	Verdict Verdict `json:"verdict"`
	// Note carries failure detail (probe errors and the like).
	Note string `json:"note,omitempty"`
}

// Runner executes scenarios against one target.
type Runner struct {
	// Dial opens one transport connection to the target.
	Dial func() (net.Conn, error)
	// Authority is the default :authority (overridable per Params).
	Authority string
	// ProbePath is the small resource fetched for baseline and post-attack
	// health probes (default "/").
	ProbePath string
	// ProbeTimeout bounds each health probe (default 2s); a post-attack
	// probe that cannot complete within it marks the server hung.
	ProbeTimeout time.Duration
}

// The degradation bar: the post-attack probe and the collateral p99 may
// each take up to max(degradedFactor × baseline, degradedFloor) before the
// verdict drops to degraded.
const (
	degradedFactor = 5
	degradedFloor  = 250 * time.Millisecond
)

// collateralInterval paces the benign victim: one clean request, each on a
// fresh connection, every interval for the length of the attack.
const collateralInterval = 5 * time.Millisecond

func (r *Runner) probeTimeout() time.Duration {
	if r.ProbeTimeout > 0 {
		return r.ProbeTimeout
	}
	return 2 * time.Second
}

func (r *Runner) probePath() string {
	if r.ProbePath != "" {
		return r.ProbePath
	}
	return "/"
}

// probe fetches the probe resource on a fresh, well-behaved connection and
// returns the round-trip time.
func (r *Runner) probe(authority string) (time.Duration, error) {
	nc, err := r.Dial()
	if err != nil {
		return 0, fmt.Errorf("attack: probe dial: %w", err)
	}
	c, err := h2conn.Dial(nc, h2conn.DefaultOptions())
	if err != nil {
		_ = nc.Close()
		return 0, fmt.Errorf("attack: probe setup: %w", err)
	}
	defer func() {
		_ = c.Close()
	}()
	start := time.Now()
	resp, err := c.FetchBody(h2conn.Request{Authority: authority, Path: r.probePath()}, r.probeTimeout())
	if err != nil {
		return 0, fmt.Errorf("attack: probe fetch: %w", err)
	}
	if got := resp.Status(); got != "200" {
		return 0, fmt.Errorf("attack: probe status %s", got)
	}
	return time.Since(start), nil
}

// baseline measures the clean-request latency as the median of three probes.
func (r *Runner) baseline(authority string) (time.Duration, error) {
	var samples []time.Duration
	for i := 0; i < 3; i++ {
		d, err := r.probe(authority)
		if err != nil {
			return 0, err
		}
		samples = append(samples, d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[1], nil
}

// collateral is the benign victim: it probes the server every
// collateralInterval until deadline and returns how many probes it made, how
// many failed (with the first error) and the p99 of the ones that succeeded.
func (r *Runner) collateral(authority string, deadline time.Time) (probes, failed int, p99 time.Duration, firstErr error) {
	var lats []time.Duration
	for time.Now().Before(deadline) {
		probes++
		if d, err := r.probe(authority); err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		} else {
			lats = append(lats, d)
		}
		time.Sleep(collateralInterval)
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		p99 = lats[(99*len(lats)+99)/100-1]
	}
	return probes, failed, p99, firstErr
}

// Run executes one scenario and classifies the server's fate.
func (r *Runner) Run(kind Kind, p Params) (Outcome, error) {
	scn, ok := scenarios[kind]
	if !ok {
		return Outcome{}, fmt.Errorf("attack: unknown scenario %q", kind)
	}
	if p.Authority == "" {
		p.Authority = r.Authority
	}
	p = p.withDefaults(kind)
	out := Outcome{Kind: kind, Rate: p.Rate, Concurrency: p.Concurrency, Duration: p.Duration}

	base, err := r.baseline(p.Authority)
	if err != nil {
		return out, err
	}
	out.BaselineLatency = base

	deadline := time.Now().Add(p.Duration)
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		colErr  error
		codes   = map[string]struct{}{}
		collect = func(ops int64, failed bool, evs []h2conn.Event, killedEarly bool) {
			mu.Lock()
			defer mu.Unlock()
			out.Ops += ops
			if failed {
				out.Errors++
			}
			out.Conns++
			if killedEarly {
				out.Killed++
			}
			for _, ev := range evs {
				if ev.Type == frame.TypeGoAway {
					out.GoAways++
					codes[ev.ErrCode.String()] = struct{}{}
				}
			}
		}
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		probes, failed, p99, err := r.collateral(p.Authority, deadline)
		mu.Lock()
		out.CollateralProbes, out.CollateralFailed, out.CollateralP99, colErr = probes, failed, p99, err
		mu.Unlock()
	}()
	for i := 0; i < p.Concurrency; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(p.Seed + int64(worker)))
			for time.Now().Before(deadline) {
				nc, err := r.Dial()
				if err != nil {
					mu.Lock()
					out.Errors++
					mu.Unlock()
					time.Sleep(10 * time.Millisecond)
					continue
				}
				c, err := h2conn.Dial(nc, scn.options())
				if err != nil {
					_ = nc.Close()
					mu.Lock()
					out.Errors++
					mu.Unlock()
					time.Sleep(10 * time.Millisecond)
					continue
				}
				var ops int64
				if scn.hold {
					ops, err = scn.send(c, p, max(int64(p.Rate), 1), nil, deadline)
				} else {
					ops, err = scn.send(c, p, math.MaxInt64, newPacer(p, rng), deadline)
				}
				failed := err != nil
				if !failed && scn.hold {
					err = holdOpen(c, deadline)
				}
				collect(ops, failed, c.Events(), err != nil && time.Until(deadline) > 50*time.Millisecond)
				_ = c.Close()
			}
		}(i)
	}
	wg.Wait()
	for code := range codes {
		out.GoAwayCodes = append(out.GoAwayCodes, code)
	}
	sort.Strings(out.GoAwayCodes)

	r.verdict(p.Authority, &out, colErr)
	return out, nil
}

// verdict re-probes the server after the attack and classifies its fate
// from that probe, the victim's collateral (colErr is its first failure)
// and whether any attacker was killed.
func (r *Runner) verdict(authority string, out *Outcome, colErr error) {
	lat, err := r.probe(authority)
	if err != nil {
		out.Verdict, out.Note = VerdictHung, err.Error()
		return
	}
	out.ProbeLatency = lat
	bar := max(degradedFactor*out.BaselineLatency, degradedFloor)
	switch {
	case out.CollateralFailed > 0:
		out.Verdict, out.Note = VerdictDegraded, fmt.Sprintf("%d of %d collateral probes failed: %v",
			out.CollateralFailed, out.CollateralProbes, colErr)
	case out.CollateralP99 > bar:
		out.Verdict, out.Note = VerdictDegraded, fmt.Sprintf("collateral p99 %v over bar %v", out.CollateralP99, bar)
	case lat > bar:
		out.Verdict, out.Note = VerdictDegraded, fmt.Sprintf("probe %v over bar %v", lat, bar)
	case out.Killed > 0:
		out.Verdict = VerdictKilledAttacker
	default:
		out.Verdict = VerdictSurvived
	}
}

// RunAll executes the whole catalog with shared params, in catalog order.
// Scenario-level errors (baseline probe failures) surface as hung outcomes
// rather than aborting the battery.
func (r *Runner) RunAll(p Params) []Outcome {
	outs := make([]Outcome, 0, len(Kinds()))
	for _, k := range Kinds() {
		out, err := r.Run(k, p)
		if err != nil && out.Verdict == "" {
			out.Kind = k
			out.Verdict = VerdictHung
			out.Note = err.Error()
		}
		outs = append(outs, out)
	}
	return outs
}

// holdOpen keeps c open until deadline, sending nothing, and returns the
// error that ended the connection first, if one did.
func holdOpen(c *h2conn.Conn, deadline time.Time) error {
	for time.Now().Before(deadline) {
		if err := c.ReadErr(); err != nil {
			return err
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil
}

// pacer schedules scenario operations at the configured rate: operation n
// is due at start + n·interval, and jitter shifts that instant rather than
// each gap, so neither an operation's own cost nor timer overshoot adds up
// and the connection keeps its rate.
type pacer struct {
	start    time.Time
	interval time.Duration
	jitter   float64
	rng      *rand.Rand
	n        int64 // operations scheduled so far
}

func newPacer(p Params, rng *rand.Rand) *pacer {
	return &pacer{
		start:    time.Now(),
		interval: time.Duration(float64(time.Second) / p.Rate),
		jitter:   p.Jitter,
		rng:      rng,
	}
}

// wait sleeps until the next operation is due (not at all if it is already
// overdue), reporting false once past deadline.
func (p *pacer) wait(deadline time.Time) bool {
	p.n++
	due := p.start.Add(time.Duration(p.n) * p.interval)
	if p.jitter > 0 {
		due = due.Add(time.Duration(float64(p.interval) * p.jitter * (p.rng.Float64() - 0.5)))
	}
	remaining := time.Until(deadline)
	if remaining <= 0 {
		return false
	}
	if d := time.Until(due); d > remaining {
		time.Sleep(remaining)
		return false
	} else if d > 0 {
		time.Sleep(d)
	}
	return true
}

// Score aggregates a battery into the one summary line h2attack prints.
type Score struct {
	// Survived counts scenarios the server weathered cleanly (survived or
	// killed-attacker); Total is the battery size.
	Survived, Total int
	// Value is the robustness score in [0,1]: full credit for clean
	// survival, half for degraded, none for hung.
	Value float64
}

// ScoreOutcomes folds a battery's outcomes into a Score.
func ScoreOutcomes(outs []Outcome) Score {
	s := Score{Total: len(outs)}
	credit := 0.0
	for _, o := range outs {
		switch o.Verdict {
		case VerdictSurvived, VerdictKilledAttacker:
			s.Survived++
			credit++
		case VerdictDegraded:
			credit += 0.5
		}
	}
	if s.Total > 0 {
		s.Value = credit / float64(s.Total)
	}
	return s
}
