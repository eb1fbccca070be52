package core

import (
	"context"
	"fmt"
	"strconv"
)

// Report is the full H2Scope battery result for one target — one column of
// the paper's Table III.
type Report struct {
	// Authority names the target.
	Authority string

	// ALPN and NPN are negotiation results when a Negotiator was supplied;
	// nil otherwise.
	ALPN *bool
	NPN  *bool

	Settings          *SettingsResult
	Multiplex         *MultiplexResult
	FlowData          *FlowDataResult
	ZeroWindowHeaders *ZeroWindowHeadersResult
	ZeroWU            *WindowUpdateResult
	LargeWU           *WindowUpdateResult
	Priority          *PriorityResult
	SelfDep           *SelfDependencyResult
	Push              *PushResult
	HPACK             *HPACKResult
	Ping              *PingResult

	// Errors collects probe failures; a partially probed target still
	// yields a useful report, as in the large-scale measurement.
	Errors []string
}

// Run executes the complete probe battery. Individual probe failures are
// recorded in Report.Errors rather than aborting the battery.
func (p *Prober) Run() (*Report, error) {
	return p.RunContext(context.Background())
}

// RunContext executes the complete probe battery. The settings probe runs
// first — a target that cannot complete it is not probeable, and nothing
// else is dialed — then every other probe runs at once, each on its own
// connections, so the battery lasts as long as its slowest probe rather than
// the sum of them: most of a probe is a reaction window spent waiting for a
// frame that may never come. Step errors are listed in battery order
// whatever order the probes finish in. A context canceled before the
// battery fans out skips it; one canceled after lets the probes in flight
// finish (a deadline it carries is on every transport), and either way the
// partially filled report comes back with ctx's error, so large-scale runs
// can be killed mid-battery without losing what was already measured.
func (p *Prober) RunContext(ctx context.Context) (*Report, error) {
	r := &Report{Authority: p.cfg.Authority}
	if neg, ok := p.dialer.(Negotiator); ok {
		p.probeNegotiation(neg, r)
	}
	var err error
	if r.Settings, err = p.ProbeSettings(ctx); err != nil {
		r.fail("settings", err)
		return r, fmt.Errorf("core: target not probeable: %w", err)
	}
	steps := []struct {
		name string
		run  func() error
	}{
		{"multiplexing", func() (err error) { r.Multiplex, err = p.ProbeMultiplexing(ctx, 4); return }},
		{"flow-data", func() (err error) { r.FlowData, err = p.ProbeFlowControlData(ctx, 1); return }},
		{"zero-window-headers", func() (err error) { r.ZeroWindowHeaders, err = p.ProbeZeroWindowHeaders(ctx); return }},
		{"zero-window-update", func() (err error) { r.ZeroWU, err = p.ProbeZeroWindowUpdate(ctx); return }},
		{"large-window-update", func() (err error) { r.LargeWU, err = p.ProbeLargeWindowUpdate(ctx); return }},
		{"priority", func() (err error) { r.Priority, err = p.ProbePriority(ctx); return }},
		{"self-dependency", func() (err error) { r.SelfDep, err = p.ProbeSelfDependency(ctx); return }},
		{"server-push", func() (err error) { r.Push, err = p.ProbeServerPush(ctx); return }},
		{"hpack", func() (err error) { r.HPACK, err = p.ProbeHPACK(ctx); return }},
		{"ping", func() (err error) { r.Ping, err = p.ProbePing(ctx); return }},
	}
	if cerr := ctx.Err(); cerr != nil {
		r.fail("battery", cerr)
		return r, cerr
	}
	// Each step writes its own Report field and its own slot here.
	errs := make([]error, len(steps))
	runs := make([]func(), len(steps))
	for i, step := range steps {
		runs[i] = func() { errs[i] = step.run() }
	}
	together(runs...)
	for i, err := range errs {
		if err != nil {
			r.fail(steps[i].name, err)
		}
	}
	if cerr := ctx.Err(); cerr != nil {
		r.fail("battery", cerr)
		return r, cerr
	}
	return r, nil
}

func (p *Prober) probeNegotiation(neg Negotiator, r *Report) {
	alpn := false
	if proto, err := neg.NegotiateALPN([]string{"h2", "http/1.1"}); err == nil && proto == "h2" {
		alpn = true
	}
	r.ALPN = &alpn
	npn := false
	if protos, err := neg.NegotiateNPN(); err == nil {
		for _, p := range protos {
			if p == "h2" {
				npn = true
			}
		}
	}
	r.NPN = &npn
}

func (r *Report) fail(probe string, err error) {
	r.Errors = append(r.Errors, fmt.Sprintf("%s: %v", probe, err))
}

// --- Table III derived verdicts ---

// SupportsMultiplexing is Table III row "Request Multiplexing".
func (r *Report) SupportsMultiplexing() bool {
	return r.Multiplex != nil && r.Multiplex.Interleaved
}

// FlowControlOnData is Table III row "Flow Control on DATA Frames": DATA
// frames sized to the advertised 1-byte window.
func (r *Report) FlowControlOnData() bool {
	return r.FlowData != nil && r.FlowData.Class == TinyWindowOneByte && r.FlowData.FirstDataLen == 1
}

// FlowControlOnHeaders is Table III row "Flow Control on HEADERS Frames":
// the non-compliant withholding of HEADERS under a zero DATA window.
func (r *Report) FlowControlOnHeaders() bool {
	return r.ZeroWindowHeaders != nil && !r.ZeroWindowHeaders.GotHeaders
}

// PriorityVerdict is Table III row "Priority Mechanism Testing": "pass" or
// "fail" per Algorithm 1.
func (r *Report) PriorityVerdict() string {
	if r.Priority != nil && r.Priority.Pass {
		return "pass"
	}
	return "fail"
}

// HeaderCompressionVerdict is Table III row "Header Compression": "support"
// for effective dynamic-table use, "support*" for the Nginx/Tengine
// behavior where repeated responses do not shrink (ratio ~1).
func (r *Report) HeaderCompressionVerdict() string {
	if r.HPACK == nil {
		return "unknown"
	}
	if r.HPACK.Ratio >= 0.95 {
		return "support*"
	}
	return "support"
}

// PingVerdict is Table III row "HTTP/2 PING".
func (r *Report) PingVerdict() string {
	if r.Ping != nil && r.Ping.Supported {
		return "support"
	}
	return "no support"
}

// PushVerdict is Table III row "Server Push".
func (r *Report) PushVerdict() string {
	if r.Push != nil && r.Push.Supported {
		return "yes"
	}
	return "no"
}

// TableIIIRowNames lists the check names in the paper's Table III order.
var TableIIIRowNames = []string{
	"ALPN",
	"NPN",
	"Request Multiplexing",
	"Flow Control on DATA Frames",
	"Flow Control on HEADERS Frames",
	"Zero Window Update on stream",
	"Zero Window Update on connection",
	"Large Window Update (Connection)",
	"Large Window Update (Stream)",
	"Server Push",
	"Priority Mechanism Testing (Algorithm 1)",
	"Self-dependent Stream",
	"Header Compression",
	"HTTP/2 PING",
}

// TableIIIRow renders the report as the paper's Table III column: one value
// per entry of TableIIIRowNames.
func (r *Report) TableIIIRow() []string {
	obs := func(w *WindowUpdateResult, stream bool) string {
		if w == nil {
			return "unknown"
		}
		if stream {
			return w.Stream.String()
		}
		return w.Conn.String()
	}
	boolStr := func(b bool, yes, no string) string {
		if b {
			return yes
		}
		return no
	}
	neg := func(v *bool) string {
		if v == nil {
			return "n/a"
		}
		return boolStr(*v, "support", "no support")
	}
	selfDep := "unknown"
	if r.SelfDep != nil {
		selfDep = r.SelfDep.Reaction.String()
	}
	return []string{
		neg(r.ALPN),
		neg(r.NPN),
		boolStr(r.SupportsMultiplexing(), "support", "no support"),
		boolStr(r.FlowControlOnData(), "yes", "no"),
		boolStr(r.FlowControlOnHeaders(), "yes", "no"),
		obs(r.ZeroWU, true),
		obs(r.ZeroWU, false),
		obs(r.LargeWU, false),
		obs(r.LargeWU, true),
		r.PushVerdict(),
		r.PriorityVerdict(),
		selfDep,
		r.HeaderCompressionVerdict(),
		r.PingVerdict(),
	}
}

// MarshalJSON renders the observation as its Table III string.
func (o Observation) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(o.String())), nil
}

// UnmarshalJSON parses the Table III string form back into an Observation.
func (o *Observation) UnmarshalJSON(data []byte) error {
	s, err := strconv.Unquote(string(data))
	if err != nil {
		return fmt.Errorf("core: observation %s: %w", data, err)
	}
	for _, cand := range []Observation{ObserveIgnore, ObserveRSTStream, ObserveGoAway, ObserveNoResponse} {
		if cand.String() == s {
			*o = cand
			return nil
		}
	}
	return fmt.Errorf("core: unknown observation %q", s)
}
