// Command h2attack drives the adversarial scenario battery from
// internal/attack against an HTTP/2 server — the hostile-traffic complement
// of the paper's well-formed probes — and reports each scenario's typed
// outcome (survived / degraded / hung / killed-attacker, with latency,
// the collateral a benign victim saw during the attack, and GOAWAY
// evidence).
//
// Targets are either a live host:port or a built-in Table III profile
// emulated in-process.
//
// Usage:
//
//	h2attack -profile nginx                          # whole catalog, in-process
//	h2attack -profile apache -scenario rapid-reset -duration 5s -rate 4000 -conns 4
//	h2attack -target 127.0.0.1:8443 -tls -authority example.org
//	h2attack -profile nginx -out outcomes.jsonl      # JSONL outcome records
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"h2scope/internal/attack"
	"h2scope/internal/metrics"
	"h2scope/internal/netsim"
	"h2scope/internal/server"
	"h2scope/internal/tlsutil"
)

func main() {
	opts, err := parseFlags(os.Args[1:], os.Stderr)
	if err == flag.ErrHelp {
		os.Exit(2)
	}
	if err == nil {
		err = run(opts, os.Stdout, os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "h2attack:", err)
		os.Exit(1)
	}
}

// options carries the parsed, validated command line.
type options struct {
	target    string
	useTLS    bool
	profile   string
	authority string
	scenario  string
	path      string
	duration  time.Duration
	rate      float64
	conns     int
	jitter    float64
	seed      int64
	timeout   time.Duration
	outPath   string
	debugAddr string
}

// parseFlags parses args and validates flag combinations.
func parseFlags(args []string, errOut io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("h2attack", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.StringVar(&o.target, "target", "", "host:port of the HTTP/2 server to attack")
	fs.BoolVar(&o.useTLS, "tls", false, "connect to -target with TLS and negotiate h2 via ALPN")
	fs.StringVar(&o.profile, "profile", "", "attack a built-in Table III profile in-process instead of a remote target")
	fs.StringVar(&o.authority, "authority", "attack.example", ":authority for attack and probe requests")
	fs.StringVar(&o.scenario, "scenario", "", "single scenario to run (default: the whole catalog); one of "+kindList())
	fs.StringVar(&o.path, "path", "", "resource to attack (default /; starvation wants a large one)")
	fs.DurationVar(&o.duration, "duration", 0, "per-scenario attack duration (default 1s)")
	fs.Float64Var(&o.rate, "rate", 0, "per-connection operation rate in ops/s (default: scenario-specific)")
	fs.IntVar(&o.conns, "conns", 0, "attacker connections per scenario (default 1)")
	fs.Float64Var(&o.jitter, "jitter", 0, "inter-operation delay jitter fraction in [0,1]")
	fs.Int64Var(&o.seed, "seed", 0, "jitter seed (0 derives one per scenario)")
	fs.DurationVar(&o.timeout, "timeout", 2*time.Second, "health-probe timeout; a post-attack probe over it marks the server hung")
	fs.StringVar(&o.outPath, "out", "", "append JSONL outcome records to this file; \"-\" streams them to stdout")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve live /metrics (with -profile, the attacked server's h2_server_* counters too) and pprof on this address (\":0\" picks a port) during the battery")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if narg := fs.NArg(); narg > 0 {
		return nil, fmt.Errorf("unexpected positional arguments: %v", fs.Args())
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	return o, nil
}

func kindList() string {
	names := make([]string, 0, len(attack.Kinds()))
	for _, k := range attack.Kinds() {
		names = append(names, string(k))
	}
	return strings.Join(names, ", ")
}

// validate rejects contradictory or out-of-range flag combinations.
func (o *options) validate() error {
	if o.target == "" && o.profile == "" {
		return fmt.Errorf("need -target or -profile")
	}
	if o.target != "" && o.profile != "" {
		return fmt.Errorf("-target and -profile are mutually exclusive")
	}
	if o.scenario != "" {
		if _, ok := attack.ParseKind(o.scenario); !ok {
			return fmt.Errorf("unknown -scenario %q; one of %s", o.scenario, kindList())
		}
	}
	if o.duration < 0 {
		return fmt.Errorf("-duration must be >= 0; got %v", o.duration)
	}
	if o.rate < 0 {
		return fmt.Errorf("-rate must be >= 0; got %g", o.rate)
	}
	if o.conns < 0 {
		return fmt.Errorf("-conns must be >= 0; got %d", o.conns)
	}
	if o.jitter < 0 || o.jitter > 1 {
		return fmt.Errorf("-jitter must be in [0,1]; got %g", o.jitter)
	}
	if o.timeout <= 0 {
		return fmt.Errorf("-timeout must be positive; got %v", o.timeout)
	}
	return nil
}

// machineStdout reports whether stdout carries the JSONL outcome stream
// (-out -), pushing human-readable output to stderr.
func (o *options) machineStdout() bool { return o.outPath == "-" }

// run executes the battery. Human-readable outcome lines go to stdout
// normally; with -out - the JSONL records own stdout and the human report
// moves to stderr.
func run(o *options, stdout, stderr io.Writer) (err error) {
	human := stdout
	if o.machineStdout() {
		human = stderr
	}

	var reg *metrics.Registry
	if o.debugAddr != "" {
		reg = metrics.NewRegistry()
		ds, derr := metrics.StartDebug(o.debugAddr, reg)
		if derr != nil {
			return derr
		}
		defer func() {
			_ = ds.Close()
		}()
		fmt.Fprintf(human, "debug endpoint: http://%s/metrics\n", ds.Addr())
	}

	var dial func() (net.Conn, error)
	switch {
	case o.profile != "":
		profile, perr := server.ProfileByName(o.profile)
		if perr != nil {
			return perr
		}
		srv := server.New(profile, server.DefaultSite(o.authority))
		if reg != nil {
			// The attacked server's own counters: what the battery costs it.
			srv.Metrics = server.NewMetrics(reg)
		}
		l := netsim.NewListener("h2attack")
		go func() {
			_ = srv.Serve(l)
		}()
		defer srv.Close()
		dial = func() (net.Conn, error) { return l.Dial() }
	default:
		dial = func() (net.Conn, error) {
			nc, derr := net.DialTimeout("tcp", o.target, o.timeout)
			if derr != nil {
				return nil, derr
			}
			if !o.useTLS {
				return nc, nil
			}
			return tlsutil.UpgradeH2(nc, o.authority)
		}
	}

	runner := &attack.Runner{
		Dial:         dial,
		Authority:    o.authority,
		ProbeTimeout: o.timeout,
	}
	params := attack.Params{
		Path:        o.path,
		Duration:    o.duration,
		Rate:        o.rate,
		Concurrency: o.conns,
		Jitter:      o.jitter,
		Seed:        o.seed,
	}

	var outs []attack.Outcome
	if o.scenario != "" {
		kind, _ := attack.ParseKind(o.scenario)
		out, rerr := runner.Run(kind, params)
		if rerr != nil {
			return rerr
		}
		outs = append(outs, out)
	} else {
		outs = runner.RunAll(params)
	}

	for _, out := range outs {
		fmt.Fprintln(human, renderOutcome(&out))
	}
	score := attack.ScoreOutcomes(outs)
	fmt.Fprintf(human, "robustness: %d/%d survived, score %.2f\n",
		score.Survived, score.Total, score.Value)

	if o.outPath == "" {
		return nil
	}
	var w io.Writer
	if o.machineStdout() {
		w = stdout
	} else {
		f, ferr := os.OpenFile(o.outPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if ferr != nil {
			return ferr
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		w = f
	}
	enc := json.NewEncoder(w)
	for i := range outs {
		if err := enc.Encode(&outs[i]); err != nil {
			return fmt.Errorf("encoding outcome for %s: %w", outs[i].Kind, err)
		}
	}
	if !o.machineStdout() {
		fmt.Fprintf(human, "wrote %d outcome records to %s\n", len(outs), o.outPath)
	}
	return nil
}

// renderOutcome formats one scenario result as a human-readable line.
func renderOutcome(out *attack.Outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-15s ops %d", out.Kind, out.Verdict, out.Ops)
	if out.Errors > 0 {
		fmt.Fprintf(&b, " (errors %d)", out.Errors)
	}
	fmt.Fprintf(&b, ", conns %d", out.Conns)
	if out.Killed > 0 {
		fmt.Fprintf(&b, " (%d killed)", out.Killed)
	}
	if out.GoAways > 0 {
		fmt.Fprintf(&b, ", goaways %d %v", out.GoAways, out.GoAwayCodes)
	}
	fmt.Fprintf(&b, ", probe %v (baseline %v), collateral p99 %v (%d/%d failed)",
		out.ProbeLatency.Round(time.Microsecond), out.BaselineLatency.Round(time.Microsecond),
		out.CollateralP99.Round(time.Microsecond), out.CollateralFailed, out.CollateralProbes)
	if out.Note != "" {
		fmt.Fprintf(&b, " — %s", out.Note)
	}
	return b.String()
}
