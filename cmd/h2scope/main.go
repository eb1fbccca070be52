// Command h2scope probes an HTTP/2 server with the paper's full Section III
// battery and prints its Table III column plus probe details.
//
// Usage:
//
//	h2scope -target 127.0.0.1:8443 -tls -authority testbed.example
//	h2scope -target 127.0.0.1:8080 -authority testbed.example
//
// The target's document tree must contain the probe objects (the layout of
// h2server's DefaultSite); override paths with the flags below for other
// layouts.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"h2scope/internal/core"
	"h2scope/internal/scan"
	"h2scope/internal/stats"
	"h2scope/internal/tlsutil"
	"h2scope/internal/trace"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "h2scope:", err)
		os.Exit(1)
	}
}

// run probes the target and prints the report to stdout; notices and probe
// diagnostics go to stderr.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("h2scope", flag.ContinueOnError)
	var (
		target    = fs.String("target", "", "host:port of the HTTP/2 server (required)")
		authority = fs.String("authority", "testbed.example", ":authority for requests")
		useTLS    = fs.Bool("tls", false, "connect with TLS and negotiate h2 via ALPN")
		timeout   = fs.Duration("timeout", 5*time.Second, "per-probe timeout")
		retries   = fs.Int("retries", 0, "retry the battery this many times on transient (dial/timeout) failures")
		quiet     = fs.Duration("quiet", 40*time.Millisecond, "idle window before concluding a server ignored a probe")
		drainPath = fs.String("drain", "/drain/64k", "object of >= 65,535 bytes for the priority probe's window drain")
		largeList = fs.String("large", "/large/1,/large/2,/large/3,/large/4,/large/5,/large/6", "comma-separated large objects")
		smallPath = fs.String("small", "/about.html", "small page for settings/HPACK/ping probes")
		asJSON    = fs.Bool("json", false, "emit the report as JSON")
		traceDir  = fs.String("trace", "", "directory to write a frame-level trace (JSONL, view with h2trace)")
		exts      = fs.Bool("extensions", false, "also run the beyond-paper extension probes")
		h2c       = fs.Bool("h2c-upgrade", false, "probe the cleartext Upgrade: h2c path (plain TCP targets only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *target == "" {
		fs.Usage()
		return fmt.Errorf("missing -target")
	}
	if *retries < 0 {
		return fmt.Errorf("-retries must be >= 0; got %d", *retries)
	}
	if *timeout <= 0 {
		return fmt.Errorf("-timeout must be positive; got %v", *timeout)
	}

	// activeTracer is the per-target tracer the scan engine installs; the
	// dialer closure reads it to mark the TLS handshake as a region. Conn 0
	// means "connection identity not assigned yet" — the span builder
	// attributes the region to the next connection that opens.
	var activeTracer *trace.Tracer
	dialer := core.DialerFunc(func() (net.Conn, error) {
		nc, err := net.DialTimeout("tcp", *target, *timeout)
		if err != nil {
			return nil, err
		}
		if !*useTLS {
			return nc, nil
		}
		endTLS := activeTracer.Region(0, "tls")
		tc, err := tlsutil.UpgradeH2(nc, *authority)
		endTLS()
		return tc, err
	})

	cfg := core.DefaultConfig(*authority)
	cfg.Timeout = *timeout
	cfg.QuietWindow = *quiet
	cfg.DrainPath = *drainPath
	cfg.LargePaths = strings.Split(*largeList, ",")
	cfg.SmallPath = *smallPath
	cfg.PagePaths = []string{"/", *smallPath}

	// The battery runs through the scan engine: a hard per-attempt budget
	// (one -timeout per battery probe) plus retries of transiently
	// classified failures, so a stalling or refusing target cannot hang the
	// tool and flaky paths get a second chance.
	scanOpts := scan.Options{
		Parallelism: 1,
		Retries:     *retries,
		Timeout:     time.Duration(len(cfg.LargePaths)+8) * *timeout,
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		scanOpts.NewTracer = func(scan.Target) *trace.Tracer { return trace.New(0) }
	}
	var rec scan.Record // the one target's
	scanOpts.OnRecord = func(r scan.Record) { rec = r }
	_, err := scan.Run(context.Background(),
		[]scan.Target{{Key: *target}},
		func(ctx context.Context, _ scan.Target) (any, error) {
			probeCfg := cfg
			probeCfg.Tracer = trace.FromContext(ctx)
			activeTracer = probeCfg.Tracer
			r, perr := core.NewProber(dialer, probeCfg).RunContext(ctx)
			if r == nil {
				return nil, perr
			}
			return r, perr
		},
		scanOpts)
	if err != nil {
		return err
	}
	if rec.Trace != nil {
		if path, werr := trace.WriteFile(*traceDir, *target, rec.Trace); werr != nil {
			fmt.Fprintln(os.Stderr, "h2scope: trace export:", werr)
		} else {
			fmt.Fprintln(os.Stderr, "h2scope: trace written to", path)
		}
	}
	if rec.Outcome != scan.OutcomeSuccess {
		return fmt.Errorf("probe %s after %d attempt(s): %s failure: %s",
			rec.Outcome, rec.Attempts, rec.Kind, rec.Err)
	}
	report := rec.Value.(*core.Report)
	prober := core.NewProber(dialer, cfg)
	var extResult *core.ExtensionsResult
	if *exts {
		if extResult, err = prober.ProbeExtensions(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "h2scope: extensions:", err)
		}
	}
	var h2cResult *core.H2CResult
	if *h2c && !*useTLS {
		if h2cResult, err = prober.ProbeH2CUpgrade(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "h2scope: h2c:", err)
		}
	}

	if *asJSON {
		out := struct {
			Report     *core.Report           `json:"report"`
			Extensions *core.ExtensionsResult `json:"extensions,omitempty"`
			H2C        *core.H2CResult        `json:"h2cUpgrade,omitempty"`
		}{report, extResult, h2cResult}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}

	rows := make([][]string, 0, 16)
	for i, cell := range report.TableIIIRow() {
		rows = append(rows, []string{core.TableIIIRowNames[i], cell})
	}
	fmt.Fprintf(stdout, "H2Scope report for %s (%s)\n\n", *target, *authority)
	fmt.Fprint(stdout, stats.FormatTable([]string{"Check", "Result"}, rows))

	fmt.Fprintln(stdout, "\nDetails:")
	if report.Settings != nil {
		fmt.Fprintf(stdout, "  server header: %q\n", report.Settings.ServerHeader)
		fmt.Fprintf(stdout, "  SETTINGS: %v\n", report.Settings.Settings)
	}
	if report.HPACK != nil {
		fmt.Fprintf(stdout, "  HPACK ratio r = %.3f over %d requests (block sizes %v)\n",
			report.HPACK.Ratio, report.HPACK.Requests, report.HPACK.BlockSizes)
	}
	if report.Priority != nil {
		fmt.Fprintf(stdout, "  priority: drain streams %d, last-rule %v, first-rule %v, headers-while-blocked %v\n",
			report.Priority.DrainStreams, report.Priority.LastRuleOK,
			report.Priority.FirstRuleOK, report.Priority.HeadersWhileBlocked)
	}
	if report.Ping != nil && len(report.Ping.RTTs) > 0 {
		fmt.Fprintf(stdout, "  h2 PING RTTs: %v\n", report.Ping.RTTs)
	}
	if report.Push != nil && len(report.Push.PromisedPaths) > 0 {
		fmt.Fprintf(stdout, "  pushed: %v\n", report.Push.PromisedPaths)
	}
	for _, e := range report.Errors {
		fmt.Fprintf(stdout, "  probe error: %s\n", e)
	}
	if extResult != nil {
		fmt.Fprintf(stdout, "  extensions: settings-ack=%v unknown-frame-ignored=%v unknown-setting-ignored=%v ping-prioritized=%v\n",
			extResult.SettingsAcked, extResult.UnknownFrameIgnored,
			extResult.UnknownSettingIgnored, extResult.PingAckPrioritized)
	}
	if h2cResult != nil {
		fmt.Fprintf(stdout, "  h2c upgrade: accepted=%v h2-works=%v\n", h2cResult.UpgradeAccepted, h2cResult.H2Works)
	}
	return nil
}
