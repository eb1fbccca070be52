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
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"h2scope"
	"h2scope/internal/core"
	"h2scope/internal/scan"
	"h2scope/internal/stats"
	"h2scope/internal/tlsutil"
	"h2scope/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "h2scope:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		target    = flag.String("target", "", "host:port of the HTTP/2 server (required)")
		authority = flag.String("authority", "testbed.example", ":authority for requests")
		useTLS    = flag.Bool("tls", false, "connect with TLS and negotiate h2 via ALPN")
		timeout   = flag.Duration("timeout", 5*time.Second, "per-probe timeout")
		retries   = flag.Int("retries", 0, "retry the battery this many times on transient (dial/timeout) failures")
		quiet     = flag.Duration("quiet", 40*time.Millisecond, "idle window before concluding a server ignored a probe")
		drainPath = flag.String("drain", "/drain/64k", "object of >= 65,535 bytes for the priority probe's window drain")
		largeList = flag.String("large", "/large/1,/large/2,/large/3,/large/4,/large/5,/large/6", "comma-separated large objects")
		smallPath = flag.String("small", "/about.html", "small page for settings/HPACK/ping probes")
		asJSON    = flag.Bool("json", false, "emit the report as JSON")
		traceDir  = flag.String("trace", "", "directory to write a frame-level trace (JSONL, view with h2trace)")
		exts      = flag.Bool("extensions", false, "also run the beyond-paper extension probes")
		h2c       = flag.Bool("h2c-upgrade", false, "probe the cleartext Upgrade: h2c path (plain TCP targets only)")
	)
	flag.Parse()
	if *target == "" {
		flag.Usage()
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
	dialer := h2scope.DialerFunc(func() (net.Conn, error) {
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

	cfg := h2scope.DefaultProbeConfig(*authority)
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
		scanOpts.OnTrace = func(t scan.Target, tr *trace.Tracer) {
			path, werr := trace.WriteFile(*traceDir, t.Key, tr)
			if werr != nil {
				fmt.Fprintln(os.Stderr, "h2scope: trace export:", werr)
				return
			}
			fmt.Fprintln(os.Stderr, "h2scope: trace written to", path)
		}
	}
	res, err := scan.Run(context.Background(),
		[]scan.Target{{Key: *target}},
		func(ctx context.Context, _ scan.Target) (any, error) {
			probeCfg := cfg
			probeCfg.Tracer = trace.FromContext(ctx)
			activeTracer = probeCfg.Tracer
			r, perr := h2scope.NewProber(dialer, probeCfg).RunContext(ctx)
			if r == nil {
				return nil, perr
			}
			return r, perr
		},
		scanOpts)
	if err != nil {
		return err
	}
	rec := res.Records[0]
	if rec.Outcome != scan.OutcomeSuccess {
		return fmt.Errorf("probe %s after %d attempt(s): %s failure: %s",
			rec.Outcome, rec.Attempts, rec.Kind, rec.Err)
	}
	report := rec.Value.(*h2scope.Report)
	prober := h2scope.NewProber(dialer, cfg)
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
			Report     *h2scope.Report        `json:"report"`
			Extensions *core.ExtensionsResult `json:"extensions,omitempty"`
			H2C        *core.H2CResult        `json:"h2cUpgrade,omitempty"`
		}{report, extResult, h2cResult}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}

	rows := make([][]string, 0, 16)
	names := h2scope.TableIIIChecks()
	for i, cell := range report.TableIIIRow() {
		rows = append(rows, []string{names[i], cell})
	}
	fmt.Printf("H2Scope report for %s (%s)\n\n", *target, *authority)
	fmt.Print(stats.FormatTable([]string{"Check", "Result"}, rows))

	fmt.Println("\nDetails:")
	if report.Settings != nil {
		fmt.Printf("  server header: %q\n", report.Settings.ServerHeader)
		fmt.Printf("  SETTINGS: %v\n", report.Settings.Settings)
	}
	if report.HPACK != nil {
		fmt.Printf("  HPACK ratio r = %.3f over %d requests (block sizes %v)\n",
			report.HPACK.Ratio, report.HPACK.Requests, report.HPACK.BlockSizes)
	}
	if report.Priority != nil {
		fmt.Printf("  priority: drain streams %d, last-rule %v, first-rule %v, headers-while-blocked %v\n",
			report.Priority.DrainStreams, report.Priority.LastRuleOK,
			report.Priority.FirstRuleOK, report.Priority.HeadersWhileBlocked)
	}
	if report.Ping != nil && len(report.Ping.RTTs) > 0 {
		fmt.Printf("  h2 PING RTTs: %v\n", report.Ping.RTTs)
	}
	if report.Push != nil && len(report.Push.PromisedPaths) > 0 {
		fmt.Printf("  pushed: %v\n", report.Push.PromisedPaths)
	}
	for _, e := range report.Errors {
		fmt.Printf("  probe error: %s\n", e)
	}
	if extResult != nil {
		fmt.Printf("  extensions: settings-ack=%v unknown-frame-ignored=%v unknown-setting-ignored=%v ping-prioritized=%v\n",
			extResult.SettingsAcked, extResult.UnknownFrameIgnored,
			extResult.UnknownSettingIgnored, extResult.PingAckPrioritized)
	}
	if h2cResult != nil {
		fmt.Printf("  h2c upgrade: accepted=%v h2-works=%v\n", h2cResult.UpgradeAccepted, h2cResult.H2Works)
	}
	return nil
}
