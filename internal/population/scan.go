package population

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"slices"
	"time"

	"h2scope/internal/core"
	"h2scope/internal/h2conn"
	"h2scope/internal/metrics"
	"h2scope/internal/netsim"
	"h2scope/internal/obs"
	"h2scope/internal/scan"
	"h2scope/internal/server"
	"h2scope/internal/store"
	"h2scope/internal/trace"
)

// ProfileDialer connects H2Scope to a server running Profile and answers the
// negotiation queries (Section IV-A) from the profile's SupportsALPN and
// SupportsNPN: the stand-in for the TLS ALPN/NPN exchange, for a census site
// and a testbed server alike.
type ProfileDialer struct {
	// Connect opens one connection to the server.
	Connect func() (net.Conn, error)
	// Profile is what the server runs.
	Profile *server.Profile
}

var (
	_ core.Dialer     = (*ProfileDialer)(nil)
	_ core.Negotiator = (*ProfileDialer)(nil)
)

// Dial implements core.Dialer.
func (d *ProfileDialer) Dial() (net.Conn, error) { return d.Connect() }

// NegotiateALPN implements core.Negotiator.
func (d *ProfileDialer) NegotiateALPN(protos []string) (string, error) {
	if !d.Profile.SupportsALPN {
		return "", fmt.Errorf("population: %s does not negotiate ALPN", d.Profile.Name)
	}
	if slices.Contains(protos, "h2") {
		return "h2", nil
	}
	return "http/1.1", nil
}

// NegotiateNPN implements core.Negotiator.
func (d *ProfileDialer) NegotiateNPN() ([]string, error) {
	if !d.Profile.SupportsNPN {
		return nil, fmt.Errorf("population: %s does not negotiate NPN", d.Profile.Name)
	}
	return []string{"h2", "spdy/3.1", "http/1.1"}, nil
}

// ScanSummary is a measured scan: the census tally over the scanned sample —
// every count from frames observed on the wire, not from the generator's
// ground truth — the engine's counters, and the site-by-site comparison with
// that ground truth (ComputeAgreement). It holds nothing per site: each site's
// record is folded in as the site finalizes and handed to ScanOptions.Sink.
type ScanSummary struct {
	store.Tally
	// Stats is the scan engine's final counter snapshot.
	Stats scan.Stats

	agreement Agreement
}

// ScanOptions configures a measured scan.
type ScanOptions struct {
	// SampleSize is how many sites to probe (0 = all).
	SampleSize int
	// Parallelism is the scanning thread-pool size (Section IV-B builds
	// "a thread pool with configurable number of threads").
	Parallelism int
	// Seed drives sample selection and backoff jitter.
	Seed int64
	// Timeout bounds each protocol wait inside a probe.
	Timeout time.Duration
	// Retries caps per-site retries of transiently classified failures.
	Retries int
	// Context cancels the scan; partial results are still returned.
	Context context.Context
	// Progress, when set, receives periodic scan.Stats lines every
	// ProgressInterval.
	Progress         io.Writer
	ProgressInterval time.Duration
	// OnRecord, when set, receives each site's finalized engine record as
	// the site completes, in completion order.
	OnRecord func(scan.Record)
	// Sink, when set, receives each site's persisted form — spec, report,
	// engine outcome, exported trace file — right after it is folded into the
	// summary, in completion order; the summary keeps no record, so what the
	// sink drops is gone. Calls are serialized with OnRecord.
	Sink func(*store.Record)
	// TraceDir, when set, gives every probed site a frame-level tracer and
	// exports each site's trace as <TraceDir>/<domain>.jsonl when the site
	// finalizes. The directory is created if needed; per-site tracer
	// drop counts fold into Stats.TraceDropped.
	TraceDir string
	// Metrics, when set, instruments the scan live: the engine mirrors its
	// counters into h2_scan_* and every probe connection feeds the shared
	// h2_conn_*/h2_frames_* instruments, so a -debug-addr endpoint watches
	// the run in flight. The summary's Stats stay exact regardless.
	Metrics *metrics.Registry
	// Observer, when set, folds every scanned site's reconstructed phase
	// spans (dial → preface → settle → first/last byte) into the
	// observability monitor as the site finalizes. Tracing is enabled for every
	// site even without TraceDir (the tracer then lives only long enough to
	// build spans); with TraceDir, exemplars reference the exported file.
	Observer *obs.Monitor

	// wrapDial, which only this package's tests can set, wraps the dial
	// function every connection of a site's probe battery goes through: the
	// counting dialer's way in.
	wrapDial func(dial func() (net.Conn, error)) func() (net.Conn, error)
}

// batteryProbes is how many connection-scoped probes one battery runs; the
// per-host budget allows one full Timeout for each.
const batteryProbes = 12

// siteTraceCapacity is the ring each scanned site's tracer gets. A battery
// emits about 400 events (at most 451 on one site, over 100 sites of each
// epoch at scale 0.01), so 1,024 slots hold a whole site with room to spare,
// at an eighth of trace.DefaultCapacity's allocation;
// TestSiteTracesDropNothing holds it to that.
const siteTraceCapacity = 1024

// Scan materializes a sample of the population as live servers, runs the
// full H2Scope battery against each through the scan engine, and aggregates
// the measured results as the sites finalize. Failed sites are counted in the
// summary and reach the sink as typed partial records; cancellation via
// opts.Context drains quickly and returns what was measured.
func Scan(pop *Population, opts ScanOptions) (*ScanSummary, error) {
	if opts.Parallelism < 1 {
		opts.Parallelism = 8
	}
	if opts.Timeout == 0 {
		opts.Timeout = 5 * time.Second
	}
	// The hard per-attempt deadline for one site's whole battery.
	hostBudget := batteryProbes * opts.Timeout
	idx := rand.New(rand.NewSource(opts.Seed)).Perm(len(pop.Sites))
	if opts.SampleSize > 0 && opts.SampleSize < len(idx) {
		idx = idx[:opts.SampleSize]
	}

	targets := make([]scan.Target, len(idx))
	for i, siteIdx := range idx {
		spec := &pop.Sites[siteIdx]
		targets[i] = scan.Target{Key: spec.Domain, Meta: spec}
	}
	// One shared connection-instrument set for every probe the scan dials:
	// building it once keeps the per-site probe path free of registry
	// lookups.
	var connMetrics *h2conn.Metrics
	if opts.Metrics != nil {
		connMetrics = h2conn.NewMetrics(opts.Metrics)
	}
	probe := func(ctx context.Context, t scan.Target) (any, error) {
		report, err := probeSite(ctx, t.Meta.(*SiteSpec), &opts, connMetrics)
		if report == nil {
			// A typed nil inside a non-nil any would defeat the engine's
			// partial-value bookkeeping.
			return nil, err
		}
		return report, err
	}
	summary := &ScanSummary{Tally: *store.NewTally()}
	scanOpts := scan.Options{
		Parallelism:      opts.Parallelism,
		Timeout:          hostBudget,
		Retries:          opts.Retries,
		Seed:             opts.Seed,
		Progress:         opts.Progress,
		ProgressInterval: opts.ProgressInterval,
		Metrics:          opts.Metrics,
	}
	if opts.TraceDir != "" {
		if err := os.MkdirAll(opts.TraceDir, 0o755); err != nil {
			return nil, fmt.Errorf("population: trace dir: %w", err)
		}
	}
	if opts.TraceDir != "" || opts.Observer != nil {
		scanOpts.NewTracer = func(scan.Target) *trace.Tracer { return trace.New(siteTraceCapacity) }
	}
	if opts.Observer != nil {
		// The -progress line grows live phase-latency columns.
		scanOpts.ProgressExtra = opts.Observer.ProgressColumns
	}
	// The one place a site's result is built: the engine serializes these
	// calls, so the summary needs no lock, and a traced site's trace is on
	// disk before the record that names its file goes to the sink.
	scanOpts.OnRecord = func(rec scan.Record) {
		if opts.OnRecord != nil {
			opts.OnRecord(rec)
		}
		spec := rec.Target.Meta.(*SiteSpec)
		out := &store.Record{
			Domain:    spec.Domain,
			Epoch:     pop.Epoch.String(),
			Family:    spec.Family,
			ScannedAt: time.Now(),
			Outcome:   rec.Outcome.String(),
			Error:     rec.Err,
			Attempts:  rec.Attempts,
		}
		if rec.Outcome != scan.OutcomeSuccess {
			out.ErrorKind = rec.Kind.String()
		}
		out.Report, _ = rec.Value.(*core.Report)
		if out.Report != nil && out.Report.Settings != nil {
			out.ServerName = out.Report.Settings.ServerHeader
		}
		if rec.Trace != nil && opts.TraceDir != "" {
			path, err := trace.WriteFile(opts.TraceDir, spec.Domain, rec.Trace)
			if err == nil {
				out.TraceFile = path
			} else if opts.Progress != nil {
				fmt.Fprintf(opts.Progress, "trace export %s: %v\n", spec.Domain, err)
			}
		}
		if opts.Observer != nil && rec.Trace != nil {
			// Exemplars reference the exported file, when there is one.
			opts.Observer.ObserveTarget(spec.Domain, out.TraceFile, rec.Trace.Snapshot())
		}
		summary.Add(out)
		summary.agreement.add(spec, out.Report)
		if opts.Sink != nil {
			opts.Sink(out)
		}
	}
	var err error
	if summary.Stats, err = scan.Run(opts.Context, targets, probe, scanOpts); err != nil {
		return nil, err
	}
	return summary, nil
}

// probeSite materializes one site and runs the probe battery against it; the
// report is what the site hands the scan engine.
func probeSite(ctx context.Context, spec *SiteSpec, opts *ScanOptions, m *h2conn.Metrics) (*core.Report, error) {
	srv := server.New(spec.Profile, spec.NewSite())
	l := netsim.NewListener(spec.Domain)
	go func() {
		_ = srv.Serve(l)
	}()
	// Shutdown, not Close: a connection the battery leaked costs its site a
	// second here, not the rest of its budget, and the scan's leak check says so.
	defer srv.Shutdown(time.Second)
	defer func() {
		_ = l.Close()
	}()

	cfg := core.DefaultConfig(spec.Domain)
	cfg.Timeout = opts.Timeout
	cfg.QuietWindow = 10 * time.Millisecond
	// The scan engine parks each target's tracer on the attempt context;
	// a nil result simply leaves tracing off.
	cfg.Tracer = trace.FromContext(ctx)
	cfg.Metrics = m
	dial := l.Dial
	if opts.wrapDial != nil {
		dial = opts.wrapDial(dial)
	}
	prober := core.NewProber(&ProfileDialer{Connect: dial, Profile: &spec.Profile}, cfg)
	return prober.RunContext(ctx)
}
