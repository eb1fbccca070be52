package population

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"time"

	"h2scope/internal/attack"
	"h2scope/internal/core"
	"h2scope/internal/fingerprint"
	"h2scope/internal/h2conn"
	"h2scope/internal/metrics"
	"h2scope/internal/netsim"
	"h2scope/internal/obs"
	"h2scope/internal/scan"
	"h2scope/internal/store"
	"h2scope/internal/trace"
)

// siteDialer connects H2Scope to one materialized site and answers the
// negotiation queries (Section IV-A) from the site's metadata — the
// stand-in for the TLS ALPN/NPN exchange against live Internet hosts.
type siteDialer struct {
	dial func() (net.Conn, error)
	spec *SiteSpec
}

var (
	_ core.Dialer     = (*siteDialer)(nil)
	_ core.Negotiator = (*siteDialer)(nil)
)

// Dial implements core.Dialer.
func (d *siteDialer) Dial() (net.Conn, error) { return d.dial() }

// NegotiateALPN implements core.Negotiator.
func (d *siteDialer) NegotiateALPN(protos []string) (string, error) {
	if !d.spec.ALPN {
		return "", fmt.Errorf("population: %s does not negotiate ALPN", d.spec.Domain)
	}
	for _, p := range protos {
		if p == "h2" {
			return "h2", nil
		}
	}
	return "http/1.1", nil
}

// NegotiateNPN implements core.Negotiator.
func (d *siteDialer) NegotiateNPN() ([]string, error) {
	if !d.spec.NPN {
		return nil, fmt.Errorf("population: %s does not negotiate NPN", d.spec.Domain)
	}
	return []string{"h2", "spdy/3.1", "http/1.1"}, nil
}

// SiteResult pairs a probed site with its H2Scope report and how the scan
// engine fared getting it. Failed probes keep their partial Report (possibly
// nil) alongside the classified failure, so nothing vanishes from the
// sample.
type SiteResult struct {
	Spec   *SiteSpec
	Report *core.Report
	// Outcome, Kind, Err, and Attempts mirror the engine's scan.Record.
	Outcome  scan.Outcome
	Kind     scan.ErrorKind
	Err      string
	Attempts int
	// TraceFile is the exported frame-level trace for this site, when the
	// scan ran with ScanOptions.TraceDir.
	TraceFile string
	// Robustness is the site's adversarial-battery score, when the scan ran
	// with ScanOptions.Robustness; nil otherwise (and for failed probes).
	Robustness *attack.Score
	// Fingerprint is the impersonation sweep verdict, when the scan ran
	// with ScanOptions.Fingerprint; nil otherwise (and for failed probes).
	Fingerprint *fingerprint.CensusResult
}

// Record is the site's persisted form: what -out writes, and what the census
// tally folds, so a stored scan re-reads into the aggregate the live scan had.
func (r *SiteResult) Record(epoch Epoch, at time.Time) *store.Record {
	rec := &store.Record{
		Domain:      r.Spec.Domain,
		Epoch:       epoch.String(),
		Family:      r.Spec.Family,
		ScannedAt:   at,
		Report:      r.Report,
		Outcome:     r.Outcome.String(),
		Error:       r.Err,
		Attempts:    r.Attempts,
		TraceFile:   r.TraceFile,
		Robustness:  r.Robustness,
		Fingerprint: r.Fingerprint,
	}
	if r.Report != nil && r.Report.Settings != nil {
		rec.ServerName = r.Report.Settings.ServerHeader
	}
	if r.Outcome != scan.OutcomeSuccess {
		rec.ErrorKind = r.Kind.String()
	}
	return rec
}

// ScanSummary is a measured scan: the census tally over the scanned sample —
// every count from frames observed on the wire, not from the generator's
// ground truth — plus the engine's counters and the raw per-site results.
type ScanSummary struct {
	store.Tally
	// Stats is the scan engine's final counter snapshot.
	Stats scan.Stats
	// Results holds the raw per-site reports.
	Results []SiteResult
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
	// it completes (records are flushed in completion order).
	OnRecord func(scan.Record)
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
	// Robustness additionally runs the internal/attack scenario battery
	// against each materialized site after its probe battery, folding each
	// site's robustness score into the summary (and the records). Every
	// scenario runs for robustnessDuration — short bursts sized for
	// census-scale sweeps, not load tests.
	Robustness bool
	// Fingerprint additionally re-dials each site once per builtin client
	// profile (curl, chrome, firefox, go), each connection wearing that
	// client's HTTP/2 fingerprint, and records whether the site's
	// responses differ by client — the impersonation census column.
	Fingerprint bool
	// Observer, when set, folds every scanned site's reconstructed phase
	// spans (dial → preface → settle → first/last byte) into the
	// observability monitor as the site finalizes, and feeds each site's
	// outcome into its error-spike detection. Tracing is enabled for every
	// site even without TraceDir (the tracer then lives only long enough to
	// build spans); with TraceDir, exemplars reference the exported file.
	Observer *obs.Monitor

	// wrapDial, which only this package's tests can set, wraps the dial
	// function every connection to a site goes through (probe battery,
	// adversarial battery, impersonation sweep): the counting dialer's way in.
	wrapDial func(dial func() (net.Conn, error)) func() (net.Conn, error)
}

// batteryProbes is how many connection-scoped probes one battery runs; the
// per-host budget allows one full Timeout for each. robustnessDuration is how
// long each adversarial scenario runs under ScanOptions.Robustness.
const (
	batteryProbes      = 12
	robustnessDuration = 150 * time.Millisecond
)

// Scan materializes a sample of the population as live servers, runs the
// full H2Scope battery against each through the scan engine, and aggregates
// the measured results. Failed sites stay in the summary as typed partial
// results; cancellation via opts.Context drains quickly and returns what
// was measured.
func Scan(pop *Population, opts ScanOptions) (*ScanSummary, error) {
	if opts.Parallelism < 1 {
		opts.Parallelism = 8
	}
	if opts.Timeout == 0 {
		opts.Timeout = 5 * time.Second
	}
	// The hard per-attempt deadline for one site's whole battery.
	hostBudget := batteryProbes * opts.Timeout
	if opts.Robustness {
		// The adversarial battery runs after the probe battery: six
		// scenarios plus health probes, each bounded by Timeout.
		hostBudget += 6*robustnessDuration + 2*opts.Timeout
	}
	if opts.Fingerprint {
		// Four impersonated dials of two fetches each.
		hostBudget += 2 * opts.Timeout
	}
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
		v, err := probeSite(ctx, t.Meta.(*SiteSpec), &opts, connMetrics)
		if v.report == nil && v.robust == nil && v.fp == nil {
			// A typed nil inside a non-nil any would defeat the engine's
			// partial-value bookkeeping.
			return nil, err
		}
		return v, err
	}
	scanOpts := scan.Options{
		Parallelism:      opts.Parallelism,
		Timeout:          hostBudget,
		Retries:          opts.Retries,
		Seed:             opts.Seed,
		Progress:         opts.Progress,
		ProgressInterval: opts.ProgressInterval,
		OnRecord:         opts.OnRecord,
		Metrics:          opts.Metrics,
	}
	// traceFiles maps domain → exported trace path. OnTrace calls are
	// serialized by the engine and the map is only read after Run returns.
	var traceFiles map[string]string
	if opts.TraceDir != "" {
		if err := os.MkdirAll(opts.TraceDir, 0o755); err != nil {
			return nil, fmt.Errorf("population: trace dir: %w", err)
		}
		traceFiles = make(map[string]string)
		scanOpts.NewTracer = func(scan.Target) *trace.Tracer { return trace.New(0) }
		scanOpts.OnTrace = func(t scan.Target, tr *trace.Tracer) {
			path, err := trace.WriteFile(opts.TraceDir, t.Key, tr)
			if err != nil {
				if opts.Progress != nil {
					fmt.Fprintf(opts.Progress, "trace export %s: %v\n", t.Key, err)
				}
				return
			}
			traceFiles[t.Key] = path
		}
	}
	if opts.Observer != nil {
		if scanOpts.NewTracer == nil {
			scanOpts.NewTracer = func(scan.Target) *trace.Tracer { return trace.New(0) }
		}
		// The -progress line grows live phase-latency columns.
		scanOpts.ProgressExtra = opts.Observer.ProgressColumns
		// Chain behind the TraceDir exporter so exemplars can reference the
		// exported file path. OnTrace/OnRecord calls are serialized by the
		// engine, so the observer sees a consistent stream.
		prevTrace := scanOpts.OnTrace
		scanOpts.OnTrace = func(t scan.Target, tr *trace.Tracer) {
			if prevTrace != nil {
				prevTrace(t, tr)
			}
			var path string
			if traceFiles != nil {
				path = traceFiles[t.Key]
			}
			opts.Observer.ObserveTarget(t.Key, path, tr.Snapshot())
		}
		prevRecord := scanOpts.OnRecord
		scanOpts.OnRecord = func(rec scan.Record) {
			if prevRecord != nil {
				prevRecord(rec)
			}
			kind := ""
			if rec.Outcome != scan.OutcomeSuccess {
				kind = rec.Kind.String()
			}
			opts.Observer.RecordOutcome(rec.Target.Key, kind)
		}
	}
	res, err := scan.Run(opts.Context, targets, probe, scanOpts)
	if err != nil {
		return nil, err
	}

	summary := &ScanSummary{Tally: *store.NewTally(), Stats: res.Stats, Results: make([]SiteResult, len(res.Records))}
	for i, rec := range res.Records {
		site := &summary.Results[i]
		*site = SiteResult{
			Spec:      rec.Target.Meta.(*SiteSpec),
			Outcome:   rec.Outcome,
			Kind:      rec.Kind,
			Err:       rec.Err,
			Attempts:  rec.Attempts,
			TraceFile: traceFiles[rec.Target.Key],
		}
		if v, ok := rec.Value.(*siteValue); ok {
			site.Report, site.Robustness, site.Fingerprint = v.report, v.robust, v.fp
		}
		summary.Add(site.Record(pop.Epoch, time.Time{}))
	}
	return summary, nil
}

// siteValue is what one site's probe hands the scan engine: the battery
// report plus, under ScanOptions.Robustness, the adversarial-battery
// score, plus, under ScanOptions.Fingerprint, the impersonation sweep.
type siteValue struct {
	report *core.Report
	robust *attack.Score
	fp     *fingerprint.CensusResult
}

// probeSite materializes one site, runs the probe battery against it, and —
// when the scan asks for them — follows with the adversarial battery and
// the impersonation sweep.
func probeSite(ctx context.Context, spec *SiteSpec, opts *ScanOptions, m *h2conn.Metrics) (*siteValue, error) {
	srv := spec.NewServer()
	l := netsim.NewListener(spec.Domain)
	go func() {
		_ = srv.Serve(l)
	}()
	defer srv.Close()
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
	prober := core.NewProber(&siteDialer{dial: dial, spec: spec}, cfg)
	report, err := prober.RunContext(ctx)
	v := &siteValue{report: report}
	if opts.Robustness && ctx.Err() == nil {
		runner := &attack.Runner{
			Dial:         dial,
			Authority:    spec.Domain,
			ProbePath:    "/",
			ProbeTimeout: opts.Timeout,
		}
		outs := runner.RunAll(attack.Params{Path: "/", Duration: robustnessDuration})
		score := attack.ScoreOutcomes(outs)
		v.robust = &score
	}
	if opts.Fingerprint && ctx.Err() == nil {
		v.fp = fingerprintSweep(dial, spec.Domain, opts.Timeout)
	}
	return v, err
}
