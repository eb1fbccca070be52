// Command h2census regenerates the paper's large-scale measurement results
// (Tables IV-VII, Fig. 2, Figs. 4-5, and Sections V-B/D/E/F) from the
// synthetic Alexa top-1M population, for either or both experiment epochs,
// and optionally re-measures a sample of materialized sites with the full
// H2Scope probe battery through the resilient scan engine.
//
// Usage:
//
//	h2census                         # all spec-level tables, both epochs
//	h2census -epoch 2 -sample 200    # Jan 2017 epoch plus a 200-site measured scan
//	h2census -scale 0.1              # a 10%-scale universe
//	h2census -sample 500 -retries 3 -timeout 2s -progress 5s -out scan.jsonl
//	h2census -sample 100 -robustness # score each sampled site's attack resilience
//	h2census -sample 100 -fingerprint # re-dial each site as curl/Chrome/Firefox/Go and diff responses
//	h2census -analyze scan.jsonl     # offline re-analysis of a records file
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"h2scope"
	"h2scope/internal/metrics"
	"h2scope/internal/obs"
	"h2scope/internal/population"
	"h2scope/internal/scan"
	"h2scope/internal/store"
)

func main() {
	opts, err := parseFlags(os.Args[1:], os.Stderr)
	if err == flag.ErrHelp {
		os.Exit(2)
	}
	if err == nil {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		err = run(ctx, opts, os.Stdout, os.Stderr)
		stop()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "h2census:", err)
		os.Exit(1)
	}
}

// options carries the parsed, validated command line.
type options struct {
	epoch       int
	scale       float64
	seed        int64
	sample      int
	parallel    int
	retries     int
	timeout     time.Duration
	progress    time.Duration
	outPath     string
	traceDir    string
	analyze     string
	debugAddr   string
	flightRec   string
	robustness  bool
	fingerprint bool

	// debugStarted and onScanRecord are test seams: debugStarted receives
	// the debug server's bound address once it is listening, onScanRecord
	// fires (serialized) as each scanned site finalizes, after its record has
	// been written — while the scan is still in flight.
	debugStarted func(addr string)
	onScanRecord func()
}

// machineStdout reports whether stdout is reserved for the JSONL record
// stream (-out -), pushing all human-readable output to stderr.
func (o *options) machineStdout() bool { return o.outPath == "-" }

// parseFlags parses args and validates flag combinations, returning clear
// errors instead of silently misbehaving on nonsense like -scale 7 or
// -analyze together with -sample.
func parseFlags(args []string, errOut io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("h2census", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.IntVar(&o.epoch, "epoch", 0, "experiment epoch: 1 (Jul 2016), 2 (Jan 2017), 0 = both")
	fs.Float64Var(&o.scale, "scale", 1.0, "population scale in (0,1]")
	fs.Int64Var(&o.seed, "seed", 42, "generator seed")
	fs.IntVar(&o.sample, "sample", 0, "if > 0, also probe this many materialized sites")
	fs.IntVar(&o.parallel, "parallel", 16, "scanner worker-pool size")
	fs.IntVar(&o.retries, "retries", 2, "per-site retry cap for transient (dial/timeout) failures")
	fs.DurationVar(&o.timeout, "timeout", 5*time.Second, "per-probe protocol wait; the per-site budget derives from it")
	fs.DurationVar(&o.progress, "progress", 0, "if > 0, print scan progress to stderr at this interval")
	fs.StringVar(&o.outPath, "out", "", "append per-site scan records (JSON lines) to this file, each written as its site finishes (completion order; a killed census leaves a file -analyze reads); \"-\" streams records to stdout and moves tables to stderr")
	fs.StringVar(&o.traceDir, "trace", "", "directory to write per-site frame-level traces (JSONL, view with h2trace); needs -sample > 0")
	fs.StringVar(&o.analyze, "analyze", "", "skip generation: analyze a previously written records file and exit")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve live /metrics, /metrics.json, /dashboard, expvar, and pprof on this address (\":0\" picks a port) while the census runs")
	fs.StringVar(&o.flightRec, "flightrec", "", "directory for anomaly flight-recorder dumps (bounded JSONL forensics on p99 blowouts and error spikes); needs -sample > 0")
	fs.BoolVar(&o.robustness, "robustness", false, "also run the short adversarial battery against each sampled site and score its resilience; needs -sample > 0")
	fs.BoolVar(&o.fingerprint, "fingerprint", false, "also re-dial each sampled site impersonating the builtin client profiles and record whether responses differ; needs -sample > 0")
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

// validate rejects out-of-range values and contradictory flag combinations.
func (o *options) validate() error {
	if o.epoch < 0 || o.epoch > 2 {
		return fmt.Errorf("-epoch must be 0 (both), 1 (Jul 2016), or 2 (Jan 2017); got %d", o.epoch)
	}
	if o.scale <= 0 || o.scale > 1 {
		return fmt.Errorf("-scale must be in (0,1]; got %g", o.scale)
	}
	if o.sample < 0 {
		return fmt.Errorf("-sample must be >= 0; got %d", o.sample)
	}
	if o.parallel < 1 {
		return fmt.Errorf("-parallel must be >= 1; got %d", o.parallel)
	}
	if o.retries < 0 {
		return fmt.Errorf("-retries must be >= 0; got %d", o.retries)
	}
	if o.timeout <= 0 {
		return fmt.Errorf("-timeout must be positive; got %v", o.timeout)
	}
	if o.progress < 0 {
		return fmt.Errorf("-progress must be >= 0; got %v", o.progress)
	}
	if o.analyze != "" {
		if o.sample > 0 {
			return fmt.Errorf("-analyze reads a records file and probes nothing; it cannot be combined with -sample")
		}
		if o.outPath != "" {
			return fmt.Errorf("-analyze does not write records; it cannot be combined with -out")
		}
	}
	if o.outPath != "" && o.sample == 0 {
		return fmt.Errorf("-out needs a measured scan; set -sample > 0")
	}
	if o.traceDir != "" && o.sample == 0 {
		return fmt.Errorf("-trace needs a measured scan; set -sample > 0")
	}
	if o.flightRec != "" && o.sample == 0 {
		return fmt.Errorf("-flightrec needs a measured scan; set -sample > 0")
	}
	if o.robustness && o.sample == 0 {
		return fmt.Errorf("-robustness needs a measured scan; set -sample > 0")
	}
	if o.fingerprint && o.sample == 0 {
		return fmt.Errorf("-fingerprint needs a measured scan; set -sample > 0")
	}
	return nil
}

// errInterrupted ends a census whose context was cancelled (SIGINT/SIGTERM).
var errInterrupted = errors.New("interrupted")

// run drives the census. stdout carries the deliverable: human-readable
// tables normally, or the machine-clean JSONL record stream under -out -
// (all tables and notices shift to stderr so piped output stays parseable).
// Cancelling ctx ends the scan in flight, which still reports and persists
// what it measured, then returns errInterrupted past the deferred closes.
func run(ctx context.Context, o *options, stdout, stderr io.Writer) (err error) {
	human := stdout
	if o.machineStdout() {
		human = stderr
	}
	// One registry for the whole invocation: scans mirror their engine
	// counters and every probe connection into it, and -debug-addr serves
	// it live while the census runs.
	var reg *metrics.Registry
	if o.sample > 0 || o.debugAddr != "" {
		reg = metrics.NewRegistry()
	}
	// The observability layer rides every measured scan: the monitor folds
	// causal spans out of each target's trace and feeds the phase histograms;
	// the flight recorder (opt-in via -flightrec) dumps bounded forensics
	// when the monitor raises an anomaly.
	var monitor *obs.Monitor
	var recorder *obs.FlightRecorder
	if o.sample > 0 {
		mcfg := obs.MonitorConfig{Registry: reg}
		if o.flightRec != "" {
			recorder, err = obs.NewFlightRecorder(obs.FlightRecorderConfig{Dir: o.flightRec, Registry: reg})
			if err != nil {
				return err
			}
			defer func() {
				if cerr := recorder.Close(); err == nil {
					err = cerr
				}
			}()
			mcfg.OnAnomaly = func(a obs.Anomaly) {
				path, derr := recorder.Dump(a, a.Events)
				switch {
				case derr != nil:
					fmt.Fprintf(human, "h2census: flight dump failed: %v\n", derr)
				case path != "":
					fmt.Fprintf(human, "anomaly %q -> %s\n", a.Reason, path)
				}
			}
		}
		monitor = obs.NewMonitor(mcfg)
	}
	if o.debugAddr != "" {
		ds, err := metrics.StartDebug(o.debugAddr, reg)
		if err != nil {
			return err
		}
		defer func() {
			_ = ds.Close()
		}()
		if monitor != nil {
			dash := obs.NewDashboard("h2census", monitor, recorder, reg)
			ds.Handle("/dashboard", dash)
			ds.Handle("/dashboard.json", dash)
			fmt.Fprintf(human, "dashboard: http://%s/dashboard\n", ds.Addr())
		}
		fmt.Fprintf(human, "debug endpoint: http://%s/metrics\n", ds.Addr())
		if o.debugStarted != nil {
			o.debugStarted(ds.Addr())
		}
	}
	if o.analyze != "" {
		f, err := os.Open(o.analyze)
		if err != nil {
			return err
		}
		defer func() {
			_ = f.Close()
		}()
		return analyze(human, f)
	}

	var epochs []population.Epoch
	switch o.epoch {
	case 0:
		epochs = []population.Epoch{population.EpochJul2016, population.EpochJan2017}
	case 1:
		epochs = []population.Epoch{population.EpochJul2016}
	case 2:
		epochs = []population.Epoch{population.EpochJan2017}
	}

	for _, epoch := range epochs {
		census := h2scope.NewCensus(epoch, o.scale, o.seed)
		fmt.Fprintf(human, "==== %s (scale %.3g, seed %d) ====\n\n", epoch, o.scale, o.seed)
		fmt.Fprint(human, census.Render(int(1000*o.scale)))

		if o.sample > 0 {
			if err := runScan(ctx, o, stdout, human, stderr, epoch, census, reg, monitor); err != nil {
				return err
			}
		}
		if ctx.Err() != nil {
			return errInterrupted
		}
	}
	return nil
}

// The marker lines around a measured census, so the block a scan printed and
// the block -analyze prints for the file it wrote can be cut out and diffed.
const (
	measuredBegin = "---- begin measured census ----"
	measuredEnd   = "---- end measured census ----"
)

// printMeasured prints a measured tally, live or re-read, as the census
// tables. Table IV lists names with at least 2% of the working sites, about
// the share the paper's 1,000-site floor is of its working set.
func printMeasured(w io.Writer, label string, t *store.Tally) {
	fmt.Fprintln(w, measuredBegin)
	fmt.Fprint(w, (&h2scope.Census{Tally: t, Label: label}).Render(max(1, t.GotHeaders/50)))
	fmt.Fprintln(w, measuredEnd)
}

// analyze re-reads a records file, folding it record by record: one measured
// census per epoch label in file order (-out appends, so a file may hold
// several scans), each followed by the engine stats of the scans that wrote
// it. A census that was killed left no trailer, and prints none.
func analyze(w io.Writer, r io.Reader) error {
	type stored struct {
		tally    *store.Tally
		trailers []*scan.Stats
	}
	var labels []string
	byLabel := make(map[string]*stored)
	err := store.Read(r, func(rec *store.Record) {
		e := byLabel[rec.Epoch]
		if e == nil {
			e = &stored{tally: store.NewTally()}
			byLabel[rec.Epoch] = e
			labels = append(labels, rec.Epoch)
		}
		if rec.IsStatsTrailer() {
			e.trailers = append(e.trailers, rec.Stats)
		} else {
			e.tally.Add(rec)
		}
	})
	if err != nil {
		return err
	}
	for _, label := range labels {
		e := byLabel[label]
		fmt.Fprintf(w, "==== %s: %d stored site records, %d stats trailer(s) ====\n",
			label, e.tally.Scanned, len(e.trailers))
		printMeasured(w, label, e.tally)
		for _, s := range e.trailers {
			fmt.Fprintln(w, s.String())
		}
		fmt.Fprintln(w)
	}
	return nil
}

// runScan performs the measured scan of one epoch through the scan engine
// and reports its stats. Under -out every site's record is written as the
// site finalizes, and the stats trailer — the engine's final counters and the
// metrics snapshot, which -analyze reports separately — once the scan is over.
// Human-readable tables and notices go to human; with -out - the record
// stream goes to stdout (and human is stderr, keeping stdout machine-clean).
func runScan(ctx context.Context, o *options, stdout, human, stderr io.Writer, epoch population.Epoch, census *h2scope.Census, reg *metrics.Registry, monitor *obs.Monitor) (err error) {
	fmt.Fprintf(human, "-- Measured scan (%d sites, %d workers, %d retries, timeout %v) --\n",
		o.sample, o.parallel, o.retries, o.timeout)
	var sw *store.Writer
	switch {
	case o.machineStdout():
		sw = store.NewWriter(stdout)
	case o.outPath != "":
		f, ferr := os.OpenFile(o.outPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if ferr != nil {
			return ferr
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		sw = store.NewWriter(f)
	}
	// A record that cannot be written ends the scan: probing on would only
	// measure sites whose results are lost.
	ctx, stopScan := context.WithCancel(ctx)
	defer stopScan()
	var writeErr error
	scanOpts := population.ScanOptions{
		SampleSize:  o.sample,
		Parallelism: o.parallel,
		Seed:        o.seed,
		Timeout:     o.timeout,
		Retries:     o.retries,
		TraceDir:    o.traceDir,
		Metrics:     reg,
		Robustness:  o.robustness,
		Fingerprint: o.fingerprint,
		Observer:    monitor,
		Context:     ctx,
		Sink: func(rec *store.Record) {
			if sw != nil && writeErr == nil {
				if writeErr = sw.Append(rec); writeErr != nil {
					stopScan()
				}
			}
			if o.onScanRecord != nil {
				o.onScanRecord()
			}
		},
	}
	if o.progress > 0 {
		scanOpts.Progress = stderr
		scanOpts.ProgressInterval = o.progress
	}
	sum, err := population.Scan(census.Pop, scanOpts)
	if err != nil {
		return err
	}
	if writeErr != nil {
		return writeErr
	}
	printMeasured(human, epoch.String(), &sum.Tally)
	fmt.Fprintln(human, sum.Stats.String())
	if monitor != nil {
		fmt.Fprintln(human, "-- Phase latency (p50/p99) --")
		for _, phase := range obs.Phases() {
			p50, p99, n := monitor.PhaseQuantiles(phase)
			if n == 0 {
				continue
			}
			fmt.Fprintf(human, "%-12s %10v %10v  (n=%d)\n", phase, p50, p99, n)
		}
		fmt.Fprintln(human)
	}
	var snaps []metrics.MetricSnapshot
	if reg != nil {
		snaps = reg.Snapshot()
		fmt.Fprintln(human, "-- Metrics snapshot --")
		fmt.Fprintln(human, metrics.RenderTable(snaps))
	}
	if sw == nil {
		return nil
	}
	trailer := &store.Record{Epoch: epoch.String(), ScannedAt: time.Now(), Stats: &sum.Stats, Metrics: snaps}
	if err := sw.Append(trailer); err != nil {
		return err
	}
	fmt.Fprintf(human, "wrote %d records (+1 stats trailer) to %s\n", sum.Scanned, o.outPath)
	return nil
}
