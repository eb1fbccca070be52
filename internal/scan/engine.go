// Package scan is the reproduction's production-grade scan substrate: a
// bounded, instrumented, failure-tolerant fan-out engine for running probe
// batteries against large target populations.
//
// The paper's measurement (Section IV-B) is a thread pool walking the Alexa
// top-1M; at that scale the wild web serves stalling handshakes, half-open
// connections, and refused ports as a matter of course. The engine therefore
// gives every target a hard per-attempt deadline, retries only transiently
// classified failures (dial/timeout — never TLS or protocol errors, which
// are properties of the server) with jittered exponential backoff, and
// degrades gracefully: a failed probe produces a typed partial Record
// instead of vanishing, so downstream tables can report coverage honestly.
// Every Record leaves through Options.OnRecord as its target finalizes and
// the engine keeps none: what a run holds does not grow with its targets.
// Atomic counters, a latency histogram, and an optional periodic progress
// reporter expose the run's health while it is in flight.
package scan

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sync"
	"time"

	"h2scope/internal/metrics"
	"h2scope/internal/trace"
)

// Target identifies one unit of scan work.
type Target struct {
	// Key names the target (a domain, a host:port) in records and logs.
	Key string
	// Meta carries the caller's payload through to its ProbeFunc.
	Meta any
}

// ProbeFunc runs one probe attempt against a target. It must honor ctx where
// it can; the engine additionally enforces the per-attempt deadline from the
// outside, so a probe that ignores ctx still cannot wedge a worker. A
// non-nil value returned alongside a non-nil error is kept as the attempt's
// partial result.
type ProbeFunc func(ctx context.Context, t Target) (any, error)

// Outcome is the final disposition of one target.
type Outcome int

// The three terminal outcomes. The zero value is reserved to mean "not yet
// finalized" so the engine can detect targets a canceled run never reached.
const (
	// OutcomeSuccess means an attempt completed without error.
	OutcomeSuccess Outcome = iota + 1
	// OutcomeFailed means every allowed attempt failed.
	OutcomeFailed
	// OutcomeCanceled means the run's context ended before the target got a
	// full set of attempts.
	OutcomeCanceled
)

// String names the outcome for logs and persisted records.
func (o Outcome) String() string {
	switch o {
	case OutcomeSuccess:
		return "ok"
	case OutcomeFailed:
		return "failed"
	case OutcomeCanceled:
		return "canceled"
	default:
		return "pending"
	}
}

// Record is the engine's typed per-target result. Failed and canceled
// targets still produce one — with the classified kind, the error text, the
// attempt count, and whatever partial value the last attempt salvaged.
type Record struct {
	// Target is the input this record answers.
	Target Target
	// Outcome is the final disposition.
	Outcome Outcome
	// Kind classifies the final error for failed/canceled targets.
	Kind ErrorKind
	// Err is the final error text, empty on success.
	Err string
	// Attempts is how many probe attempts ran (retries included).
	Attempts int
	// Elapsed is the target's total wall time, backoff sleeps included.
	Elapsed time.Duration
	// Value is the probe's result: the full result on success, possibly a
	// partial one on failure, nil if nothing was salvaged.
	Value any
	// Trace is the target's frame-level tracer under Options.NewTracer, the
	// receiver's to export; nil for targets a canceled run never fed.
	Trace *trace.Tracer
}

// Options configures a Run.
type Options struct {
	// Parallelism bounds concurrent targets (default 8).
	Parallelism int
	// Timeout is the hard per-attempt deadline (default 30s). The engine
	// enforces it even against probes that ignore their context.
	Timeout time.Duration
	// Retries caps retry attempts per target beyond the first (default 0).
	// Only transient error kinds (dial, timeout) are retried.
	Retries int
	// Backoff shapes the delay between retries.
	Backoff Backoff
	// Seed makes backoff jitter reproducible; per-target generators are
	// derived from it so schedules do not depend on goroutine interleaving.
	Seed int64
	// Clock drives backoff sleeps and latency accounting (default
	// SystemClock; tests inject FakeClock).
	Clock Clock
	// OnRecord receives every finalized Record as its target completes, and
	// the targets a canceled run never fed once the workers have drained. It
	// is the only way a record leaves the engine. Calls are serialized.
	OnRecord func(Record)
	// Progress, when set, receives a one-line Stats rendering every
	// ProgressInterval while the run is in flight.
	Progress io.Writer
	// ProgressInterval defaults to 5s.
	ProgressInterval time.Duration
	// ProgressExtra, when set alongside Progress, is called at each progress
	// tick and its result is appended to the line — the hook the census uses
	// to add live phase-latency columns from the observability layer. It must
	// be safe for concurrent use with the run.
	ProgressExtra func() string
	// NewTracer, when set, is called once per fed target to create its
	// frame-level tracer. The tracer rides the attempt context
	// (trace.FromContext) so the probe stack can emit into it, its
	// emit/drop counters fold into the run's Stats, and it leaves with the
	// target's Record (Record.Trace). Nil disables tracing.
	NewTracer func(Target) *trace.Tracer
	// Metrics, when set, mirrors every counter bump into registered
	// instruments (h2_scan_*) in this registry, so a live -debug-addr
	// endpoint sees the run's progress. The run's own Stats stay private
	// and exact regardless; the registry view is process-cumulative across
	// runs sharing it.
	Metrics *metrics.Registry
}

// engine carries one run's plumbing.
type engine struct {
	probe    ProbeFunc
	opts     Options
	counters *counters

	recordMu sync.Mutex
}

// Run scans every target through probe under opts, hands each target's Record
// to opts.OnRecord and returns the final counters, for which
// Stats.Consistent holds. Context cancellation is not an error: the run
// drains within one per-attempt deadline and unreached targets are finalized
// as canceled.
func Run(ctx context.Context, targets []Target, probe ProbeFunc, opts Options) (Stats, error) {
	if probe == nil {
		return Stats{}, fmt.Errorf("scan: nil probe")
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = 8
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	}
	if opts.Clock == nil {
		opts.Clock = SystemClock
	}
	if opts.ProgressInterval <= 0 {
		opts.ProgressInterval = 5 * time.Second
	}
	if ctx == nil {
		ctx = context.Background()
	}

	e := &engine{probe: probe, opts: opts, counters: newCounters(nil)}
	if opts.Metrics != nil {
		e.counters.mirror = newCounters(opts.Metrics)
	}
	stopProgress := e.startProgress(ctx)

	workers := opts.Parallelism
	if workers > len(targets) {
		workers = len(targets)
	}
	work := make(chan Target)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range work {
				e.runTarget(ctx, t)
			}
		}()
	}
	fed := 0
feed:
	for ; fed < len(targets); fed++ {
		select {
		case work <- targets[fed]:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	stopProgress()

	// Targets the feeder never handed out (canceled runs) still get records
	// so coverage accounting stays honest.
	cause := context.Cause(ctx)
	if cause == nil {
		cause = context.Canceled
	}
	for _, t := range targets[fed:] {
		e.finalize(Record{Target: t, Outcome: OutcomeCanceled, Kind: KindCanceled, Err: cause.Error()})
	}
	return e.counters.Snapshot(), nil
}

// startProgress launches the periodic reporter. The returned func stops it
// and waits for it: once Run returns, opts.Progress is the caller's alone.
func (e *engine) startProgress(ctx context.Context) (stop func()) {
	if e.opts.Progress == nil {
		return func() {}
	}
	done, exited := make(chan struct{}), make(chan struct{})
	line := func() string {
		s := e.counters.Snapshot().String()
		if e.opts.ProgressExtra != nil {
			if extra := e.opts.ProgressExtra(); extra != "" {
				s += " " + extra
			}
		}
		return s
	}
	go func() {
		defer close(exited)
		t := time.NewTicker(e.opts.ProgressInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				fmt.Fprintln(e.opts.Progress, line())
			case <-done:
				return
			case <-ctx.Done():
				// Keep reporting until the drain finishes; the final line is
				// the caller's to print from the Stats Run returns.
				select {
				case <-done:
					return
				case <-t.C:
					fmt.Fprintln(e.opts.Progress, line())
				}
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// finalize applies a record (and its tracer's counters, if any) to the
// counters and hands it over, exactly once.
func (e *engine) finalize(rec Record) {
	c := e.counters
	c.recordOutcome(rec)
	c.observeLatency(rec.Elapsed)
	if rec.Trace != nil {
		c.addTrace(rec.Trace)
	}
	if e.opts.OnRecord != nil {
		e.recordMu.Lock()
		e.opts.OnRecord(rec)
		e.recordMu.Unlock()
	}
}

// runTarget drives one target through its attempt/backoff loop.
func (e *engine) runTarget(ctx context.Context, t Target) {
	rng := rand.New(rand.NewSource(e.opts.Seed ^ int64(hashKey(t.Key))))
	clock := e.opts.Clock
	start := clock.Now()
	rec := Record{Target: t}
	if e.opts.NewTracer != nil {
		rec.Trace = e.opts.NewTracer(t)
		ctx = trace.NewContext(ctx, rec.Trace)
	}
	for retry := 0; ; retry++ {
		if err := ctx.Err(); err != nil {
			rec.Outcome, rec.Kind, rec.Err = OutcomeCanceled, KindCanceled, err.Error()
			break
		}
		v, err := e.attempt(ctx, t)
		rec.Attempts++
		if v != nil {
			rec.Value = v
		}
		if err == nil {
			rec.Outcome, rec.Kind, rec.Err = OutcomeSuccess, KindNone, ""
			break
		}
		kind := Classify(err)
		rec.Kind, rec.Err = kind, err.Error()
		if kind == KindCanceled {
			rec.Outcome = OutcomeCanceled
			break
		}
		if retry >= e.opts.Retries || !kind.Transient() {
			rec.Outcome = OutcomeFailed
			break
		}
		e.counters.addRetry()
		if serr := clock.Sleep(ctx, e.opts.Backoff.Delay(retry, rng)); serr != nil {
			rec.Outcome, rec.Kind, rec.Err = OutcomeCanceled, KindCanceled, serr.Error()
			break
		}
	}
	rec.Elapsed = clock.Now().Sub(start)
	if rec.Err != "" {
		rec.Trace.Error(0, rec.Err)
	}
	e.finalize(rec)
}

// attempt runs one probe attempt under the per-attempt deadline. The probe
// runs in its own goroutine so that even a probe that ignores its context
// cannot hold a worker past the deadline; an abandoned probe's result is
// discarded when it eventually returns.
func (e *engine) attempt(ctx context.Context, t Target) (any, error) {
	actx, cancel := context.WithTimeout(ctx, e.opts.Timeout)
	defer cancel()
	e.counters.beginAttempt()
	defer e.counters.endAttempt()

	type outcome struct {
		v   any
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		v, err := e.probe(actx, t)
		ch <- outcome{v, err}
	}()
	select {
	case o := <-ch:
		return o.v, o.err
	case <-actx.Done():
		err := actx.Err()
		if ctx.Err() == nil {
			// Attempt deadline, not run cancellation.
			err = WithKind(KindTimeout,
				fmt.Errorf("probe %q exceeded attempt deadline %v", t.Key, e.opts.Timeout))
		}
		return nil, err
	}
}

func hashKey(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return h.Sum64()
}
