package scan

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"h2scope/internal/frame"
)

// noJitter makes retry schedules exact so tests can assert the sleeps the
// engine requested from the fake clock.
var noJitter = Backoff{Base: 100 * time.Millisecond, Factor: 2, Max: 5 * time.Second, Jitter: -1}

// collect is the OnRecord that keeps what a test wants to look at: the engine
// serializes the calls and Run returns after the last one.
func collect(into *[]Record) func(Record) {
	return func(rec Record) { *into = append(*into, rec) }
}

// TestRunLeavesNoGoroutines is the scan engine's goroutine-leak guard: after
// a canceled run over stalling probes — the worst case for the worker pool,
// the progress reporter, and the per-attempt watchdog goroutines — the
// goroutine count must return to its baseline.
func TestRunLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()

	targets := make([]Target, 8)
	for i := range targets {
		targets[i] = Target{Key: fmt.Sprintf("site-%02d", i)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	probe := func(ctx context.Context, _ Target) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	time.AfterFunc(50*time.Millisecond, cancel)
	var recs []Record
	if _, err := Run(ctx, targets, probe, Options{Parallelism: 4, Timeout: 30 * time.Second, OnRecord: collect(&recs)}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(targets) {
		t.Fatalf("got %d records, want %d", len(recs), len(targets))
	}

	waitForGoroutineBaseline(t, base)
}

// waitForGoroutineBaseline polls until the goroutine count drops back to
// base (plus slack for runtime helpers), failing with the live count if it
// never does.
func waitForGoroutineBaseline(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain: %d live, baseline %d", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunNilProbe(t *testing.T) {
	if _, err := Run(context.Background(), nil, nil, Options{}); err == nil {
		t.Fatal("Run with nil probe succeeded")
	}
}

func TestRunNoTargets(t *testing.T) {
	var recs []Record
	stats, err := Run(context.Background(), nil,
		func(context.Context, Target) (any, error) { return nil, nil }, Options{OnRecord: collect(&recs)})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || stats.Attempted != 0 || !stats.Consistent() {
		t.Fatalf("empty run produced %d records, stats %+v", len(recs), stats)
	}
}

// TestRetryScheduleDeterministic drives the retry loop with a fake clock:
// a target that fails twice with a transient kind must sleep the exact
// exponential schedule and then succeed, without any real waiting.
func TestRetryScheduleDeterministic(t *testing.T) {
	fc := NewFakeClock(time.Unix(1_700_000_000, 0))
	var attempts int
	probe := func(context.Context, Target) (any, error) {
		attempts++
		if attempts <= 2 {
			return nil, WithKind(KindDial, errors.New("connection refused"))
		}
		return "ok", nil
	}
	var recs []Record
	stats, err := Run(context.Background(), []Target{{Key: "flaky"}}, probe, Options{
		Parallelism: 1,
		Retries:     5,
		Backoff:     noJitter,
		Clock:       fc,
		OnRecord:    collect(&recs),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := recs[0]
	if rec.Outcome != OutcomeSuccess || rec.Attempts != 3 || rec.Value != "ok" {
		t.Fatalf("record = %+v, want success after 3 attempts", rec)
	}
	wantSleeps := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond}
	got := fc.Sleeps()
	if len(got) != len(wantSleeps) {
		t.Fatalf("engine slept %v, want %v", got, wantSleeps)
	}
	for i := range wantSleeps {
		if got[i] != wantSleeps[i] {
			t.Fatalf("sleep %d = %v, want %v", i, got[i], wantSleeps[i])
		}
	}
	if stats.Retries != 2 || stats.Attempts != 3 {
		t.Errorf("stats = %+v, want 2 retries over 3 attempts", stats)
	}
	// Elapsed is fake-clock time: exactly the backoff total.
	if rec.Elapsed != 300*time.Millisecond {
		t.Errorf("Elapsed = %v, want 300ms of fake backoff", rec.Elapsed)
	}
}

// TestNonTransientNotRetried: protocol errors are properties of the server;
// retrying them would only re-measure the same violation.
func TestNonTransientNotRetried(t *testing.T) {
	fc := NewFakeClock(time.Unix(0, 0))
	var attempts int
	probe := func(context.Context, Target) (any, error) {
		attempts++
		return nil, frame.ConnError{Code: frame.ErrCodeProtocol, Reason: "goaway"}
	}
	var recs []Record
	stats, err := Run(context.Background(), []Target{{Key: "broken"}}, probe, Options{
		Retries:  5,
		Backoff:  noJitter,
		Clock:    fc,
		OnRecord: collect(&recs),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := recs[0]
	if rec.Outcome != OutcomeFailed || rec.Kind != KindProtocol || rec.Attempts != 1 || attempts != 1 {
		t.Fatalf("record = %+v after %d attempts, want one failed protocol attempt", rec, attempts)
	}
	if len(fc.Sleeps()) != 0 {
		t.Errorf("engine backed off %v for a non-transient failure", fc.Sleeps())
	}
	if stats.FailedByKind["protocol"] != 1 || stats.Retries != 0 {
		t.Errorf("stats = %+v, want one protocol failure and no retries", stats)
	}
}

func TestRetryCapExhausted(t *testing.T) {
	fc := NewFakeClock(time.Unix(0, 0))
	probe := func(context.Context, Target) (any, error) {
		return nil, WithKind(KindTimeout, errors.New("stalled"))
	}
	var recs []Record
	stats, err := Run(context.Background(), []Target{{Key: "tarpit"}}, probe, Options{
		Retries:  2,
		Backoff:  noJitter,
		Clock:    fc,
		OnRecord: collect(&recs),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := recs[0]
	if rec.Outcome != OutcomeFailed || rec.Kind != KindTimeout || rec.Attempts != 3 {
		t.Fatalf("record = %+v, want failure after cap of 3 attempts", rec)
	}
	if n := len(fc.Sleeps()); n != 2 {
		t.Fatalf("engine slept %d times, want 2", n)
	}
	if stats.Retries != 2 || stats.FailedByKind["timeout"] != 1 {
		t.Errorf("stats = %+v, want 2 retries and one timeout failure", stats)
	}
}

// TestPartialValueKept: a probe that salvages a partial result alongside its
// error must see that value preserved on the failed record.
func TestPartialValueKept(t *testing.T) {
	probe := func(context.Context, Target) (any, error) {
		return "half a report", WithKind(KindProtocol, errors.New("battery aborted"))
	}
	var recs []Record
	if _, err := Run(context.Background(), []Target{{Key: "partial"}}, probe, Options{
		Clock:    NewFakeClock(time.Unix(0, 0)),
		OnRecord: collect(&recs),
	}); err != nil {
		t.Fatal(err)
	}
	rec := recs[0]
	if rec.Outcome != OutcomeFailed || rec.Value != "half a report" {
		t.Fatalf("record = %+v, want failed record keeping its partial value", rec)
	}
}

// TestAttemptDeadlineEnforced: the engine must free a worker from a probe
// that ignores its context entirely.
func TestAttemptDeadlineEnforced(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	probe := func(context.Context, Target) (any, error) {
		<-release // ignores ctx on purpose
		return nil, errors.New("too late")
	}
	start := time.Now()
	var recs []Record
	if _, err := Run(context.Background(), []Target{{Key: "wedge"}}, probe, Options{
		Timeout:  50 * time.Millisecond,
		OnRecord: collect(&recs),
	}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Run took %v despite a 50ms attempt deadline", elapsed)
	}
	rec := recs[0]
	if rec.Outcome != OutcomeFailed || rec.Kind != KindTimeout {
		t.Fatalf("record = %+v, want timeout failure", rec)
	}
	if !strings.Contains(rec.Err, "attempt deadline") {
		t.Errorf("Err = %q, want the deadline message", rec.Err)
	}
}

// TestCancellationFinalizesEveryTarget: a canceled run must return promptly
// having delivered one finalized record per input target — including targets
// the feeder never handed out — and stats that still partition.
func TestCancellationFinalizesEveryTarget(t *testing.T) {
	const n = 12
	targets := make([]Target, n)
	for i := range targets {
		targets[i] = Target{Key: fmt.Sprintf("t%d", i)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, n)
	probe := func(ctx context.Context, _ Target) (any, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	go func() {
		<-started
		<-started // both workers are blocked in a probe
		cancel()
	}()
	start := time.Now()
	var recs []Record
	s, err := Run(ctx, targets, probe, Options{Parallelism: 2, Timeout: 10 * time.Second, OnRecord: collect(&recs)})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("canceled run drained in %v, want well under one 10s attempt deadline", elapsed)
	}
	seen := make(map[string]int)
	for i, rec := range recs {
		seen[rec.Target.Key]++
		if rec.Outcome != OutcomeCanceled || rec.Kind != KindCanceled {
			t.Errorf("record %d = %+v, want canceled", i, rec)
		}
		if rec.Err == "" {
			t.Errorf("record %d has empty Err", i)
		}
	}
	if len(recs) != n || len(seen) != n {
		t.Fatalf("got %d records for %d distinct targets, want %d of each", len(recs), len(seen), n)
	}
	if s.Attempted != n || s.Canceled != n || s.Succeeded != 0 || s.Failed != 0 || !s.Consistent() {
		t.Errorf("stats = %+v, want %d canceled and a consistent partition", s, n)
	}
}

// TestOnRecordFlushesEveryRecord: the hook must see each finalized record
// exactly once, a clean success as exactly that, and a failure with its kind.
func TestOnRecordFlushesEveryRecord(t *testing.T) {
	const n = 10
	targets := make([]Target, n)
	for i := range targets {
		targets[i] = Target{Key: fmt.Sprintf("t%d", i)}
	}
	var flushed []Record
	stats, err := Run(context.Background(), targets,
		func(_ context.Context, tg Target) (any, error) {
			if tg.Key == "t3" {
				return nil, WithKind(KindTLS, errors.New("bad cert"))
			}
			return tg.Key, nil
		},
		Options{
			Parallelism: 4,
			Clock:       NewFakeClock(time.Unix(0, 0)),
			OnRecord:    collect(&flushed),
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(flushed) != n {
		t.Fatalf("OnRecord saw %d records, want %d", len(flushed), n)
	}
	seen := make(map[string]int)
	for _, rec := range flushed {
		seen[rec.Target.Key]++
		if rec.Target.Key == "t3" {
			if rec.Outcome != OutcomeFailed || rec.Kind != KindTLS || rec.Value != nil {
				t.Errorf("t3 = %+v, want a tls failure with no value", rec)
			}
		} else if rec.Outcome != OutcomeSuccess || rec.Attempts != 1 || rec.Err != "" || rec.Value != rec.Target.Key {
			t.Errorf("record %s is not a clean success carrying its own value: %+v", rec.Target.Key, rec)
		}
	}
	for _, tg := range targets {
		if seen[tg.Key] != 1 {
			t.Errorf("target %s flushed %d times, want exactly once", tg.Key, seen[tg.Key])
		}
	}
	if stats.Attempted != n || stats.Succeeded != n-1 || stats.Failed != 1 || stats.FailedByKind["tls"] != 1 ||
		stats.Canceled != 0 || stats.Retries != 0 || stats.Attempts != n || stats.InFlight != 0 || !stats.Consistent() {
		t.Errorf("stats = %+v, want %d clean successes and exactly one tls failure", stats, n-1)
	}
}

// TestProgressReporter: a Progress writer must receive periodic stats lines
// while the run is in flight.
func TestProgressReporter(t *testing.T) {
	var mu sync.Mutex
	var buf strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	targets := make([]Target, 4)
	for i := range targets {
		targets[i] = Target{Key: fmt.Sprintf("t%d", i)}
	}
	_, err := Run(context.Background(), targets,
		func(context.Context, Target) (any, error) {
			time.Sleep(30 * time.Millisecond)
			return nil, nil
		},
		Options{Parallelism: 1, Progress: w, ProgressInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "scan:") {
		t.Errorf("progress writer got %q, want at least one stats line", out)
	}
}

func TestProgressExtraColumns(t *testing.T) {
	var mu sync.Mutex
	var buf strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	targets := make([]Target, 4)
	for i := range targets {
		targets[i] = Target{Key: fmt.Sprintf("t%d", i)}
	}
	_, err := Run(context.Background(), targets,
		func(context.Context, Target) (any, error) {
			time.Sleep(30 * time.Millisecond)
			return nil, nil
		},
		Options{
			Parallelism:      1,
			Progress:         w,
			ProgressInterval: 5 * time.Millisecond,
			ProgressExtra:    func() string { return "dial=1.0ms/2.0ms" },
		})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "dial=1.0ms/2.0ms") {
		t.Errorf("progress output missing extra columns: %q", out)
	}
}

// TestRunJoinsProgressReporter: once Run returns, the Progress writer is the
// caller's alone. The writer is slow and unsynchronised, so a reporter still
// inside Write when Run returns shows up both as a late write here and as a
// data race on buf under -race.
func TestRunJoinsProgressReporter(t *testing.T) {
	var buf strings.Builder
	var returned, late atomic.Bool
	w := writerFunc(func(p []byte) (int, error) {
		time.Sleep(2 * time.Millisecond)
		if returned.Load() {
			late.Store(true)
		}
		return buf.Write(p)
	})
	_, err := Run(context.Background(), []Target{{Key: "a"}, {Key: "b"}},
		func(context.Context, Target) (any, error) {
			time.Sleep(5 * time.Millisecond)
			return nil, nil
		},
		Options{Parallelism: 1, Progress: w, ProgressInterval: time.Millisecond})
	returned.Store(true)
	if err != nil {
		t.Fatal(err)
	}
	buf.WriteString("caller's line\n")
	time.Sleep(10 * time.Millisecond)
	if late.Load() {
		t.Error("progress reporter wrote after Run returned")
	}
	if !strings.HasSuffix(buf.String(), "caller's line\n") {
		t.Errorf("caller's write is not last:\n%s", buf.String())
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestFakeClock(t *testing.T) {
	start := time.Unix(100, 0)
	fc := NewFakeClock(start)
	if err := fc.Sleep(context.Background(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := fc.Now(); !got.Equal(start.Add(2 * time.Second)) {
		t.Errorf("Now = %v after 2s sleep from %v", got, start)
	}
	fc.Advance(time.Second)
	if got := fc.Now(); !got.Equal(start.Add(3 * time.Second)) {
		t.Errorf("Now = %v after Advance", got)
	}
	if got := fc.Sleeps(); len(got) != 1 || got[0] != 2*time.Second {
		t.Errorf("Sleeps = %v, want [2s] (Advance must not record)", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := fc.Sleep(ctx, time.Second); !errors.Is(err, context.Canceled) {
		t.Errorf("Sleep on canceled ctx = %v, want context.Canceled", err)
	}
	if got := fc.Sleeps(); len(got) != 1 {
		t.Errorf("canceled Sleep was recorded: %v", got)
	}
}

// TestRunRetainsNoRecords: what a run holds does not grow with its targets.
// Every record leaves through OnRecord; a run that also kept them, at 104
// bytes each, would hold ~20 MB here.
func TestRunRetainsNoRecords(t *testing.T) {
	const n = 200_000
	targets := make([]Target, n)
	for i := range targets {
		targets[i] = Target{Key: "stub"}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	delivered := 0
	stats, err := Run(context.Background(), targets,
		func(context.Context, Target) (any, error) { return nil, nil },
		Options{Parallelism: 4, OnRecord: func(Record) { delivered++ }})
	after := heap()
	if err != nil {
		t.Fatal(err)
	}
	if delivered != n || stats.Succeeded != n {
		t.Fatalf("delivered %d records, %d succeeded, want %d", delivered, stats.Succeeded, n)
	}
	if grown := int64(after) - int64(before); grown > 1<<20 {
		t.Errorf("heap grew by %d bytes over a %d-target run, want under 1 MiB", grown, n)
	}
	runtime.KeepAlive(targets)
}
