package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"h2scope/internal/metrics"
	"h2scope/internal/population"
	"h2scope/internal/store"
)

func TestParseFlagsValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring; empty means the args must parse
	}{
		{"defaults", nil, ""},
		{"sample scan", []string{"-sample", "10", "-retries", "1", "-timeout", "2s"}, ""},
		{"analyze alone", []string{"-analyze", "records.jsonl"}, ""},
		{"progress", []string{"-sample", "5", "-progress", "1s"}, ""},

		{"scale zero", []string{"-scale", "0"}, "-scale must be in (0,1]"},
		{"scale above one", []string{"-scale", "1.5"}, "-scale must be in (0,1]"},
		{"scale negative", []string{"-scale", "-0.5"}, "-scale must be in (0,1]"},
		{"bad epoch", []string{"-epoch", "3"}, "-epoch must be 0"},
		{"negative sample", []string{"-sample", "-1"}, "-sample must be >= 0"},
		{"zero parallel", []string{"-parallel", "0"}, "-parallel must be >= 1"},
		{"negative retries", []string{"-retries", "-2"}, "-retries must be >= 0"},
		{"zero timeout", []string{"-timeout", "0s"}, "-timeout must be positive"},
		{"negative progress", []string{"-progress", "-1s"}, "-progress must be >= 0"},
		{"analyze with sample", []string{"-analyze", "x.jsonl", "-sample", "10"},
			"cannot be combined with -sample"},
		{"analyze with out", []string{"-analyze", "x.jsonl", "-out", "y.jsonl"},
			"cannot be combined with -out"},
		{"out without sample", []string{"-out", "y.jsonl"}, "-out needs a measured scan"},
		{"out to stdout", []string{"-sample", "5", "-out", "-"}, ""},
		{"trace with sample", []string{"-sample", "5", "-trace", "traces"}, ""},
		{"trace without sample", []string{"-trace", "traces"}, "-trace needs a measured scan"},
		{"robustness with sample", []string{"-sample", "5", "-robustness"}, ""},
		{"robustness without sample", []string{"-robustness"}, "-robustness needs a measured scan"},
		{"flightrec with sample", []string{"-sample", "5", "-flightrec", "dumps"}, ""},
		{"flightrec without sample", []string{"-flightrec", "dumps"}, "-flightrec needs a measured scan"},
		{"positional junk", []string{"extra"}, "unexpected positional arguments"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseFlags(tc.args, io.Discard)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("parseFlags(%v) = %v, want nil", tc.args, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("parseFlags(%v) = %v, want error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

// readRecords collects a record stream; store.Read itself keeps none.
func readRecords(t *testing.T, r io.Reader) []store.Record {
	t.Helper()
	var records []store.Record
	if err := store.Read(r, func(rec *store.Record) { records = append(records, *rec) }); err != nil {
		t.Fatalf("not a clean record stream: %v", err)
	}
	return records
}

// runCensus drives run() with args and returns what it printed to stdout.
func runCensus(t *testing.T, args ...string) string {
	t.Helper()
	opts, err := parseFlags(args, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	if err := run(context.Background(), opts, &stdout, &stderr); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return stdout.String()
}

// TestRunAnalyzeRoundTrip drives the -analyze path end to end: scan a tiny
// population, persisting records plus the stats trailer, then re-analyze the
// file through run().
func TestRunAnalyzeRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "records.jsonl")
	if live := runCensus(t, "-epoch", "1", "-scale", "0.002", "-seed", "7", "-sample", "5", "-parallel", "4", "-out", path); !strings.Contains(live, "wrote 5 records (+1 stats trailer) to "+path) {
		t.Errorf("scan output does not say what it wrote:\n%s", live)
	}
	got := runCensus(t, "-analyze", path)
	if !strings.Contains(got, "==== 1st Exp. (Jul 2016): 5 stored site records, 1 stats trailer(s) ====") {
		t.Errorf("analysis output missing record count:\n%s", got)
	}
	if !strings.Contains(got, "scan: 5 done (ok 5") {
		t.Errorf("analysis output missing stats trailer line:\n%s", got)
	}
}

// measuredBlock cuts the measured-census block, markers included, out of a
// run's human output; it fails the test unless there is exactly one.
func measuredBlock(t *testing.T, out string) string {
	t.Helper()
	if n := strings.Count(out, measuredBegin); n != 1 {
		t.Fatalf("output has %d measured-census blocks, want 1:\n%s", n, out)
	}
	_, rest, _ := strings.Cut(out, measuredBegin)
	body, _, ok := strings.Cut(rest, measuredEnd)
	if !ok {
		t.Fatalf("measured-census block has no end marker:\n%s", out)
	}
	return body
}

// TestAnalyzeReprintsMeasuredCensus is offline ≡ live at the CLI: the census
// block -sample N -out f prints and the block -analyze f prints for the file
// it wrote are the same bytes, in the tables the ground truth prints in.
func TestAnalyzeReprintsMeasuredCensus(t *testing.T) {
	path := filepath.Join(t.TempDir(), "records.jsonl")
	runOut := func(args ...string) string { return runCensus(t, args...) }
	live := measuredBlock(t, runOut("-epoch", "2", "-scale", "0.01", "-seed", "7", "-sample", "12", "-out", path))
	offline := measuredBlock(t, runOut("-analyze", path))
	if live != offline {
		t.Errorf("-analyze printed a different measured census.\nlive:\n%s\noffline:\n%s", live, offline)
	}
	for _, want := range []string{"-- Adoption (Section V-B) --", "-- Table IV: ", "-- Table V: SETTINGS_INITIAL_WINDOW_SIZE --",
		"-- Table VII: ", "-- Figure 2: ", "-- Section V-D: flow control --", "-- Section V-E: priority --",
		"-- Section V-F: server push --", "-- Figures 4/5: ", "-- Coverage --"} {
		if !strings.Contains(live, want) {
			t.Errorf("measured census missing %q:\n%s", want, live)
		}
	}

	// A file written before records carried a family still analyzes, with
	// its ratios as one series.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := regexp.MustCompile(`"family":"[^"]*",`).ReplaceAll(data, nil)
	if bytes.Equal(old, data) {
		t.Fatal("records carry no family field to strip")
	}
	oldPath := filepath.Join(t.TempDir(), "old.jsonl")
	if err := os.WriteFile(oldPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	legacy := measuredBlock(t, runOut("-analyze", oldPath))
	_, fig, _ := strings.Cut(legacy, "-- Figures 4/5: ")
	if !strings.Contains(fig, "CDF   all") || !strings.Contains(fig, "0.50  ") {
		t.Errorf("family-less file printed no HPACK ratio CDF:\n%s", legacy)
	}
	cutFig := func(s string) string { before, _, _ := strings.Cut(s, "-- Figures 4/5: "); return before }
	if cutFig(legacy) != cutFig(live) {
		t.Errorf("family-less file changed tables other than Figs. 4/5:\n%s", legacy)
	}
}

// TestMachineCleanStdout covers the -out - contract: with records streamed
// to stdout, every stdout line must be a parseable scan record and all
// human-readable tables, progress, and notices must land on stderr only.
func TestMachineCleanStdout(t *testing.T) {
	opts, err := parseFlags([]string{
		"-epoch", "1", "-scale", "0.002", "-sample", "4",
		"-progress", "1s", "-out", "-",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	if err := run(context.Background(), opts, &stdout, &stderr); err != nil {
		t.Fatalf("run(-out -): %v", err)
	}

	records := readRecords(t, strings.NewReader(stdout.String()))
	if len(records) != 5 {
		t.Fatalf("stdout carried %d records, want 4 sites + 1 stats trailer", len(records))
	}
	for i, rec := range records[:4] {
		if rec.IsStatsTrailer() {
			t.Errorf("record %d is a stats trailer; the trailer must come last", i)
		}
	}
	if !records[4].IsStatsTrailer() {
		t.Error("last stdout record is not the stats trailer")
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) != len(records) {
		t.Errorf("stdout has %d lines, want %d (one JSON object per line)", len(lines), len(records))
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, "{") {
			t.Errorf("stdout line %d is not JSON: %q", i+1, line)
		}
	}
	for _, banned := range []string{"====", "-- ", "wrote "} {
		if strings.Contains(stdout.String(), banned) {
			t.Errorf("stdout contains human-readable output %q:\n%s", banned, stdout.String())
		}
	}
	errText := stderr.String()
	for _, want := range []string{"====", "Table IV", "Measured scan", "wrote 4 records"} {
		if !strings.Contains(errText, want) {
			t.Errorf("stderr missing human output %q", want)
		}
	}
}

// TestDebugEndpointsLiveDuringScan covers the -debug-addr contract end to
// end: while a netsim census scan is in flight, one HTTP GET against each of
// the four endpoint kinds (Prometheus text, JSON snapshot, expvar, pprof)
// must succeed and show the scan's own instruments.
func TestDebugEndpointsLiveDuringScan(t *testing.T) {
	opts, err := parseFlags([]string{
		"-epoch", "1", "-scale", "0.002", "-sample", "4", "-debug-addr", "127.0.0.1:0",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var addr string
	opts.debugStarted = func(a string) { addr = a }

	fetched := make(map[string]string)
	var once sync.Once
	var fetchErr error
	opts.onScanRecord = func() {
		// onScanRecord fires serialized from the engine while other targets
		// are still being probed: the endpoint answers mid-scan.
		once.Do(func() {
			client := &http.Client{Timeout: 5 * time.Second}
			for _, p := range []string{"/metrics", "/metrics.json", "/debug/vars", "/debug/pprof/cmdline"} {
				resp, err := client.Get("http://" + addr + p)
				if err != nil {
					fetchErr = fmt.Errorf("GET %s: %w", p, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				_ = resp.Body.Close()
				if err != nil {
					fetchErr = fmt.Errorf("GET %s: reading body: %w", p, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					fetchErr = fmt.Errorf("GET %s: status %d", p, resp.StatusCode)
					return
				}
				fetched[p] = string(body)
			}
		})
	}

	var stdout, stderr strings.Builder
	if err := run(context.Background(), opts, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	if fetchErr != nil {
		t.Fatal(fetchErr)
	}
	if len(fetched) != 4 {
		t.Fatalf("fetched %d endpoints, want 4 (no scan record fired?)", len(fetched))
	}
	if !strings.Contains(fetched["/metrics"], "h2_scan_targets_total") {
		t.Errorf("/metrics missing h2_scan_targets_total:\n%.400s", fetched["/metrics"])
	}
	if !strings.Contains(fetched["/metrics"], "# TYPE h2_scan_target_latency_ns histogram") {
		t.Errorf("/metrics missing histogram TYPE line:\n%.400s", fetched["/metrics"])
	}
	var snapDoc struct {
		Metrics []metrics.MetricSnapshot `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(fetched["/metrics.json"]), &snapDoc); err != nil {
		t.Fatalf("/metrics.json is not a snapshot document: %v", err)
	}
	if len(snapDoc.Metrics) == 0 {
		t.Error("/metrics.json snapshot is empty")
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(fetched["/debug/vars"]), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if fetched["/debug/pprof/cmdline"] == "" {
		t.Error("/debug/pprof/cmdline returned an empty body")
	}

	// The run's own reporting: the metrics table on human output, the
	// runtime sampler's gauges registered by the debug server.
	if !strings.Contains(stdout.String(), "-- Metrics snapshot --") {
		t.Error("stdout missing the final metrics table")
	}
	if !strings.Contains(stdout.String(), "go_goroutines") {
		t.Error("metrics table missing runtime sampler gauges")
	}
}

// TestDashboardLiveDuringScan covers the /dashboard mount: while a census
// scan is in flight, the HTML view and the JSON API must both answer from
// the -debug-addr mux, and the JSON must carry live phase-latency rows once
// the run completes.
func TestDashboardLiveDuringScan(t *testing.T) {
	opts, err := parseFlags([]string{
		"-epoch", "1", "-scale", "0.002", "-sample", "4", "-debug-addr", "127.0.0.1:0",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var addr string
	opts.debugStarted = func(a string) { addr = a }

	var once sync.Once
	var midHTML, midJSON string
	var fetchErr error
	opts.onScanRecord = func() {
		once.Do(func() {
			client := &http.Client{Timeout: 5 * time.Second}
			get := func(p string) string {
				resp, err := client.Get("http://" + addr + p)
				if err != nil {
					fetchErr = fmt.Errorf("GET %s: %w", p, err)
					return ""
				}
				body, err := io.ReadAll(resp.Body)
				_ = resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					fetchErr = fmt.Errorf("GET %s: status %d err %v", p, resp.StatusCode, err)
					return ""
				}
				return string(body)
			}
			midHTML = get("/dashboard")
			midJSON = get("/dashboard.json")
		})
	}

	var stdout, stderr strings.Builder
	if err := run(context.Background(), opts, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	if fetchErr != nil {
		t.Fatal(fetchErr)
	}
	if !strings.Contains(midHTML, "live run dashboard") || !strings.Contains(midHTML, "h2census") {
		t.Errorf("/dashboard HTML mid-scan unexpected:\n%.400s", midHTML)
	}
	var st struct {
		Title   string `json:"title"`
		Targets int64  `json:"targets"`
		Phases  []struct {
			Phase string `json:"phase"`
			Count int64  `json:"count"`
		} `json:"phases"`
	}
	if err := json.Unmarshal([]byte(midJSON), &st); err != nil {
		t.Fatalf("/dashboard.json mid-scan is not JSON: %v\n%s", err, midJSON)
	}
	if st.Title != "h2census" {
		t.Errorf("dashboard title = %q", st.Title)
	}

	// After the scan the human output carries the phase-latency summary the
	// monitor derived from the same spans the dashboard serves.
	if !strings.Contains(stdout.String(), "-- Phase latency (p50/p99) --") {
		t.Errorf("stdout missing phase latency table:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "dial") {
		t.Error("phase latency table has no dial row")
	}
	if !strings.Contains(stdout.String(), "dashboard: http://") {
		t.Error("stdout missing dashboard URL notice")
	}
}

// TestMachineCleanStdoutWithObservability re-pins the -out - contract with
// the observability layer active: a flight recorder plus progress columns
// must leave stdout a pure record stream (all notices on stderr), and the
// recorder must seal a manifest on exit.
func TestMachineCleanStdoutWithObservability(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "dumps")
	opts, err := parseFlags([]string{
		"-epoch", "1", "-scale", "0.002", "-sample", "4",
		"-progress", "1ms", "-flightrec", dir, "-out", "-",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	if err := run(context.Background(), opts, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}

	records := readRecords(t, strings.NewReader(stdout.String()))
	if len(records) != 5 {
		t.Fatalf("stdout carried %d records, want 4 sites + 1 stats trailer", len(records))
	}
	// Every stdout line is a JSON object — no human notices leaked (the
	// trailer's embedded metrics snapshot may legitimately mention obs
	// instrument names, so ban shapes, not words).
	for i, line := range strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, "{") {
			t.Errorf("stdout line %d is not JSON: %q", i+1, line)
		}
	}
	if !strings.Contains(stderr.String(), "-- Phase latency (p50/p99) --") {
		t.Error("stderr missing phase latency table")
	}
	// The recorder sealed its manifest even with zero dumps.
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Errorf("flight recorder manifest: %v", err)
	}
}

// TestStatsTrailerEmbedsMetrics checks the -out stream's trailer record
// carries the registry snapshot alongside the engine stats.
func TestStatsTrailerEmbedsMetrics(t *testing.T) {
	opts, err := parseFlags([]string{
		"-epoch", "1", "-scale", "0.002", "-sample", "3", "-out", "-",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	if err := run(context.Background(), opts, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	records := readRecords(t, strings.NewReader(stdout.String()))
	trailer := records[len(records)-1]
	if !trailer.IsStatsTrailer() {
		t.Fatal("last record is not the stats trailer")
	}
	if len(trailer.Metrics) == 0 {
		t.Fatal("stats trailer carries no metrics snapshot")
	}
	names := make(map[string]bool)
	for _, m := range trailer.Metrics {
		names[m.Name] = true
	}
	for _, want := range []string{"h2_scan_targets_total", "h2_conn_opened_total"} {
		if !names[want] {
			t.Errorf("trailer snapshot missing %s", want)
		}
	}
}

// TestRunRobustnessScan drives -robustness end to end: the scan runs the
// adversarial battery per sampled site, the rendered summary reports the
// scores, and persisted records carry them for offline re-analysis.
func TestRunRobustnessScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "records.jsonl")
	opts, err := parseFlags([]string{
		"-epoch", "2", "-scale", "0.002", "-sample", "2", "-robustness",
		"-out", path,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	if err := run(context.Background(), opts, &stdout, &stderr); err != nil {
		t.Fatalf("run(-robustness): %v", err)
	}
	if !strings.Contains(stdout.String(), "robustness: 2 sites scored") {
		t.Errorf("summary missing robustness line:\n%s", stdout.String())
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = f.Close()
	}()
	records := readRecords(t, f)
	scored := 0
	for _, rec := range records {
		if rec.IsStatsTrailer() {
			continue
		}
		if rec.Robustness == nil {
			t.Errorf("%s: persisted record missing robustness score", rec.Domain)
			continue
		}
		if rec.Robustness.Value < 0 || rec.Robustness.Value > 1 {
			t.Errorf("%s: score %v outside [0,1]", rec.Domain, rec.Robustness.Value)
		}
		scored++
	}
	if scored != 2 {
		t.Errorf("scored records = %d, want 2", scored)
	}

	// The offline analyzer must re-derive the robustness column.
	opts, err = parseFlags([]string{"-analyze", path}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var analysis strings.Builder
	if err := run(context.Background(), opts, &analysis, io.Discard); err != nil {
		t.Fatalf("run(-analyze): %v", err)
	}
	if !strings.Contains(analysis.String(), "robustness: 2 sites scored") {
		t.Errorf("offline analysis missing robustness line:\n%s", analysis.String())
	}
}

// TestInterruptedCensusKeepsWhatItMeasured cancels the census the way
// SIGINT does, from inside the scan after the third site: the run still
// prints the measured block, writes every record it has plus a stats trailer
// that counts the canceled sites, closes the flight recorder, and reports the
// interruption as an error. -analyze of the partial file reprints the block.
func TestInterruptedCensusKeepsWhatItMeasured(t *testing.T) {
	dir := t.TempDir()
	path, frDir := filepath.Join(dir, "records.jsonl"), filepath.Join(dir, "fr")
	opts, err := parseFlags([]string{"-scale", "0.01", "-seed", "7", "-sample", "40", "-parallel", "2",
		"-flightrec", frDir, "-out", path}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	opts.onScanRecord = func() {
		if seen++; seen == 3 {
			cancel()
		}
	}
	var stdout, stderr strings.Builder
	err = run(ctx, opts, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("run = %v, want an error saying interrupted", err)
	}
	// Both epochs were asked for; the interrupt ends the run after the first.
	live := measuredBlock(t, stdout.String())

	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("interrupted run left no records file: %v", err)
	}
	records := readRecords(t, f)
	_ = f.Close()
	var sites, trailers int
	for i := range records {
		if !records[i].IsStatsTrailer() {
			sites++
			continue
		}
		trailers++
		if st := records[i].Stats; st.Canceled == 0 || st.Succeeded < 3 || st.Attempted != 40 {
			t.Errorf("stats trailer = %+v, want all 40 done, at least 3 ok and some canceled", st)
		}
	}
	if sites != 40 || trailers != 1 {
		t.Errorf("file holds %d site records and %d trailers, want 40 and 1", sites, trailers)
	}
	if _, err := os.Stat(filepath.Join(frDir, "manifest.json")); err != nil {
		t.Errorf("flight recorder not closed: %v", err)
	}

	aopts, err := parseFlags([]string{"-analyze", path}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var offline strings.Builder
	if err := run(context.Background(), aopts, &offline, io.Discard); err != nil {
		t.Fatalf("run(-analyze): %v", err)
	}
	if got := measuredBlock(t, offline.String()); got != live {
		t.Errorf("-analyze of the partial file printed a different measured census.\nlive:\n%s\noffline:\n%s", live, got)
	}
}

// TestRecordsReachTheFileAsSitesFinish: -out is written site by site, not
// after the scan. From the per-record hook, which fires with the scan still
// in flight, the file already holds every record delivered so far as whole
// JSON lines; and a copy taken at that moment — what a SIGKILL would leave —
// analyzes into a measured census of exactly those sites, with no trailer.
func TestRecordsReachTheFileAsSitesFinish(t *testing.T) {
	dir := t.TempDir()
	path, killed := filepath.Join(dir, "records.jsonl"), filepath.Join(dir, "killed.jsonl")
	opts, err := parseFlags([]string{"-epoch", "2", "-scale", "0.01", "-seed", "7", "-sample", "12", "-parallel", "2", "-out", path}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	const killAfter = 5
	delivered := 0
	opts.onScanRecord = func() {
		delivered++
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("after record %d: %v", delivered, err)
			return
		}
		if !bytes.HasSuffix(data, []byte("\n")) {
			t.Errorf("after record %d the file ends inside a line", delivered)
		}
		if got := len(readRecords(t, bytes.NewReader(data))); got < delivered {
			t.Errorf("after record %d the file holds %d records", delivered, got)
		}
		if delivered == killAfter {
			if err := os.WriteFile(killed, data, 0o644); err != nil {
				t.Error(err)
			}
		}
	}
	var stdout, stderr strings.Builder
	if err := run(context.Background(), opts, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	if delivered != 12 {
		t.Fatalf("the hook fired %d times, want 12", delivered)
	}

	data, err := os.ReadFile(killed)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(data, []byte("\n"))
	if lines < killAfter || lines >= 12 {
		t.Fatalf("the copy holds %d lines, want at least %d and fewer than the whole scan", lines, killAfter)
	}
	out := runCensus(t, "-analyze", killed)
	if want := fmt.Sprintf("==== %s: %d stored site records, 0 stats trailer(s) ====", population.EpochJan2017, lines); !strings.Contains(out, want) {
		t.Errorf("-analyze of the copy does not start %q:\n%s", want, out)
	}
	if block := measuredBlock(t, out); !strings.Contains(block, fmt.Sprintf("Sites returning HEADERS     %d ", lines)) {
		t.Errorf("measured census of the copy does not count its %d sites:\n%s", lines, block)
	}
	if strings.Contains(out, "scan: ") {
		t.Errorf("-analyze printed a stats line for a file without a trailer:\n%s", out)
	}
}
