package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// checkMetrics asserts that got holds exactly the metrics of defs, each
// finite and tagged with its unit.
func checkMetrics(t *testing.T, kind string, defs []metricDef, got map[string]metric) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", kind, len(got), len(defs))
	}
	for _, d := range defs {
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s is missing", kind, d.Name)
		case m.Unit != d.Unit || m.Unit == "":
			t.Errorf("%s: metric %s has unit %q, want %q", kind, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", kind, d.Name, m.Value)
		}
	}
}

// TestSmokeEveryWorkload runs every workload for 200 ms untraced and 200 ms
// traced, through the same code path the suite uses.
func TestSmokeEveryWorkload(t *testing.T) {
	golden, err := goldenTable3()
	if err != nil {
		t.Fatal(err)
	}
	o := suiteOptions{
		seed: 1, window: 200 * time.Millisecond, traceWindow: 200 * time.Millisecond,
		setupReps: 1, clients: 2, golden: golden, spanDir: t.TempDir(),
	}
	reports := make(map[string]*workloadReport)
	for _, wl := range workloads {
		r, err := runWorkload(wl, o)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		reports[wl.Name] = r
		if !r.correct() {
			t.Errorf("%s: attempted %d, failed %d, errors %v", wl.Name, r.Attempted, r.Failed, r.Errors)
		}
		checkMetrics(t, wl.Name+" end to end", endToEndDefs, r.EndToEnd)
		checkMetrics(t, wl.Name+" per layer", perLayerDefs, r.PerLayer)
		// An end-to-end metric that reads 0 cannot be held to a relative bound.
		for name, m := range r.EndToEnd {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, name, m.Value)
			}
		}
		if v := r.PerLayer["server.goroutines_leaked"].Value; v != 0 {
			t.Errorf("%s: %v goroutines leaked", wl.Name, v)
		}
		var buf bytes.Buffer
		r.print(&buf)
		for _, d := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
			if !strings.Contains(buf.String(), d.Name) {
				t.Errorf("%s: printed report lacks %s", wl.Name, d.Name)
			}
		}
	}

	// Each workload exercises its own layers and reads 0 on the others'.
	for _, name := range []string{wlSmallGet, wlLargeGet, wlConnChurn} {
		pl := reports[name].PerLayer
		for _, m := range []string{"transport.srv_writes_per_op", "transport.floor_ns_per_op", "frame.read_ns_per_op",
			"hpack.decode_ns_per_op", "hpack.encode_ns_per_op", "server.pipe_ns_per_op", "h2bench.client_ns_per_op",
			"budget.sum_ns_per_op", "priority.picks_per_op", "server.conn_setup_us"} {
			if pl[m].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, m, pl[m].Value)
			}
		}
		if pl["scan.attempts_per_site"].Value != 0 {
			t.Errorf("%s reports scan metrics", name)
		}
		if reports[name].TraceFile == "" {
			t.Errorf("%s wrote no spans", name)
		}
	}
	scan := reports[wlProbeScan].PerLayer
	for _, m := range []string{"scan.attempts_per_site", "scan.site_wall_p50_ms", "scan.wait_share",
		"h2conn.conns_per_site", "h2conn.streams_per_site", "frame.frames_per_site", "frame.bytes_per_site",
		"core.battery_p50_ms", "core.battery_cpu_ms"} {
		if scan[m].Value <= 0 {
			t.Errorf("probe_scan: %s = %v, want > 0", m, scan[m].Value)
		}
	}
	if scan["server.pipe_ns_per_op"].Value != 0 {
		t.Error("probe_scan reports serve metrics")
	}
	// The workloads separate the layers: the header path (frame, hpack,
	// dispatch) is a far larger share of a small request's cost than of a
	// large one's, and the scan mostly waits.
	headerShare := func(name string) float64 {
		pl := reports[name].PerLayer
		return (pl["frame.read_ns_per_op"].Value + pl["hpack.decode_ns_per_op"].Value + pl["hpack.encode_ns_per_op"].Value) /
			pl["budget.e2e_cpu_ns_per_op"].Value
	}
	if small, large := headerShare(wlSmallGet), headerShare(wlLargeGet); small < 2*large {
		t.Errorf("header-path share of CPU per op: small_get %.3f, large_get %.3f; want small_get well above", small, large)
	}
	if got := scan["scan.wait_share"].Value; got <= 0.5 {
		t.Errorf("probe_scan: wait share %.2f, want > 0.5 (the scan is timer-bound)", got)
	}
	if got, want := reports[wlLargeGet].PerLayer["priority.picks_per_op"].Value, 6.0; got < want {
		t.Errorf("large_get: %.2f DATA frames per 96 KiB response, want >= %v", got, want)
	}

	// Sampled spans: every span names its op, children lie inside the op.
	b, err := os.ReadFile(filepath.Join(o.spanDir, "trace-"+wlSmallGet+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, line := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
		var s span
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("span line %q: %v", line, err)
		}
		if s.Op == "" || s.EndNS < s.StartNS || s.SelfNS < 0 || s.SelfNS > s.EndNS-s.StartNS {
			t.Errorf("bad span %+v", s)
		}
		names[s.Name] = true
	}
	for _, want := range []string{"op", "client.encode_write", "transport_server", "server.busy", "client.read_decode"} {
		if !names[want] {
			t.Errorf("small_get spans lack %q (have %v)", want, names)
		}
	}
}

// TestContractLine runs the command line the way the driver does and checks
// the shape of the last line of standard output.
func TestContractLine(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir) // the traced pass writes bench/out under the working directory
	for _, tc := range []struct {
		trace  string
		window []string
		defs   []metricDef
	}{
		{"0", []string{"--seconds", "1"}, endToEndDefs}, // the driver's spelling
		{"1", []string{"-duration", "400ms"}, perLayerDefs},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"--workload", wlConnChurn, "--seed", "3", "--trace", tc.trace}, tc.window...)
		err := run(args, &stdout, &stderr)
		if err != nil {
			t.Fatalf("--trace %s: %v\n%s", tc.trace, err, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
			t.Fatalf("--trace %s: last line %q: %v", tc.trace, lines[len(lines)-1], err)
		}
		if len(raw) != 4 {
			t.Errorf("--trace %s: result has keys %v, want exactly correct, attempted, failed, metrics", tc.trace, raw)
		}
		var line contractLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("--trace %s: correct=%v attempted=%d failed=%d", tc.trace, line.Correct, line.Attempted, line.Failed)
		}
		checkMetrics(t, "--trace "+tc.trace, tc.defs, line.Metrics)
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "0"},                          // needs exactly one workload
		{"-trace", "2", "-workload", wlSmallGet}, // 0 or 1
		{"-aa", "1"},
		{"-duration", "1ms"},
		{"stray"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("run(%v) succeeded, want an error", args)
		}
	}
}
