package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// metricDef declares one metric the benchmark prints: its name, unit and
// which direction is better. Bound is set for gated end-to-end metrics only:
// the share of the parent's median by which the metric may get worse before
// a change counts as a regression. BENCHMARK.json mirrors these tables and a
// test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEndDefs are the gated metrics, reported by every workload from the
// untraced run. There is one bound per metric for all four workloads, so the
// noisiest workload on the noisiest minute of the machine sets it; the A/A
// runs it comes from are in bench/README.md.
var endToEndDefs = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_mid_us", "us", "lower", 0.25},
	{"goodput_mbps", "MB/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerDefs are the ungated metrics of the traced pass, one layer (module
// name) per prefix. A metric a workload does not exercise reads 0 there.
var perLayerDefs = []metricDef{
	{"transport.srv_reads_per_op", "count", "lower", 0},
	{"transport.srv_writes_per_op", "count", "lower", 0},
	{"transport.srv_bytes_per_write", "B", "higher", 0},
	{"transport.srv_write_ns_per_op", "ns", "lower", 0},
	{"transport.cli_flush_ns_per_op", "ns", "lower", 0},
	{"transport.floor_ns_per_op", "ns", "lower", 0},
	{"transport.dial_accept_us", "us", "lower", 0},
	{"frame.read_ns_per_op", "ns", "lower", 0},
	{"frame.write_ns_per_op", "ns", "lower", 0},
	{"frame.write_ns_per_mb", "ns", "lower", 0},
	{"frame.frames_per_site", "count", "lower", 0},
	{"frame.bytes_per_site", "B", "lower", 0},
	{"hpack.decode_ns_per_op", "ns", "lower", 0},
	{"hpack.encode_ns_per_op", "ns", "lower", 0},
	{"hpack.req_block_bytes", "B", "lower", 0},
	{"hpack.resp_block_bytes", "B", "lower", 0},
	{"hpack.dyn_hit_share", "share", "higher", 0},
	{"flowcontrol.ns_per_frame", "ns", "lower", 0},
	{"flowcontrol.window_stalls_per_op", "count", "lower", 0},
	{"flowcontrol.window_updates_per_mb", "count", "lower", 0},
	{"priority.pick_ns_per_frame", "ns", "lower", 0},
	{"priority.picks_per_op", "count", "lower", 0},
	{"server.busy_ns_per_op", "ns", "lower", 0},
	{"server.read_wait_ns_per_op", "ns", "lower", 0},
	{"server.frames_out_per_write", "count", "higher", 0},
	{"server.egress_ready_p50", "count", "higher", 0},
	{"server.pipe_ns_per_op", "ns", "lower", 0},
	{"server.dispatch_ns_per_op", "ns", "lower", 0},
	{"server.conn_setup_us", "us", "lower", 0},
	{"server.conn_alloc_kb", "KiB", "lower", 0},
	{"server.goroutines_leaked", "count", "lower", 0},
	{"scan.attempts_per_site", "count", "lower", 0},
	{"scan.retries_per_site", "count", "lower", 0},
	{"scan.site_wall_p50_ms", "ms", "lower", 0},
	{"scan.wait_share", "share", "lower", 0},
	{"h2conn.conns_per_site", "count", "lower", 0},
	{"h2conn.streams_per_site", "count", "lower", 0},
	{"core.battery_p50_ms", "ms", "lower", 0},
	{"core.battery_cpu_ms", "ms", "lower", 0},
	{"h2bench.client_ns_per_op", "ns", "lower", 0},
	{"h2bench.op_p50_us", "us", "lower", 0},
	{"h2bench.op_p90_us", "us", "lower", 0},
	{"h2bench.op_p99_us", "us", "lower", 0},
	{"h2bench.op_p999_us", "us", "lower", 0},
	{"h2bench.op_max_us", "us", "lower", 0},
	{"h2bench.latency_samples", "count", "higher", 0},
	{"runtime.alloc_kb_per_op", "KiB", "lower", 0},
	{"runtime.mallocs_per_op", "count", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_total_ms", "ms", "lower", 0},
	{"runtime.heap_peak_mb", "MiB", "lower", 0},
	{"budget.sum_ns_per_op", "ns", "lower", 0},
	{"budget.e2e_cpu_ns_per_op", "ns", "lower", 0},
	{"budget.unexplained_share", "share", "lower", 0},
	{"trace.overhead_share", "share", "lower", 0},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric name to value; fill makes it complete against a
// definition table.
type metricSet map[string]float64

// fill returns the set as name → {value, unit} with exactly the names of
// defs. A name missing from the set reads 0 (not exercised by this
// workload); a value outside defs or a non-finite one is a bug in the
// benchmark and is reported as an error, not printed.
func (s metricSet) fill(defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := s[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range s {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

// workloadReport is everything one workload produced in one suite run.
type workloadReport struct {
	Workload  string  `json:"workload"`
	Why       string  `json:"why"`
	OpUnit    string  `json:"op_unit"`
	Clients   int     `json:"clients"`
	Seed      int64   `json:"seed"`
	WindowS   float64 `json:"window_s"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	// Errors are transport, protocol or verification errors of the runs;
	// any of them makes the run incorrect even if no op was counted failed.
	Errors []string `json:"errors,omitempty"`
	// EndToEnd comes from the untraced run, PerLayer from the traced pass;
	// either is nil when that pass did not run.
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	TraceFile string            `json:"trace_file,omitempty"`
}

// correct reports whether the run may be used: at least one op, none
// failed, no error.
func (r *workloadReport) correct() bool {
	return r.Attempted > 0 && r.Failed == 0 && len(r.Errors) == 0
}

// contractLine is the one JSON object the driver reads from the last line
// of standard output.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// machineContext says where the numbers were taken, so two points are only
// compared when they should be.
type machineContext struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Transport  string `json:"transport"`
	Sharing    string `json:"sharing"`
}

func readMachineContext(clients int) machineContext {
	mc := machineContext{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
		Transport:  "serve workloads: TCP loopback 127.0.0.1; probe_scan: in-process netsim pipes",
		Sharing: fmt.Sprintf("one process: %d load goroutines, the server under test and the kernel share %d cores",
			clients, runtime.NumCPU()),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				mc.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		_ = f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		mc.Kernel = strings.TrimSpace(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				mc.Commit = s.Value
			}
		}
	}
	return mc
}

func (mc machineContext) print(w io.Writer) {
	fmt.Fprintf(w, "machine: cpu=%q nproc=%d GOMAXPROCS=%d go=%s kernel=%s commit=%s\n",
		mc.CPUModel, mc.NumCPU, mc.GOMAXPROCS, mc.GoVersion, mc.Kernel, mc.Commit)
	fmt.Fprintf(w, "transport: %s\nsharing: %s\n", mc.Transport, mc.Sharing)
}

// printMetrics writes one "name value unit" line per metric, in the order
// of defs.
func printMetrics(w io.Writer, defs []metricDef, ms map[string]metric) {
	for _, d := range defs {
		m := ms[d.Name]
		fmt.Fprintf(w, "  %-36s %16.4f %s\n", d.Name, m.Value, m.Unit)
	}
}

func (r *workloadReport) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s  (op = %s, closed loop, %d clients, seed %d, %.1f s window)\n   %s\n",
		r.Workload, r.OpUnit, r.Clients, r.Seed, r.WindowS, r.Why)
	fmt.Fprintf(w, "  %-36s %16d ops\n  %-36s %16d ops\n", "attempted", r.Attempted, "failed", r.Failed)
	if r.EndToEnd != nil {
		fmt.Fprintln(w, " end to end (untraced):")
		printMetrics(w, endToEndDefs, r.EndToEnd)
	}
	if r.PerLayer != nil {
		fmt.Fprintln(w, " per layer (traced pass; 0 = not exercised by this workload):")
		printMetrics(w, perLayerDefs, r.PerLayer)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "  spans: %s\n", r.TraceFile)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
}

// suiteReport is what -json writes.
type suiteReport struct {
	Machine   machineContext    `json:"machine"`
	Workloads []*workloadReport `json:"workloads"`
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	return nil
}
