package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"h2scope/internal/attack"
)

func TestParseFlagsValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring; empty means the args must parse
	}{
		{"profile battery", []string{"-profile", "nginx"}, ""},
		{"target battery", []string{"-target", "127.0.0.1:8443"}, ""},
		{"single scenario", []string{"-profile", "apache", "-scenario", "rapid-reset"}, ""},
		{"out to stdout", []string{"-profile", "nginx", "-out", "-"}, ""},

		{"no target", nil, "need -target or -profile"},
		{"both targets", []string{"-target", "x:1", "-profile", "nginx"}, "mutually exclusive"},
		{"unknown scenario", []string{"-profile", "nginx", "-scenario", "teardrop"}, "unknown -scenario"},
		{"negative duration", []string{"-profile", "nginx", "-duration", "-1s"}, "-duration must be >= 0"},
		{"negative rate", []string{"-profile", "nginx", "-rate", "-5"}, "-rate must be >= 0"},
		{"negative conns", []string{"-profile", "nginx", "-conns", "-1"}, "-conns must be >= 0"},
		{"jitter above one", []string{"-profile", "nginx", "-jitter", "1.5"}, "-jitter must be in [0,1]"},
		{"zero timeout", []string{"-profile", "nginx", "-timeout", "0s"}, "-timeout must be positive"},
		{"positional junk", []string{"-profile", "nginx", "extra"}, "unexpected positional arguments"},
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

// TestRunSingleScenarioJSONL drives one scenario in-process and checks the
// persisted outcome record parses back with the right shape.
func TestRunSingleScenarioJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outcomes.jsonl")
	opts, err := parseFlags([]string{
		"-profile", "nginx", "-scenario", "settings-flood",
		"-duration", "150ms", "-out", path,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	if err := run(opts, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stdout.String(), "settings-flood") {
		t.Errorf("human report missing scenario line:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "robustness:") {
		t.Errorf("human report missing robustness summary:\n%s", stdout.String())
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out attack.Outcome
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("outcome record is not JSON: %v\n%s", err, data)
	}
	if out.Kind != attack.KindSettingsFlood {
		t.Errorf("record kind = %q, want settings-flood", out.Kind)
	}
	if out.Verdict == "" || out.Ops == 0 {
		t.Errorf("record missing verdict or ops: %+v", out)
	}
	// The collateral columns round-trip under their own keys.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"collateral_probes", "collateral_failed", "collateral_p99_ns"} {
		if raw[key] == nil {
			t.Errorf("record lacks %q:\n%s", key, data)
		}
	}
	if out.CollateralProbes == 0 || out.CollateralP99 <= 0 {
		t.Errorf("record carries no collateral measurement: %+v", out)
	}
}

// TestRunFullBatteryMachineStdout covers -out -: the whole catalog runs,
// stdout carries exactly one JSON record per scenario, and the human report
// lands on stderr.
func TestRunFullBatteryMachineStdout(t *testing.T) {
	opts, err := parseFlags([]string{
		"-profile", "apache", "-duration", "120ms", "-out", "-",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	if err := run(opts, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) != len(attack.Kinds()) {
		t.Fatalf("stdout carried %d records, want %d:\n%s", len(lines), len(attack.Kinds()), stdout.String())
	}
	seen := make(map[attack.Kind]bool)
	for i, line := range lines {
		var out attack.Outcome
		if err := json.Unmarshal([]byte(line), &out); err != nil {
			t.Fatalf("stdout line %d is not a JSON outcome: %v\n%q", i+1, err, line)
		}
		seen[out.Kind] = true
	}
	for _, k := range attack.Kinds() {
		if !seen[k] {
			t.Errorf("catalog scenario %s missing from output", k)
		}
	}
	errText := stderr.String()
	for _, want := range []string{"robustness:", "collateral p99"} {
		if !strings.Contains(errText, want) {
			t.Errorf("stderr missing human output %q:\n%s", want, errText)
		}
	}
	if strings.Contains(stdout.String(), "robustness:") {
		t.Errorf("human output leaked onto machine stdout:\n%s", stdout.String())
	}
}

// TestDebugAddrExportsAttackedServer: with -profile, -debug-addr serves the
// attacked in-process server's own counters while the battery runs, not only
// the runtime gauges.
func TestDebugAddrExportsAttackedServer(t *testing.T) {
	opts, err := parseFlags([]string{
		"-profile", "nginx", "-scenario", "rapid-reset", "-duration", "1s", "-debug-addr", "127.0.0.1:0",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run(opts, pw, io.Discard)
		_ = pw.Close()
	}()
	lines := bufio.NewScanner(pr)
	if !lines.Scan() || !strings.HasPrefix(lines.Text(), "debug endpoint: ") {
		t.Fatalf("first line %q, want the debug endpoint", lines.Text())
	}
	url := strings.TrimPrefix(lines.Text(), "debug endpoint: ")
	go func() { _, _ = io.Copy(io.Discard, pr) }()

	// accepted scrapes the counter; -1 when it is not exported.
	accepted := func() int64 {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("scrape: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		for _, line := range strings.Split(string(body), "\n") {
			if v, ok := strings.CutPrefix(line, "h2_server_conns_accepted_total "); ok {
				n, _ := strconv.ParseInt(v, 10, 64)
				return n
			}
		}
		return -1
	}
	n := accepted()
	for deadline := time.Now().Add(500 * time.Millisecond); n <= 0 && time.Now().Before(deadline); n = accepted() {
		time.Sleep(20 * time.Millisecond)
	}
	if n <= 0 {
		t.Errorf("h2_server_conns_accepted_total = %d during the attack, want > 0", n)
	}
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}
