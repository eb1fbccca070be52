package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"h2scope/internal/h2load"
)

func TestParseFlagsValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring; empty means the args must parse
	}{
		{"profile run", []string{"-profile", "h2o"}, ""},
		{"target run", []string{"-target", "127.0.0.1:443"}, ""},
		{"full tuning", []string{"-profile", "nghttpd", "-n", "100", "-conns", "4", "-threads", "2", "-streams", "16"}, ""},
		{"out to stdout", []string{"-profile", "h2o", "-out", "-"}, ""},

		{"no target", nil, "need -target or -profile"},
		{"both targets", []string{"-target", "x:1", "-profile", "h2o"}, "mutually exclusive"},
		{"zero requests", []string{"-profile", "h2o", "-n", "0"}, "-n must be >= 1"},
		{"zero conns", []string{"-profile", "h2o", "-conns", "0"}, "-conns must be >= 1"},
		{"negative threads", []string{"-profile", "h2o", "-threads", "-1"}, "-threads must be >= 0"},
		{"zero streams", []string{"-profile", "h2o", "-streams", "0"}, "-streams must be >= 1"},
		// The server has one connection table; the shard count is gone from
		// every surface, so the flag is unknown in both modes.
		{"shards with profile", []string{"-profile", "nghttpd", "-shards", "4"}, "flag provided but not defined: -shards"},
		{"shards without profile", []string{"-target", "x:1", "-shards", "2"}, "flag provided but not defined: -shards"},
		{"zero timeout", []string{"-profile", "h2o", "-timeout", "0s"}, "-timeout must be positive"},
		{"positional junk", []string{"-profile", "h2o", "extra"}, "unexpected positional arguments"},
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

// TestMachineCleanStdout covers the -out - contract: stdout must carry
// exactly one parseable JSONL summary record and nothing else, with the
// human-readable report moved to stderr.
func TestMachineCleanStdout(t *testing.T) {
	opts, err := parseFlags([]string{
		"-profile", "nghttpd", "-n", "50", "-conns", "2", "-streams", "4",
		"-out", "-",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	if err := run(opts, &stdout, &stderr); err != nil {
		t.Fatalf("run(-out -): %v", err)
	}

	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("stdout has %d lines, want exactly 1 JSON record:\n%s", len(lines), stdout.String())
	}
	var sum h2load.Summary
	if err := json.Unmarshal([]byte(lines[0]), &sum); err != nil {
		t.Fatalf("stdout is not a clean summary record: %v\nstdout:\n%s", err, stdout.String())
	}
	if sum.Requests != 50 || sum.Errors != 0 {
		t.Errorf("summary requests=%d errors=%d, want 50/0", sum.Requests, sum.Errors)
	}
	if sum.RequestsPerSec <= 0 || sum.DurationNS <= 0 {
		t.Errorf("summary rate=%g duration=%d, want positive", sum.RequestsPerSec, sum.DurationNS)
	}
	if sum.LatencyP50NS <= 0 || sum.LatencyP99NS < sum.LatencyP50NS {
		t.Errorf("summary p50=%d p99=%d, want 0 < p50 <= p99", sum.LatencyP50NS, sum.LatencyP99NS)
	}
	for _, banned := range []string{"req/s", "h2load:", "wrote "} {
		if strings.Contains(stdout.String(), banned) {
			t.Errorf("stdout contains human-readable output %q:\n%s", banned, stdout.String())
		}
	}
	if !strings.Contains(stderr.String(), "req/s") {
		t.Errorf("human report missing from stderr:\n%s", stderr.String())
	}
}

// TestOutFileAppendsRecord covers -out FILE: the summary is appended as
// JSONL while the human report stays on stdout.
func TestOutFileAppendsRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.jsonl")
	for i := 0; i < 2; i++ {
		opts, err := parseFlags([]string{
			"-profile", "h2o", "-n", "20", "-out", path,
		}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr strings.Builder
		if err := run(opts, &stdout, &stderr); err != nil {
			t.Fatalf("run(-out %s): %v", path, err)
		}
		if !strings.Contains(stdout.String(), "req/s") {
			t.Errorf("human report missing from stdout:\n%s", stdout.String())
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("out file has %d lines after two runs, want 2:\n%s", len(lines), data)
	}
	for i, line := range lines {
		var sum h2load.Summary
		if err := json.Unmarshal([]byte(line), &sum); err != nil {
			t.Errorf("line %d is not a summary record: %v", i+1, err)
		}
	}
}
