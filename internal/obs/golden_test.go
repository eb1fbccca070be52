package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"h2scope/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenSpanReconstruction pins the full span derivation against a
// recorded trace fixture — a client conn, a settings-only retry, a
// server-direction conn, and a conn whose stream 3 has a PRIORITY 20 ms
// ahead of its HEADERS next to a PRIORITY-only stream 5: any change to the
// builder's causal rules shows up as a golden diff, reviewed rather than
// silently absorbed.
func TestGoldenSpanReconstruction(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "span_fixture.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	RenderConns(&sb, BuildConns(d.Events))
	got := sb.String()

	goldenPath := filepath.Join("testdata", "span_fixture.golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("span reconstruction drifted from golden (run with -update to accept):\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
