package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: h2scope/internal/metrics
cpu: Intel(R) Xeon(R)
BenchmarkCounterInc-8           	29577406	        41.20 ns/op	       0 B/op	       0 allocs/op
BenchmarkHistogramObserve-8     	14080161	        85.03 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	h2scope/internal/metrics	2.511s
pkg: h2scope/internal/frame
BenchmarkFrameIOInstrumented-8  	  513160	      2330 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	h2scope/internal/frame	1.402s
`

func TestParse(t *testing.T) {
	doc, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}
	// Sorted by package then name: frame before metrics.
	first := doc.Benchmarks[0]
	if first.Name != "BenchmarkFrameIOInstrumented-8" || first.Package != "h2scope/internal/frame" {
		t.Errorf("first benchmark = %q in %q, want FrameIO in internal/frame", first.Name, first.Package)
	}
	if first.Iterations != 513160 || first.NsPerOp != 2330 {
		t.Errorf("FrameIO = %d iters at %g ns/op, want 513160 at 2330", first.Iterations, first.NsPerOp)
	}
	counter := doc.Benchmarks[1]
	if counter.Name != "BenchmarkCounterInc-8" {
		t.Fatalf("second benchmark = %q, want BenchmarkCounterInc-8", counter.Name)
	}
	if counter.NsPerOp != 41.20 {
		t.Errorf("CounterInc ns/op = %g, want 41.20", counter.NsPerOp)
	}
	if counter.AllocsPerOp == nil || *counter.AllocsPerOp != 0 {
		t.Errorf("CounterInc allocs/op = %v, want 0", counter.AllocsPerOp)
	}
	if counter.BytesPerOp == nil || *counter.BytesPerOp != 0 {
		t.Errorf("CounterInc B/op = %v, want 0", counter.BytesPerOp)
	}
}

func TestParseWithoutBenchmem(t *testing.T) {
	doc, err := Parse(strings.NewReader("BenchmarkX-4 100 5.5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	b := doc.Benchmarks[0]
	if b.NsPerOp != 5.5 || b.AllocsPerOp != nil || b.BytesPerOp != nil {
		t.Errorf("got %+v, want ns/op only", b)
	}
}

func TestParseCapturesCustomMetrics(t *testing.T) {
	// A key=value sub-benchmark with a custom unit, as the root package's
	// BenchmarkAblationMaxFrameSize prints it.
	line := "BenchmarkAblationMaxFrameSize/max_frame=16384-2 \t 200\t 343103 ns/op\t 286.51 MB/s\t 7.000 frames/op\n"
	doc, err := Parse(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	b := doc.Benchmarks[0]
	if want := "BenchmarkAblationMaxFrameSize/max_frame=16384-2"; b.Name != want {
		t.Errorf("name = %q, want %q", b.Name, want)
	}
	if b.Extra == nil || b.Extra["frames/op"] != 7 {
		t.Errorf("Extra = %v, want frames/op 7", b.Extra)
	}
	if b.NsPerOp != 343103 {
		t.Errorf("ns/op = %g, want 343103", b.NsPerOp)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"BenchmarkX-4 garbage 5.5 ns/op\n",
		"BenchmarkX-4 100\n",
		"BenchmarkX-4 100 12 B/op\n", // no ns/op at all
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestRunEmitsStableJSON(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	var doc Document
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("round-tripped %d benchmarks, want 3", len(doc.Benchmarks))
	}
	if !strings.Contains(out.String(), `"ns_per_op"`) || !strings.Contains(out.String(), `"allocs_per_op"`) {
		t.Errorf("output missing expected keys:\n%s", out.String())
	}
}
