package obs

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/trace"
)

// fakeClock is a settable clock for rate-limit tests.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

func newTestRecorder(t *testing.T, cfg FlightRecorderConfig) (*FlightRecorder, string) {
	t.Helper()
	dir := t.TempDir()
	cfg.Dir = dir
	r, err := NewFlightRecorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, dir
}

func TestFlightRecorderDumpContents(t *testing.T) {
	clk := &fakeClock{now: testBase}
	r, _ := newTestRecorder(t, FlightRecorderConfig{Clock: clk.Now})

	// One connection whose stream outgrows the tail by a run of PINGs.
	events := clientEvents()
	last := len(events) - 1
	for i := 0; i < flightTail; i++ {
		events = append(events[:last], trace.Event{Kind: trace.KindFrameRecv, Conn: 1, FrameType: frame.TypePing, At: at(45)}, events[last])
		last++
	}
	path, err := r.Dump(Anomaly{Reason: "p99-blowout:dial", Target: "site-000001.example", Phase: PhaseDial}, events)
	if err != nil {
		t.Fatal(err)
	}
	if path == "" {
		t.Fatal("dump suppressed unexpectedly")
	}
	if !strings.HasPrefix(filepath.Base(path), "anomaly-001-p99-blowout-dial") {
		t.Errorf("dump file name %q", filepath.Base(path))
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var headers, spans, dumped int
	for sc.Scan() {
		var line map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad JSONL line: %v", err)
		}
		switch {
		case line["flightrec"] != nil:
			headers++
			var hdr struct {
				Reason    string `json:"reason"`
				Events    int    `json:"events"`
				Truncated bool   `json:"truncated"`
			}
			if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
				t.Fatal(err)
			}
			if hdr.Reason != "p99-blowout:dial" || hdr.Events != flightTail || !hdr.Truncated {
				t.Errorf("header = %+v", hdr)
			}
		case line["span"] != nil:
			spans++
		case line["event"] != nil:
			dumped++
		default:
			t.Errorf("unclassified line: %s", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// One header, a span line per reconstructed connection (the summary
	// covers the FULL stream, not just the tail), and exactly flightTail
	// events.
	if headers != 1 || spans != 1 || dumped != flightTail {
		t.Errorf("headers=%d spans=%d events=%d, want 1/1/%d", headers, spans, dumped, flightTail)
	}
	if r.Dumps() != 1 || r.Suppressed() != 0 {
		t.Errorf("dumps=%d suppressed=%d", r.Dumps(), r.Suppressed())
	}
}

func TestFlightRecorderRateLimitAndCap(t *testing.T) {
	clk := &fakeClock{now: testBase}
	r, _ := newTestRecorder(t, FlightRecorderConfig{Clock: clk.Now})

	dump := func() string {
		t.Helper()
		path, err := r.Dump(Anomaly{Reason: "error-spike:tls"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	if dump() == "" {
		t.Fatal("first dump suppressed")
	}
	if dump() != "" {
		t.Error("dump inside the minimum interval not suppressed")
	}
	for i := 1; i < flightMaxDumps; i++ {
		clk.Advance(2 * flightMinInterval)
		if dump() == "" {
			t.Fatalf("dump %d, after the interval, suppressed", i+1)
		}
	}
	clk.Advance(2 * flightMinInterval)
	if dump() != "" {
		t.Error("dump beyond the cap not suppressed")
	}
	if r.Dumps() != flightMaxDumps || r.Suppressed() != 2 {
		t.Errorf("dumps=%d suppressed=%d, want %d/2", r.Dumps(), r.Suppressed(), flightMaxDumps)
	}
}

func TestFlightRecorderCloseWritesManifest(t *testing.T) {
	clk := &fakeClock{now: testBase}
	r, dir := newTestRecorder(t, FlightRecorderConfig{Clock: clk.Now})
	if _, err := r.Dump(Anomaly{Reason: "p99-blowout:dial", Target: "t1"}, clientEvents()); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * flightMinInterval)
	if _, err := r.Dump(Anomaly{Reason: "error-spike:tls", Target: "t2"}, nil); err != nil {
		t.Fatal(err)
	}
	// Third trigger comes too soon: counted as suppressed, shows up in the
	// manifest below.
	if path, err := r.Dump(Anomaly{Reason: "p99-blowout:settle"}, nil); err != nil || path != "" {
		t.Fatalf("rate-limited dump: path=%q err=%v", path, err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Closed recorder suppresses further triggers, and Close is idempotent.
	if path, err := r.Dump(Anomaly{Reason: "late"}, nil); err != nil || path != "" {
		t.Errorf("post-close dump: path=%q err=%v", path, err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Flightrec string `json:"flightrec"`
		Dumps     []struct {
			File   string `json:"file"`
			Reason string `json:"reason"`
		} `json:"dumps"`
		Suppressed int64 `json:"suppressed"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if manifest.Flightrec != "h2scope-manifest" || len(manifest.Dumps) != 2 || manifest.Suppressed != 1 {
		t.Errorf("manifest = %+v", manifest)
	}
	for _, d := range manifest.Dumps {
		if _, err := os.Stat(filepath.Join(dir, d.File)); err != nil {
			t.Errorf("manifest names missing dump: %v", err)
		}
	}
}

func TestFlightRecorderRequiresDir(t *testing.T) {
	if _, err := NewFlightRecorder(FlightRecorderConfig{}); err == nil {
		t.Fatal("NewFlightRecorder without Dir: want error")
	}
}

func TestSafeFileFragment(t *testing.T) {
	if got := safeFileFragment("p99-blowout:dial"); got != "p99-blowout-dial" {
		t.Errorf("safeFileFragment = %q", got)
	}
	if got := safeFileFragment(strings.Repeat("x", 100)); len(got) != 48 {
		t.Errorf("long fragment not capped: %d chars", len(got))
	}
	if got := safeFileFragment("../../etc/passwd"); strings.ContainsAny(got, "/\\") {
		t.Errorf("path characters survived: %q", got)
	}
	if got := safeFileFragment(""); got != "anomaly" {
		t.Errorf("empty fragment = %q", got)
	}
}
