package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"h2scope/internal/frame"
	"h2scope/internal/trace"
)

// writeSampleTrace exports a small two-stream trace to dir and returns its
// path.
func writeSampleTrace(t *testing.T, dir, name, target string) string {
	t.Helper()
	tr := trace.New(128)
	conn := tr.ConnID()
	tr.ConnOpen(conn, target)
	end := tr.Phase("multiplexing")
	tr.ConnPhase(conn, "multiplexing")
	tr.Frame(conn, true, frame.Header{Type: frame.TypeHeaders, StreamID: 1, Flags: frame.FlagEndStream | frame.FlagEndHeaders})
	tr.Frame(conn, true, frame.Header{Type: frame.TypeHeaders, StreamID: 3, Flags: frame.FlagEndStream | frame.FlagEndHeaders})
	tr.Frame(conn, false, frame.Header{Type: frame.TypeData, StreamID: 1, Length: 100})
	tr.Frame(conn, false, frame.Header{Type: frame.TypeData, StreamID: 3, Length: 100, Flags: frame.FlagEndStream})
	tr.Frame(conn, false, frame.Header{Type: frame.TypeData, StreamID: 1, Length: 10, Flags: frame.FlagEndStream})
	end()
	tr.ConnClose(conn, "eof")

	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, target, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRenderSingleTrace(t *testing.T) {
	dir := t.TempDir()
	path := writeSampleTrace(t, dir, "one.example.jsonl", "one.example")

	var stdout, stderr bytes.Buffer
	if code := run([]string{path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	// The one view carries the header, the phase line and per-stream
	// tallies with the probe-phase tag and byte latencies.
	for _, want := range []string{
		"trace one.example: 9 events\n",
		"conn 1  open=yes close=yes  one.example",
		"frames=2/3 data=0/210B",
		"dial=- tls=- preface=- settle=- close=",
		"stream 1    [multiplexing]",
		"frames=1/2 data=0/110B first-byte=",
		"stream 3    [multiplexing]",
		"frames=1/1 data=0/100B first-byte=",
		"END_STREAM",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "events:") {
		t.Errorf("raw event log rendered without -events:\n%s", out)
	}

	// -events appends the raw log to the same view.
	var withEvents bytes.Buffer
	if code := run([]string{"-events", path}, &withEvents, &stderr); code != 0 {
		t.Fatalf("-events: exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.HasPrefix(withEvents.String(), out) {
		t.Errorf("-events output does not start with the default view:\n%s", withEvents.String())
	}
	for _, want := range []string{"events:\n", "== phase-start multiplexing ==", "<- DATA", "conn-close"} {
		if !strings.Contains(withEvents.String()[len(out):], want) {
			t.Errorf("-events dump missing %q:\n%s", want, withEvents.String())
		}
	}
}

// TestSpansFlagRemoved: the default view carries what -spans selected, so
// the flag is gone and is rejected like any unknown flag.
func TestSpansFlagRemoved(t *testing.T) {
	path := writeSampleTrace(t, t.TempDir(), "one.example.jsonl", "one.example")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-spans", path}, &stdout, &stderr); code != 2 {
		t.Errorf("-spans: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined: -spans") {
		t.Errorf("stderr = %q, want an unknown-flag error", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("-spans rendered output: %s", stdout.String())
	}
}

// TestOneViewForBothDirections renders the obs fixture — a server-direction
// conn (request HEADERS received, response sent) and a stream whose
// PRIORITY precedes its HEADERS by 20 ms: the two views this command used to
// ship disagreed on exactly these.
func TestOneViewForBothDirections(t *testing.T) {
	var stdout, stderr bytes.Buffer
	fixture := filepath.Join("..", "..", "internal", "obs", "testdata", "span_fixture.jsonl")
	if code := run([]string{fixture}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		// conn 3, server side: the response is what was sent.
		"stream 1    -                      +5.0ms     frames=2/1 data=2048/0B first-byte=4.0ms last-byte=6.0ms END_STREAM\n",
		// conn 4: measured from the HEADERS at +23 ms, not the PRIORITY at +3 ms.
		"stream 3    [priority]             +23.0ms    frames=2/2 data=0/300B first-byte=4.0ms last-byte=6.0ms END_STREAM\n",
		// conn 4: a PRIORITY-only tree node has tallies and no latency.
		"stream 5    [priority]             -          frames=1/0 data=0/0B first-byte=- last-byte=-\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "stream 0") {
		t.Errorf("the connection control stream rendered as a stream:\n%s", out)
	}
}

func TestMergeDirectory(t *testing.T) {
	dir := t.TempDir()
	writeSampleTrace(t, dir, "a.example.jsonl", "a.example")
	writeSampleTrace(t, dir, "b.example.jsonl", "b.example")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-merge", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"a.example.jsonl", "b.example.jsonl", "total (2 traces)"} {
		if !strings.Contains(out, want) {
			t.Errorf("merge output missing %q:\n%s", want, out)
		}
	}
	// Each trace is one conn with two request streams.
	if got := strings.Fields(strings.Split(out, "\n")[1]); len(got) != 8 || strings.Join(got[3:], " ") != "1 2 2 3 210" {
		t.Errorf("row a = %v, want conns 1, streams 2, sent 2, recv 3, bytes-recv 210", got)
	}
}

func TestErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := run([]string{"does-not-exist.jsonl"}, &stdout, &stderr); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}

	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte(`{"domain":"not-a-trace"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{bad}, &stdout, &stderr); code != 1 {
		t.Errorf("non-trace file: exit %d, want 1", code)
	}

	a := writeSampleTrace(t, dir, "a.jsonl", "a")
	b := writeSampleTrace(t, dir, "b.jsonl", "b")
	if code := run([]string{a, b}, &stdout, &stderr); code != 2 {
		t.Errorf("two files without -merge: exit %d, want 2", code)
	}
}
