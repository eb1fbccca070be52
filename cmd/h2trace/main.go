// Command h2trace renders exported frame-level traces (the JSONL files a
// scan writes with -trace, or h2server's live ring from -debug-addr's
// /trace.jsonl) as human-readable per-connection breakdowns.
//
// Single-file mode renders one trace in full: a header line, then for each
// connection its totals, its dial → TLS → preface → settle → close phase
// chain, and one line per stream with its probe-phase annotation, frame and
// byte tallies and first/last-byte latencies (the same fold the span
// monitor behind the dashboard uses), and (with -events) the raw event log.
//
//	h2trace traces/site-000001.example.jsonl
//	h2trace -events traces/site-000001.example.jsonl
//	curl -s http://127.0.0.1:8081/trace.jsonl | h2trace /dev/stdin
//
// -merge summarizes many traces (files and/or directories of *.jsonl) as
// one table, one row per trace:
//
//	h2trace -merge traces/
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"h2scope/internal/obs"
	"h2scope/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("h2trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	merge := fs.Bool("merge", false, "summarize many traces as one table")
	events := fs.Bool("events", false, "also dump the raw event log (single-trace mode)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: h2trace [-events] <trace.jsonl>\n")
		fmt.Fprintf(stderr, "       h2trace -merge <trace.jsonl|dir> ...\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	paths, err := expandArgs(fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "h2trace: %v\n", err)
		return 1
	}
	if len(paths) == 0 {
		fs.Usage()
		return 2
	}

	if *merge {
		rows := make([]trace.MergeRow, 0, len(paths))
		for _, path := range paths {
			d, err := readTrace(path)
			if err != nil {
				fmt.Fprintf(stderr, "h2trace: %v\n", err)
				return 1
			}
			rows = append(rows, summarize(filepath.Base(path), d))
		}
		fmt.Fprint(stdout, trace.RenderMerge(rows))
		return 0
	}

	if len(paths) != 1 {
		fmt.Fprintf(stderr, "h2trace: single-trace mode takes exactly one file (use -merge for many)\n")
		return 2
	}
	d, err := readTrace(paths[0])
	if err != nil {
		fmt.Fprintf(stderr, "h2trace: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, trace.RenderHeader(d))
	obs.RenderConns(stdout, obs.BuildConns(d.Events))
	if *events {
		fmt.Fprintf(stdout, "\n%s", trace.RenderEvents(d))
	}
	return 0
}

// summarize folds one trace into its -merge row through obs.BuildConns, the
// same fold the single-trace view prints.
func summarize(name string, d *trace.Data) trace.MergeRow {
	conns := obs.BuildConns(d.Events)
	row := trace.MergeRow{Name: name, Events: len(d.Events), Dropped: d.Dropped, Conns: len(conns)}
	for _, c := range conns {
		row.Streams += len(c.Streams)
		row.FramesSent += c.FramesSent
		row.FramesRecv += c.FramesRecv
		row.BytesRecv += c.BytesRecv
	}
	return row
}

// expandArgs resolves each argument to trace files: files pass through,
// directories contribute their *.jsonl entries (sorted).
func expandArgs(args []string) ([]string, error) {
	var paths []string
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			paths = append(paths, arg)
			continue
		}
		entries, err := os.ReadDir(arg)
		if err != nil {
			return nil, err
		}
		var found []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".jsonl") {
				found = append(found, filepath.Join(arg, e.Name()))
			}
		}
		if len(found) == 0 {
			return nil, fmt.Errorf("no *.jsonl traces in %s", arg)
		}
		sort.Strings(found)
		paths = append(paths, found...)
	}
	return paths, nil
}

func readTrace(path string) (*trace.Data, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := trace.Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}
