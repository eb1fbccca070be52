// Package store persists scan results. The paper's H2Scope "stores the
// request and the response into a database for further study" (Section
// IV-B); the reproduction's equivalent is an append-only JSON-lines store
// of per-site probe reports, plus the one census aggregate (Tally) that a
// live scan, a re-read of a stored scan and the generator's ground truth all
// fill.
package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"h2scope/internal/core"
	"h2scope/internal/metrics"
	"h2scope/internal/scan"
)

// Record is one probed site's persisted result.
type Record struct {
	// Domain is the site's authority.
	Domain string `json:"domain"`
	// Epoch labels the measurement campaign (e.g. "1st Exp. (Jul 2016)").
	Epoch string `json:"epoch,omitempty"`
	// ServerName is the observed "server" header, duplicated out of the
	// report for grep and jq.
	ServerName string `json:"serverName,omitempty"`
	// Family is the site's server family, the series key of Figs. 4 and 5.
	// Files written before the field existed load with it empty.
	Family string `json:"family,omitempty"`
	// ScannedAt is when the probe battery ran.
	ScannedAt time.Time `json:"scannedAt"`
	// Report is the full H2Scope battery result; nil when the probe failed
	// before producing anything.
	Report *core.Report `json:"report"`
	// Outcome, ErrorKind, Error, and Attempts describe how the scan engine
	// fared: "ok" sites omit the error fields, failed sites keep their
	// classified kind so offline analysis can report coverage honestly.
	Outcome   string `json:"outcome,omitempty"`
	ErrorKind string `json:"errorKind,omitempty"`
	Error     string `json:"error,omitempty"`
	Attempts  int    `json:"attempts,omitempty"`
	// TraceFile points at the site's exported frame-level trace (JSONL,
	// rendered by cmd/h2trace) when the scan ran with tracing enabled.
	TraceFile string `json:"traceFile,omitempty"`
	// Stats marks a scan-summary trailer record: one per scan run, holding
	// the engine's final counter snapshot instead of a per-site report.
	Stats *scan.Stats `json:"stats,omitempty"`
	// Metrics, set only on stats trailers, embeds the run's final metrics
	// registry snapshot (the instruments the live /metrics endpoint
	// exposes), so offline analysis sees the process-level instruments too.
	Metrics []metrics.MetricSnapshot `json:"metrics,omitempty"`
}

// IsStatsTrailer reports whether the record is a scan-summary trailer
// rather than a per-site result.
func (r *Record) IsStatsTrailer() bool { return r.Stats != nil && r.Report == nil }

// Writer appends records to an underlying stream as JSON lines, each in one
// Write of its whole line: once Append returns the record is in the stream,
// and a census killed between two sites leaves only whole records behind. It
// is safe for concurrent use.
type Writer struct {
	mu   sync.Mutex
	w    io.Writer
	line bytes.Buffer
	enc  *json.Encoder // into line
}

// NewWriter returns a Writer appending to w.
func NewWriter(w io.Writer) *Writer {
	sw := &Writer{w: w}
	sw.enc = json.NewEncoder(&sw.line)
	return sw
}

// Append writes one record.
func (w *Writer) Append(rec *Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.line.Reset()
	if err := w.enc.Encode(rec); err != nil {
		return fmt.Errorf("store: encoding record for %s: %w", rec.Domain, err)
	}
	if _, err := w.w.Write(w.line.Bytes()); err != nil {
		return fmt.Errorf("store: writing record for %s: %w", rec.Domain, err)
	}
	return nil
}

// Read decodes a JSON-lines stream record by record, handing each to visit
// in stream order and keeping none.
func Read(r io.Reader, visit func(*Record)) error {
	dec := json.NewDecoder(r)
	for n := 0; ; n++ {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("store: decoding record %d: %w", n, err)
		}
		visit(&rec)
	}
}
