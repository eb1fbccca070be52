package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"h2scope/internal/metrics"
	"h2scope/internal/trace"
)

// The recorder's bounds: one dump retains the last flightTail events, one
// recorder writes at most flightMaxDumps dumps over its lifetime, and a
// trigger arriving sooner than flightMinInterval after the previous dump is
// suppressed (and counted).
const (
	flightTail        = 256
	flightMaxDumps    = 32
	flightMinInterval = time.Second
)

// FlightRecorderConfig configures a FlightRecorder. Only Dir is required.
type FlightRecorderConfig struct {
	// Dir is the directory anomaly dumps are written into (created if
	// needed).
	Dir string
	// Registry, when set, exports h2_flightrec_dumps_total and
	// h2_flightrec_suppressed_total counters there.
	Registry *metrics.Registry
	// Clock overrides the rate-limit clock (default time.Now). No program
	// sets it: the rate-limit and cap tests step it.
	Clock func() time.Time
}

// dumpRef is one dump's manifest entry.
type dumpRef struct {
	File   string    `json:"file"`
	Reason string    `json:"reason"`
	Target string    `json:"target,omitempty"`
	At     time.Time `json:"at"`
	Events int       `json:"events"`
}

// FlightRecorder turns anomalies into bounded JSONL forensic dumps: the
// last flightTail trace events plus the reconstructed span summary, one file per
// trigger, rate-limited and capped so a 12-hour census that goes sideways
// leaves evidence without filling the disk. All methods are safe for
// concurrent use.
type FlightRecorder struct {
	cfg FlightRecorderConfig

	dumpsC      *metrics.Counter
	suppressedC *metrics.Counter

	mu       sync.Mutex
	seq      int
	lastDump time.Time
	refs     []dumpRef
	closed   bool
}

// NewFlightRecorder builds a recorder writing into cfg.Dir, creating the
// directory if needed.
func NewFlightRecorder(cfg FlightRecorderConfig) (*FlightRecorder, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("obs: flight recorder needs a directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: flight recorder dir: %w", err)
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &FlightRecorder{
		cfg: cfg,
		dumpsC: cfg.Registry.Counter("h2_flightrec_dumps_total",
			"anomaly dumps the flight recorder wrote"),
		suppressedC: cfg.Registry.Counter("h2_flightrec_suppressed_total",
			"anomaly triggers suppressed by the flight recorder's rate limit or dump cap"),
	}, nil
}

// Dumps returns how many dumps were written.
func (r *FlightRecorder) Dumps() int64 { return r.dumpsC.Value() }

// Suppressed returns how many triggers were suppressed by the rate limit
// or the dump cap.
func (r *FlightRecorder) Suppressed() int64 { return r.suppressedC.Value() }

// dumpHeader is the first line of one dump file.
type dumpHeader struct {
	Flightrec string    `json:"flightrec"`
	Reason    string    `json:"reason"`
	Target    string    `json:"target,omitempty"`
	Conn      uint64    `json:"conn,omitempty"`
	Phase     string    `json:"phase,omitempty"`
	At        time.Time `json:"at"`
	Events    int       `json:"events"`
	Truncated bool      `json:"truncated,omitempty"`
}

// dumpEvent is the wire form of one dumped event (times are absolute; the
// events already carry monotonic-consistent stamps from one process).
type dumpEvent struct {
	Seq    uint64    `json:"seq"`
	At     time.Time `json:"at"`
	Kind   string    `json:"kind"`
	Conn   uint64    `json:"conn,omitempty"`
	Phase  string    `json:"phase,omitempty"`
	Stream uint32    `json:"stream,omitempty"`
	FType  uint8     `json:"ft,omitempty"`
	Flags  uint8     `json:"flags,omitempty"`
	Len    int       `json:"len,omitempty"`
	Detail string    `json:"detail,omitempty"`
}

// safeFileFragment maps a trigger reason onto file-name-safe characters.
func safeFileFragment(s string) string {
	out := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}, s)
	if len(out) > 48 {
		out = out[:48]
	}
	if out == "" {
		out = "anomaly"
	}
	return out
}

// Dump writes one anomaly dump: a header line, one span-summary line per
// reconstructed connection, then the last flightTail events, all JSONL. It
// returns the written file's path, or "" when the trigger was suppressed
// (rate limit, dump cap, or recorder already closed) — suppression is not
// an error. The error return reports I/O failures and must not be
// discarded: a dropped Dump error means the forensic evidence for an
// anomaly silently never hit the disk.
func (r *FlightRecorder) Dump(a Anomaly, events []trace.Event) (string, error) {
	now := r.cfg.Clock()
	if a.At.IsZero() {
		a.At = now
	}

	r.mu.Lock()
	if r.closed || r.seq >= flightMaxDumps ||
		(!r.lastDump.IsZero() && now.Sub(r.lastDump) < flightMinInterval) {
		r.mu.Unlock()
		r.suppressedC.Inc()
		return "", nil
	}
	r.seq++
	seq := r.seq
	r.lastDump = now
	r.mu.Unlock()

	// Span summary over the full provided stream; the event tail is bounded
	// separately so the summary stays complete even when events are cut.
	conns := BuildConns(events)
	tail := events
	truncated := false
	if len(tail) > flightTail {
		tail = tail[len(tail)-flightTail:]
		truncated = true
	}

	name := fmt.Sprintf("anomaly-%03d-%s.jsonl", seq, safeFileFragment(a.Reason))
	path := filepath.Join(r.cfg.Dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("obs: flight dump: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	werr := enc.Encode(dumpHeader{
		Flightrec: "h2scope-anomaly",
		Reason:    a.Reason,
		Target:    a.Target,
		Conn:      a.Conn,
		Phase:     a.Phase,
		At:        a.At,
		Events:    len(tail),
		Truncated: truncated,
	})
	for i := range conns {
		if werr != nil {
			break
		}
		werr = enc.Encode(struct {
			Span *ConnPhases `json:"span"`
		}{&conns[i]})
	}
	for _, ev := range tail {
		if werr != nil {
			break
		}
		werr = enc.Encode(struct {
			Event dumpEvent `json:"event"`
		}{dumpEvent{
			Seq:    ev.Seq,
			At:     ev.At,
			Kind:   ev.Kind.String(),
			Conn:   ev.Conn,
			Phase:  ev.Phase,
			Stream: ev.StreamID,
			FType:  uint8(ev.FrameType),
			Flags:  uint8(ev.Flags),
			Len:    ev.Length,
			Detail: ev.Detail,
		}})
	}
	if werr == nil {
		werr = bw.Flush()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", fmt.Errorf("obs: flight dump %s: %w", name, werr)
	}

	r.dumpsC.Inc()
	r.mu.Lock()
	r.refs = append(r.refs, dumpRef{File: name, Reason: a.Reason, Target: a.Target, At: a.At, Events: len(tail)})
	r.mu.Unlock()
	return path, nil
}

// Close seals the recorder: further triggers are suppressed, and a
// manifest.json indexing every dump (plus the suppression count) is
// written so a post-mortem can enumerate the evidence without globbing.
// The error return must not be discarded — a dropped Close error hides a
// manifest that never made it to disk.
func (r *FlightRecorder) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	refs := make([]dumpRef, len(r.refs))
	copy(refs, r.refs)
	r.mu.Unlock()

	manifest := struct {
		Flightrec  string    `json:"flightrec"`
		WrittenAt  time.Time `json:"writtenAt"`
		Dumps      []dumpRef `json:"dumps"`
		Suppressed int64     `json:"suppressed"`
		Tail       int       `json:"tail"`
		MaxDumps   int       `json:"maxDumps"`
	}{"h2scope-manifest", r.cfg.Clock(), refs, r.Suppressed(), flightTail, flightMaxDumps}
	data, err := json.MarshalIndent(manifest, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: flight manifest: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(filepath.Join(r.cfg.Dir, "manifest.json"), data, 0o644); err != nil {
		return fmt.Errorf("obs: flight manifest: %w", err)
	}
	return nil
}
