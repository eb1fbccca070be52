package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"h2scope/internal/frame"
)

// The export format is JSONL, matching internal/store's record stream: one
// header object on the first line, then one object per event. Event times
// are nanoseconds relative to the trace start, so traces diff cleanly and
// never leak wall-clock skew into analysis.

// fileHeader is the first line of an exported trace.
type fileHeader struct {
	Trace    string    `json:"trace"`
	Target   string    `json:"target,omitempty"`
	Start    time.Time `json:"start"`
	Events   uint64    `json:"events"`
	Dropped  uint64    `json:"dropped"`
	Capacity int       `json:"capacity"`
}

// headerMagic identifies a trace stream (vs. a store record stream).
const headerMagic = "h2scope"

// eventLine is the wire form of one event.
type eventLine struct {
	Seq    uint64 `json:"seq"`
	T      int64  `json:"t"` // nanoseconds since trace start
	Kind   string `json:"kind"`
	Conn   uint64 `json:"conn,omitempty"`
	Phase  string `json:"phase,omitempty"`
	Stream uint32 `json:"stream,omitempty"`
	FType  uint8  `json:"ft,omitempty"`
	Flags  uint8  `json:"flags,omitempty"`
	Len    int    `json:"len,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Data is a trace read back from (or about to be written to) its JSONL
// form: the header metadata plus the event stream in Seq order.
type Data struct {
	Target   string
	Start    time.Time
	Emitted  uint64
	Dropped  uint64
	Capacity int
	Events   []Event
}

// Write exports the tracer's current snapshot as JSONL. target names the
// traced unit (a scanned domain) in the header line.
func Write(w io.Writer, target string, t *Tracer) error {
	events := t.Snapshot()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(fileHeader{
		Trace:    headerMagic,
		Target:   target,
		Start:    t.Start(),
		Events:   t.Emitted(),
		Dropped:  t.Dropped(),
		Capacity: t.Capacity(),
	}); err != nil {
		return err
	}
	start := t.Start()
	for _, ev := range events {
		if err := enc.Encode(eventLine{
			Seq:    ev.Seq,
			T:      ev.At.Sub(start).Nanoseconds(),
			Kind:   ev.Kind.String(),
			Conn:   ev.Conn,
			Phase:  ev.Phase,
			Stream: ev.StreamID,
			FType:  uint8(ev.FrameType),
			Flags:  uint8(ev.Flags),
			Len:    ev.Length,
			Detail: ev.Detail,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile exports the tracer's snapshot as <dir>/<target>.jsonl, with every
// character of target outside [A-Za-z0-9._-] (the colon of host:port, say)
// mapped to '_', and returns the path it wrote.
func WriteFile(dir, target string, t *Tracer) (string, error) {
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, target)
	if name == "" {
		name = "trace"
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := Write(f, target, t); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}

// Read parses a JSONL trace back into memory. Event At values are
// reconstructed as Start plus the stored relative offset.
func Read(r io.Reader) (*Data, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("trace: empty input")
	}
	var hdr fileHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("trace: bad header line: %w", err)
	}
	if hdr.Trace != headerMagic {
		return nil, fmt.Errorf("trace: not a trace file (header %q)", hdr.Trace)
	}
	d := &Data{
		Target:   hdr.Target,
		Start:    hdr.Start,
		Emitted:  hdr.Events,
		Dropped:  hdr.Dropped,
		Capacity: hdr.Capacity,
	}
	line := 1
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var el eventLine
		if err := json.Unmarshal(sc.Bytes(), &el); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		d.Events = append(d.Events, Event{
			Seq:       el.Seq,
			At:        hdr.Start.Add(time.Duration(el.T)),
			Kind:      KindFromString(el.Kind),
			Conn:      el.Conn,
			Phase:     el.Phase,
			StreamID:  el.Stream,
			FrameType: frame.Type(el.FType),
			Flags:     frame.Flags(el.Flags),
			Length:    el.Len,
			Detail:    el.Detail,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return d, nil
}
