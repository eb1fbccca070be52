package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// sampleEvery is the span sampling rate of the traced pass: one op in this
// many records its spans.
const sampleEvery = 1024

// span is one timed interval of a sampled op. Spans of one op share Op
// ("c<client port>/s<stream id>", or "c<port>" for a whole connection);
// Parent names the enclosing span of the same op.
type span struct {
	Op      string `json:"op"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// SelfNS is the span's duration minus the part its children cover.
	SelfNS int64 `json:"self_ns"`
}

// spanLog collects spans in memory; they are written out when the
// benchmark ends, never during a run.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// opSpans is the tree of one sampled op before it is flattened.
type opSpans struct {
	op       string
	start    time.Time
	flushEnd time.Time // client.encode_write ends
	lastRead time.Time // the client Read that delivered END_STREAM returned
	end      time.Time
	busy     [][2]time.Time // server Read-return → Write-return
}

// add flattens one op into spans with self times:
//
//	op
//	├─ client.encode_write   start → flush return
//	├─ transport_server      flush return → last client Read return
//	│  └─ server.busy        each server Read-return → Write-return inside it
//	└─ client.read_decode    last client Read return → END_STREAM handled
func (l *spanLog) add(o opSpans) {
	rel := func(t time.Time) int64 { return int64(t.Sub(l.epoch)) }
	if o.lastRead.Before(o.flushEnd) {
		o.lastRead = o.flushEnd
	}
	if o.end.Before(o.lastRead) {
		o.end = o.lastRead
	}
	var busy int64
	out := make([]span, 0, 4+len(o.busy))
	for _, iv := range o.busy {
		a, b := iv[0], iv[1]
		if a.Before(o.flushEnd) {
			a = o.flushEnd
		}
		if b.After(o.lastRead) {
			b = o.lastRead
		}
		if !b.After(a) {
			continue
		}
		d := int64(b.Sub(a))
		busy += d
		out = append(out, span{Op: o.op, Name: "server.busy", Parent: "transport_server",
			StartNS: rel(a), EndNS: rel(b), SelfNS: d})
	}
	encode := int64(o.flushEnd.Sub(o.start))
	transport := int64(o.lastRead.Sub(o.flushEnd))
	decode := int64(o.end.Sub(o.lastRead))
	total := int64(o.end.Sub(o.start))
	out = append(out,
		span{Op: o.op, Name: "op", StartNS: rel(o.start), EndNS: rel(o.end),
			SelfNS: total - encode - transport - decode},
		span{Op: o.op, Name: "client.encode_write", Parent: "op",
			StartNS: rel(o.start), EndNS: rel(o.flushEnd), SelfNS: encode},
		span{Op: o.op, Name: "transport_server", Parent: "op",
			StartNS: rel(o.flushEnd), EndNS: rel(o.lastRead), SelfNS: transport - busy},
		span{Op: o.op, Name: "client.read_decode", Parent: "op",
			StartNS: rel(o.lastRead), EndNS: rel(o.end), SelfNS: decode},
	)
	l.mu.Lock()
	l.spans = append(l.spans, out...)
	l.mu.Unlock()
}

// addConn records a sampled conn_churn op: the whole connection with its
// set-up and teardown as children; the requests in between are its self
// time.
func (l *spanLog) addConn(op string, start, ready, teardown, end time.Time) {
	rel := func(t time.Time) int64 { return int64(t.Sub(l.epoch)) }
	setup, down := int64(ready.Sub(start)), int64(end.Sub(teardown))
	l.mu.Lock()
	l.spans = append(l.spans,
		span{Op: op, Name: "conn", StartNS: rel(start), EndNS: rel(end),
			SelfNS: int64(end.Sub(start)) - setup - down},
		span{Op: op, Name: "conn.dial_handshake", Parent: "conn",
			StartNS: rel(start), EndNS: rel(ready), SelfNS: setup},
		span{Op: op, Name: "conn.teardown", Parent: "conn",
			StartNS: rel(teardown), EndNS: rel(end), SelfNS: down},
	)
	l.mu.Unlock()
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// writeFile writes the spans as JSON lines to dir/trace-<workload>.jsonl.
func (l *spanLog) writeFile(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span output dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span output: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			_ = f.Close()
			return "", fmt.Errorf("span output: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return "", fmt.Errorf("span output: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("span output: %w", err)
	}
	return path, nil
}
