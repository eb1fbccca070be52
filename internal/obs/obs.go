// Package obs is the reproduction's causal-observability layer: it folds
// the frame-level trace bus (internal/trace) into per-connection and
// per-stream *phase spans* — dial → TLS handshake → preface → SETTINGS
// settle → per-stream first/last byte → GOAWAY/close — and feeds the
// derived latencies into the metrics registry (internal/metrics).
//
// The paper's findings all reduce to where time goes and in what order
// frames arrive (multiplexing interleave Section III-A, priority ordering
// Section III-C, PING RTT Section III-F), but raw events and aggregate
// counters cannot answer "for this slow target, was it the dial, the TLS
// handshake, the SETTINGS settle, or server think-time?". The span builder
// here answers exactly that, from the same event stream every other
// consumer (JSONL export, the attack detector) reads. It is the only fold
// of that stream: h2trace, the flight recorder, the monitor and the
// dashboard all read its records, so the CLI and live paths cannot drift.
//
// Three artifacts ride on the builder: per-phase latency histograms with
// slow-sample exemplars (monitor.go), a bounded anomaly flight recorder
// that turns triggers into JSONL forensic dumps (flightrec.go), and a live
// run dashboard served from the -debug-addr mux (dashboard.go).
package obs

import (
	"fmt"
	"io"
	"sort"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/trace"
)

// Phase names, in causal order. Dial and TLS come from trace.Region pairs
// emitted by the dial path; the rest are derived from frame orderings.
const (
	// PhaseDial spans the transport dial (TCP connect), from the region the
	// prober opens around Dialer.Dial.
	PhaseDial = "dial"
	// PhaseTLS spans the TLS handshake + ALPN negotiation region.
	PhaseTLS = "tls"
	// PhasePreface spans connection open to the first non-ACK SETTINGS
	// written — how long the local endpoint took to start talking HTTP/2.
	PhasePreface = "preface"
	// PhaseSettle spans the first non-ACK SETTINGS written to the first
	// non-ACK SETTINGS read — the SETTINGS exchange settling time.
	PhaseSettle = "settle"
	// PhaseFirstByte spans a stream's request HEADERS to the first
	// response-direction HEADERS/DATA on that stream.
	PhaseFirstByte = "first-byte"
	// PhaseLastByte spans a stream's request HEADERS to its last
	// response-direction DATA frame.
	PhaseLastByte = "last-byte"
	// PhaseClose spans the first GOAWAY (either direction, falling back to
	// the last frame) to connection close.
	PhaseClose = "close"
)

// Phases returns every phase name in causal order — the iteration order for
// histogram registration, dashboards, and rendered span tables.
func Phases() []string {
	return []string{PhaseDial, PhaseTLS, PhasePreface, PhaseSettle, PhaseFirstByte, PhaseLastByte, PhaseClose}
}

// Tallies counts frames and DATA payload bytes in each direction, for one
// stream or for a whole connection (stream 0 included).
type Tallies struct {
	FramesSent int   `json:"framesSent,omitempty"`
	FramesRecv int   `json:"framesRecv,omitempty"`
	BytesSent  int64 `json:"bytesSent,omitempty"`
	BytesRecv  int64 `json:"bytesRecv,omitempty"`
}

// add counts one frame event.
func (t *Tallies) add(sent bool, ev trace.Event) {
	if sent {
		t.FramesSent++
	} else {
		t.FramesRecv++
	}
	if ev.FrameType == frame.TypeData {
		if sent {
			t.BytesSent += int64(ev.Length)
		} else {
			t.BytesRecv += int64(ev.Length)
		}
	}
}

// StreamPhases is the per-stream slice of a connection's causal span.
type StreamPhases struct {
	// StreamID identifies the stream.
	StreamID uint32 `json:"stream"`
	// Phase is the probe phase active when the stream's first frame fired.
	Phase string `json:"phase,omitempty"`
	// Request is when the stream's first HEADERS fired (the request going
	// out on a client trace, coming in on a server trace). It is zero for a
	// stream with no HEADERS in the window — a PRIORITY-only node of the
	// paper's Section III-C tree, or DATA whose HEADERS fell out of the
	// ring — and such a stream carries tallies but no latency.
	Request time.Time `json:"request,omitzero"`
	// FirstByte is the request→first-response-byte latency (0 if no
	// response-direction HEADERS/DATA was seen).
	FirstByte time.Duration `json:"firstByteNs"`
	// LastByte is the request→last-response-DATA latency (0 if no
	// response-direction DATA was seen).
	LastByte time.Duration `json:"lastByteNs"`
	// Tallies covers every frame on the stream, before the request too.
	Tallies
	// EndStream reports END_STREAM on a response-direction frame; Reset
	// reports a RST_STREAM in either direction.
	EndStream bool `json:"endStream,omitempty"`
	Reset     bool `json:"reset,omitempty"`
}

// ConnPhases is one connection's reconstructed causal span: lifecycle
// bounds plus one duration per connection-level phase and a nested span
// per stream. A zero duration means the phase was not observed.
type ConnPhases struct {
	// Conn is the connection's trace ID.
	Conn uint64 `json:"conn"`
	// Opened and Closed report whether the lifecycle events were seen.
	Opened bool `json:"opened"`
	Closed bool `json:"closed"`
	// Detail carries the ConnOpen annotation (dialed address/authority).
	Detail string `json:"detail,omitempty"`
	// First and Last bound every event attributed to the connection.
	First time.Time `json:"first"`
	Last  time.Time `json:"last"`
	// Dial, TLS, Preface, Settle, and Close are the connection-level phase
	// durations (see the Phase* constants).
	Dial    time.Duration `json:"dialNs,omitempty"`
	TLS     time.Duration `json:"tlsNs,omitempty"`
	Preface time.Duration `json:"prefaceNs,omitempty"`
	Settle  time.Duration `json:"settleNs,omitempty"`
	Close   time.Duration `json:"closeNs,omitempty"`
	// Tallies covers every frame on the connection; Errors counts error
	// events attributed to it.
	Tallies
	Errors int `json:"errors,omitempty"`
	// Streams holds the per-stream spans, ordered by stream ID.
	Streams []StreamPhases `json:"streams,omitempty"`
}

// Phase returns the named connection-level phase duration (0 for stream
// phases and unknown names — those live on StreamPhases).
func (c *ConnPhases) Phase(name string) time.Duration {
	switch name {
	case PhaseDial:
		return c.Dial
	case PhaseTLS:
		return c.TLS
	case PhasePreface:
		return c.Preface
	case PhaseSettle:
		return c.Settle
	case PhaseClose:
		return c.Close
	default:
		return 0
	}
}

// Duration is the wall time between the connection's first and last events.
func (c *ConnPhases) Duration() time.Duration { return c.Last.Sub(c.First) }

// preConnRegion reports whether a region name is a pre-connection phase a
// dialer may emit before connection identity exists (conn 0). Probe-phase
// events (tracer-global Phase markers) also carry conn 0 but use battery
// names ("settings", "priority", ...), never these.
func preConnRegion(name string) bool { return name == PhaseDial || name == PhaseTLS }

// connState accumulates one connection's evidence while events stream in.
type connState struct {
	c           ConnPhases
	openAt      time.Time
	firstFrame  time.Time
	sentSet     time.Time // first non-ACK SETTINGS written
	recvSet     time.Time // first non-ACK SETTINGS read
	goawayAt    time.Time
	lastFrame   time.Time
	closeAt     time.Time
	regions     map[string]time.Time // open Region starts by name
	streams     map[uint32]*streamState
	streamOrder []uint32
}

// streamState accumulates one stream's evidence.
type streamState struct {
	s StreamPhases
	// respRecv is true when the response direction is "received" (the
	// request HEADERS was sent by the traced endpoint — a client trace).
	respRecv bool
}

// Builder folds a trace event stream into ConnPhases incrementally. Feed
// events in emit order (Snapshot and Subscription both deliver that); call
// Finish for the remaining connections. Builder is not safe for concurrent
// use — each consumer owns one.
type Builder struct {
	conns map[uint64]*connState
	order []uint64

	// pendingStart holds conn-0 pre-connection region starts; pendingDur
	// holds completed conn-0 regions awaiting the next ConnOpen, which they
	// are attributed to (a dialer's TLS handshake finishes before the
	// connection has an identity).
	pendingStart map[string]time.Time
	pendingDur   map[string]time.Duration

	// OnConn, when set, receives each connection's finalized span as its
	// ConnClose event streams through — the live-path hook (Monitor.Watch).
	// Connections that never close are delivered by Finish.
	OnConn func(ConnPhases)
}

// NewBuilder returns an empty span builder.
func NewBuilder() *Builder {
	return &Builder{
		conns:        make(map[uint64]*connState),
		pendingStart: make(map[string]time.Time),
		pendingDur:   make(map[string]time.Duration),
	}
}

// conn returns (creating if needed) the state for id, folding at into its
// event bounds.
func (b *Builder) conn(id uint64, at time.Time) *connState {
	cs := b.conns[id]
	if cs == nil {
		cs = &connState{
			c:       ConnPhases{Conn: id, First: at, Last: at},
			regions: make(map[string]time.Time),
			streams: make(map[uint32]*streamState),
		}
		b.conns[id] = cs
		b.order = append(b.order, id)
	}
	if at.Before(cs.c.First) {
		cs.c.First = at
	}
	if at.After(cs.c.Last) {
		cs.c.Last = at
	}
	return cs
}

// Feed folds one event into the builder.
func (b *Builder) Feed(ev trace.Event) {
	switch ev.Kind {
	case trace.KindPhaseStart:
		if !preConnRegion(ev.Phase) {
			return
		}
		if ev.Conn == 0 {
			b.pendingStart[ev.Phase] = ev.At
			return
		}
		b.conn(ev.Conn, ev.At).regions[ev.Phase] = ev.At

	case trace.KindPhaseEnd:
		if !preConnRegion(ev.Phase) {
			return
		}
		if ev.Conn == 0 {
			if start, ok := b.pendingStart[ev.Phase]; ok {
				delete(b.pendingStart, ev.Phase)
				b.pendingDur[ev.Phase] = ev.At.Sub(start)
			}
			return
		}
		cs := b.conn(ev.Conn, ev.At)
		if start, ok := cs.regions[ev.Phase]; ok {
			delete(cs.regions, ev.Phase)
			cs.setRegion(ev.Phase, ev.At.Sub(start))
		}

	case trace.KindConnOpen:
		cs := b.conn(ev.Conn, ev.At)
		cs.c.Opened = true
		cs.openAt = ev.At
		if cs.c.Detail == "" {
			cs.c.Detail = ev.Detail
		}
		// Claim completed pre-connection regions: the dialer that emitted
		// them was establishing this connection.
		for name, d := range b.pendingDur {
			if cs.c.Phase(name) == 0 {
				cs.setRegion(name, d)
			}
			delete(b.pendingDur, name)
		}

	case trace.KindConnClose:
		cs := b.conn(ev.Conn, ev.At)
		cs.c.Closed = true
		cs.closeAt = ev.At
		if b.OnConn != nil {
			b.OnConn(b.finalize(cs))
			delete(b.conns, ev.Conn)
			for i, id := range b.order {
				if id == ev.Conn {
					b.order = append(b.order[:i], b.order[i+1:]...)
					break
				}
			}
		}

	case trace.KindError:
		if ev.Conn != 0 {
			b.conn(ev.Conn, ev.At).c.Errors++
		}

	case trace.KindFrameSent, trace.KindFrameRecv:
		cs := b.conn(ev.Conn, ev.At)
		if cs.firstFrame.IsZero() {
			cs.firstFrame = ev.At
		}
		cs.lastFrame = ev.At
		sent := ev.Kind == trace.KindFrameSent
		cs.c.add(sent, ev)
		switch ev.FrameType {
		case frame.TypeSettings:
			if !ev.Flags.Has(frame.FlagAck) {
				if sent && cs.sentSet.IsZero() {
					cs.sentSet = ev.At
				}
				if !sent && cs.recvSet.IsZero() {
					cs.recvSet = ev.At
				}
			}
		case frame.TypeGoAway:
			if cs.goawayAt.IsZero() {
				cs.goawayAt = ev.At
			}
		}
		if ev.StreamID != 0 {
			b.feedStream(cs, ev, sent)
		}
	}
}

// setRegion stores a completed dial/tls region duration.
func (cs *connState) setRegion(name string, d time.Duration) {
	if d < 0 {
		d = 0
	}
	switch name {
	case PhaseDial:
		if cs.c.Dial == 0 {
			cs.c.Dial = d
		}
	case PhaseTLS:
		if cs.c.TLS == 0 {
			cs.c.TLS = d
		}
	}
}

// feedStream folds a non-zero-stream frame event into its stream span.
func (b *Builder) feedStream(cs *connState, ev trace.Event, sent bool) {
	ss := cs.streams[ev.StreamID]
	if ss == nil {
		ss = &streamState{s: StreamPhases{StreamID: ev.StreamID, Phase: ev.Phase}}
		cs.streams[ev.StreamID] = ss
		cs.streamOrder = append(cs.streamOrder, ev.StreamID)
	}
	ss.s.add(sent, ev)
	if ev.FrameType == frame.TypeRSTStream {
		ss.s.Reset = true
	}
	// The stream's clock starts at its first HEADERS — the request. Until
	// then (and for good, when the HEADERS predates the ring window or the
	// stream is a PRIORITY-only tree node) frames are tallied only: without
	// the request landmark the latencies would be fiction.
	if ss.s.Request.IsZero() {
		if ev.FrameType == frame.TypeHeaders {
			ss.s.Request = ev.At
			ss.respRecv = sent
		}
		return
	}
	// Response direction is the opposite of the request HEADERS' direction.
	if sent == ss.respRecv {
		return
	}
	if ev.StreamEnded() {
		ss.s.EndStream = true
	}
	switch ev.FrameType {
	case frame.TypeHeaders, frame.TypeData:
		if ss.s.FirstByte == 0 {
			ss.s.FirstByte = ev.At.Sub(ss.s.Request)
		}
		if ev.FrameType == frame.TypeData {
			ss.s.LastByte = ev.At.Sub(ss.s.Request)
		}
	}
}

// finalize derives the remaining phases for one connection and returns its
// completed span.
func (b *Builder) finalize(cs *connState) ConnPhases {
	c := cs.c
	// Preface: connection identity (open, else first frame) to the first
	// non-ACK SETTINGS written.
	anchor := cs.openAt
	if anchor.IsZero() {
		anchor = cs.firstFrame
	}
	if !cs.sentSet.IsZero() && !anchor.IsZero() {
		if d := cs.sentSet.Sub(anchor); d > 0 {
			c.Preface = d
		}
	}
	// Settle: SETTINGS written to SETTINGS read. A peer that spoke first
	// settles in zero time.
	if !cs.sentSet.IsZero() && !cs.recvSet.IsZero() {
		if d := cs.recvSet.Sub(cs.sentSet); d > 0 {
			c.Settle = d
		}
	}
	// Close: GOAWAY (else last frame) to ConnClose.
	if !cs.closeAt.IsZero() {
		from := cs.goawayAt
		if from.IsZero() {
			from = cs.lastFrame
		}
		if !from.IsZero() {
			if d := cs.closeAt.Sub(from); d > 0 {
				c.Close = d
			}
		}
	}
	c.Streams = make([]StreamPhases, 0, len(cs.streamOrder))
	for _, id := range cs.streamOrder {
		c.Streams = append(c.Streams, cs.streams[id].s)
	}
	sort.Slice(c.Streams, func(i, j int) bool { return c.Streams[i].StreamID < c.Streams[j].StreamID })
	return c
}

// Finish finalizes and returns every connection still held by the builder
// (those whose ConnClose was not seen, or all of them when OnConn is
// unset), ordered by connection ID. The builder is reusable afterwards for
// a fresh event stream.
func (b *Builder) Finish() []ConnPhases {
	out := make([]ConnPhases, 0, len(b.order))
	for _, id := range b.order {
		out = append(out, b.finalize(b.conns[id]))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Conn < out[j].Conn })
	b.conns = make(map[uint64]*connState)
	b.order = nil
	b.pendingStart = make(map[string]time.Time)
	b.pendingDur = make(map[string]time.Duration)
	return out
}

// BuildConns folds a complete event stream (a Snapshot, or trace.Read
// output) into per-connection phase spans — the batch entry point shared by
// h2trace, the flight recorder's dump summaries, and the census monitor.
func BuildConns(events []trace.Event) []ConnPhases {
	b := NewBuilder()
	for _, ev := range events {
		b.Feed(ev)
	}
	return b.Finish()
}

// fmtDur renders a duration compactly for span tables ("-" when the phase
// was not observed).
func fmtDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// yesNo renders a lifecycle flag.
func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// RenderConns writes the human-readable per-connection breakdown of a
// trace — the body of the h2trace view: one line per connection (lifecycle,
// frames and DATA bytes sent/recv), its phase chain, and one line per stream
// with the probe phase it opened under, its request offset from the
// connection's first event, sent/recv tallies and first/last-byte latencies
// ("-" where the stream has no request landmark).
func RenderConns(w io.Writer, conns []ConnPhases) {
	for i := range conns {
		c := &conns[i]
		fmt.Fprintf(w, "conn %d  open=%s close=%s", c.Conn, yesNo(c.Opened), yesNo(c.Closed))
		if c.Detail != "" {
			fmt.Fprintf(w, "  %s", c.Detail)
		}
		fmt.Fprintf(w, "  total=%s  frames=%d/%d data=%d/%dB",
			fmtDur(c.Duration()), c.FramesSent, c.FramesRecv, c.BytesSent, c.BytesRecv)
		if c.Errors > 0 {
			fmt.Fprintf(w, " errors=%d", c.Errors)
		}
		fmt.Fprintf(w, "\n  dial=%s tls=%s preface=%s settle=%s close=%s\n",
			fmtDur(c.Dial), fmtDur(c.TLS), fmtDur(c.Preface), fmtDur(c.Settle), fmtDur(c.Close))
		for _, s := range c.Streams {
			phase, at := "-", "-"
			if s.Phase != "" {
				phase = "[" + s.Phase + "]"
			}
			if !s.Request.IsZero() {
				at = "+" + fmtDur(s.Request.Sub(c.First))
			}
			fmt.Fprintf(w, "  stream %-4d %-22s %-10s frames=%d/%d data=%d/%dB first-byte=%s last-byte=%s",
				s.StreamID, phase, at, s.FramesSent, s.FramesRecv, s.BytesSent, s.BytesRecv,
				fmtDur(s.FirstByte), fmtDur(s.LastByte))
			switch {
			case s.Reset:
				fmt.Fprintf(w, " RESET")
			case s.EndStream:
				fmt.Fprintf(w, " END_STREAM")
			}
			fmt.Fprintf(w, "\n")
		}
	}
}
