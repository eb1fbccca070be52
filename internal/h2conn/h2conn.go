// Package h2conn provides the client-side HTTP/2 connection H2Scope probes
// run over.
//
// Unlike a general-purpose HTTP/2 client, this connection exposes raw frame
// control — custom SETTINGS, zero or overflowing WINDOW_UPDATEs,
// self-dependent PRIORITY frames — and records every received frame in an
// ordered event log that probes read through Wait: a match function shown
// each event once, in arrival order, and AwaitReaction, the one place that
// concludes a peer did not react. The paper's methodology (Section III)
// is entirely about sending frame sequences a normal client never would and
// classifying the server's frame-level reaction, so the event log is the
// central artifact.
//
// The log records every DATA frame by its length (Event.DataLen). Its bytes
// are kept too (Event.Data, Response.Body) unless Options.DiscardData is set,
// as it is on the probe battery's connections: no probe verdict reads a
// payload byte, only how many arrived.
package h2conn

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/hpack"
	"h2scope/internal/trace"
)

// ErrTimeout is returned by the waits when no event matched in time.
var ErrTimeout = errors.New("h2conn: wait timed out")

// ErrConnClosed is returned by the waits when the connection ended before
// an event matched.
var ErrConnClosed = errors.New("h2conn: connection closed")

// Event is one received frame, decoded and copied out of the framer's
// buffers. Fields are populated according to Type.
type Event struct {
	// Seq is the 0-based receive index of the frame on this connection.
	Seq int
	// At is the receive time.
	At time.Time
	// Type, Flags and StreamID mirror the frame header; a header block's
	// are its opening frame's, with END_HEADERS set.
	Type     frame.Type
	Flags    frame.Flags
	StreamID uint32

	// Data is the DATA payload (padding removed), the event's own copy; nil
	// on a connection dialed with Options.DiscardData.
	Data []byte
	// DataLen is the DATA payload length (padding removed), set in both
	// modes: what a caller that only counts octets reads.
	DataLen int
	// Headers is the decoded header list of a HEADERS or PUSH_PROMISE
	// block, logged once the block is whole.
	Headers []hpack.HeaderField
	// HeaderBlockLen is the total encoded size of the header block.
	HeaderBlockLen int
	// Settings is the decoded SETTINGS list.
	Settings []frame.Setting
	// ErrCode is the RST_STREAM or GOAWAY error code.
	ErrCode frame.ErrCode
	// LastStreamID is the GOAWAY last-stream-id.
	LastStreamID uint32
	// DebugData is the GOAWAY debug payload.
	DebugData []byte
	// Increment is the WINDOW_UPDATE increment.
	Increment uint32
	// PingData is the PING payload.
	PingData [8]byte
	// PromiseID is the PUSH_PROMISE promised stream.
	PromiseID uint32
}

// StreamEnded reports whether a DATA or HEADERS event carried END_STREAM.
// On other frame types the same bit means something else (ACK on SETTINGS
// and PING) or nothing.
func (e Event) StreamEnded() bool {
	return (e.Type == frame.TypeData || e.Type == frame.TypeHeaders) && e.Flags.Has(frame.FlagEndStream)
}

// Ends reports whether the event ends its stream: END_STREAM on DATA or
// HEADERS, or RST_STREAM.
func (e Event) Ends() bool { return e.StreamEnded() || e.Type == frame.TypeRSTStream }

// IsAck reports whether a SETTINGS or PING event is an acknowledgment.
func (e Event) IsAck() bool { return e.Flags.Has(frame.FlagAck) }

// Options configures Dial.
type Options struct {
	// Settings is the client SETTINGS frame payload. Nil sends an empty
	// SETTINGS frame (still required by RFC 7540 section 3.5).
	Settings []frame.Setting
	// AutoAck acknowledges server SETTINGS and answers server PINGs. The
	// zero value leaves both to the caller (probes that time or withhold an
	// ACK); DefaultOptions turns it on, as any long-lived connection should.
	AutoAck bool
	// AutoWindow enables automatic flow control: after each DATA frame the
	// consumed octets are replenished with a stream and a connection
	// WINDOW_UPDATE, keeping both windows at their initial sizes (a blind
	// fixed-size refill would eventually overflow the peer's 2^31-1
	// accounting). Probes leave it off for manual control.
	AutoWindow bool
	// Tracer, when non-nil, receives frame-level trace events for this
	// connection (both directions) plus its open/close lifecycle. The
	// decoded Event log above is unaffected; the tracer is the cross-layer
	// observability bus (see internal/trace).
	Tracer *trace.Tracer
	// TraceConnID, when nonzero, is a connection ID the caller already
	// reserved with Tracer.ConnID — Dial then uses it instead of allocating
	// a fresh one. This lets the dial path emit pre-connection regions
	// (dial, TLS handshake) under the same ID the connection's frames will
	// carry, so span reconstruction never has to guess the attribution.
	TraceConnID uint64
	// Metrics, when non-nil, counts this connection's lifecycle, streams,
	// resets, GOAWAYs, and (via the shared framer set) every frame and wire
	// byte. Build one per registry with NewMetrics and share it across
	// connections.
	Metrics *Metrics
	// DiscardData logs DATA frames by length only: Event.Data stays nil and
	// Response.Body empty, while Event.DataLen, Response.DataFrameSizes and
	// the auto WINDOW_UPDATEs are as without it. A connection that never
	// reads payload bytes skips copying every one of them.
	DiscardData bool
}

// eventLogCap bounds the retained event log: once it grows past the cap the
// older half is discarded (Seq numbers stay absolute), so a chatty peer can
// never grow it without bound. Probes produce a few hundred events per
// connection.
const eventLogCap = 32768

// DefaultOptions returns the options a well-behaved client would use:
// automatic SETTINGS/PING acknowledgment plus consumed-octet window
// replenishment, which keeps both flow-control windows steady at their
// RFC-default sizes indefinitely. Clients that want deeper pipelines (bulk
// transfer, page loads) advertise a larger SETTINGS_INITIAL_WINDOW_SIZE on
// top, as pageload does.
func DefaultOptions() Options {
	return Options{AutoAck: true, AutoWindow: true}
}

// Conn is a client-side HTTP/2 connection.
type Conn struct {
	nc   net.Conn
	fr   *frame.Framer
	opts Options

	// enc encodes request headers; guarded by encMu since probes may open
	// streams from multiple goroutines. encBuf is the encode scratch buffer,
	// reused under the same lock (the framer copies the fragment into its
	// own write buffer before returning).
	encMu  sync.Mutex
	enc    *hpack.Encoder
	encBuf []byte

	mu      sync.Mutex
	cond    *sync.Cond
	events  []Event
	nextSeq int
	readErr error
	// readEnded is set when the read loop returns — the peer closed, a read
	// failed, or Close ran — and no further event can arrive.
	readEnded    bool
	nextStreamID uint32

	// blockOpen is set while a header block written raw lacks END_HEADERS;
	// fences numbers AwaitReaction's PINGs.
	blockOpen atomic.Bool
	fences    atomic.Uint32

	// closeOnce closes the transport exactly once, whichever side hung up
	// first; closeErr is what that close returned.
	closeOnce sync.Once
	closeErr  error

	// dec decodes response header blocks and hb assembles them; touched
	// only by the read loop.
	dec *hpack.Decoder
	hb  frame.HeaderBlock

	// tracer and traceConn identify this connection on the shared trace
	// bus; both are fixed at Dial time (tracer may be nil — all its
	// methods no-op then).
	tracer    *trace.Tracer
	traceConn uint64

	// closeMetricOnce makes the closed-connection count exact whether the
	// read loop or Close observes the termination first.
	closeMetricOnce sync.Once

	readDone chan struct{}
}

// countClosed records connection termination exactly once.
func (c *Conn) countClosed() {
	if c.opts.Metrics != nil {
		c.closeMetricOnce.Do(c.opts.Metrics.connsClosed.Inc)
	}
}

// Dial establishes an HTTP/2 connection over nc: it starts the read loop,
// sends the client preface and SETTINGS, and returns. The server's SETTINGS
// arrive asynchronously; use WaitSettings. The Conn owns nc from the call on:
// Close closes it, and so does every failure return here.
func Dial(nc net.Conn, opts Options) (*Conn, error) {
	c := &Conn{
		nc: nc,
		// No SetMaxReadFrameSize, on purpose: a measurement client reads
		// whatever a server sends, up to the protocol's 16 MiB, and reports
		// it; holding peers to an advertised limit is the server's job.
		fr:           frame.NewFramer(nc, nc),
		opts:         opts,
		enc:          hpack.NewEncoder(hpack.PolicyIndexAll),
		dec:          hpack.NewDecoder(hpack.DefaultDynamicTableSize),
		nextStreamID: 1,
		readDone:     make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	if opts.Metrics != nil {
		// Like the trace hook: installed before the read loop starts, since
		// the framer hook fields are unlocked.
		c.fr.SetMetrics(opts.Metrics.framer)
		opts.Metrics.connsOpened.Inc()
	}
	if opts.Tracer != nil {
		c.tracer = opts.Tracer
		c.traceConn = opts.TraceConnID
		if c.traceConn == 0 {
			c.traceConn = opts.Tracer.ConnID()
		}
		// The framer hook must be installed before the read loop starts:
		// there is no lock on it.
		c.fr.SetTrace(func(sent bool, hdr frame.Header) {
			c.tracer.Frame(c.traceConn, sent, hdr)
		})
		c.tracer.ConnOpen(c.traceConn, nc.RemoteAddr().String())
	}
	// Coalesced writes: every sender below flushes explicitly after its
	// burst, so multi-frame sequences (preface+SETTINGS here, WINDOW_UPDATE
	// pairs in dispatch) reach the wire in single writes.
	c.fr.SetWriteBuffering(0)
	// The read loop must be running before any writes: over synchronous
	// in-process pipes, concurrent client and server writes deadlock unless
	// both sides are also draining.
	go c.readLoop()
	if err := c.fr.WriteRawBytes(prefaceBytes); err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("h2conn: writing preface: %w", err)
	}
	// Advertising SETTINGS_HEADER_TABLE_SIZE promises the peer it may grow
	// its encoder table to that size; the local decoder must accept the
	// matching size update or the first response block fails mid-decode.
	for _, s := range opts.Settings {
		if s.ID == frame.SettingHeaderTableSize {
			c.dec.SetAllowedMaxDynamicTableSize(s.Val)
		}
	}
	if err := c.fr.WriteSettings(opts.Settings...); err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("h2conn: writing settings: %w", err)
	}
	if err := c.fr.Flush(); err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("h2conn: writing connection preamble: %w", err)
	}
	return c, nil
}

// prefaceBytes avoids a per-Dial string-to-bytes conversion of the preface.
var prefaceBytes = []byte(frame.ClientPreface)

// Close tears down the connection: it closes the transport — also when the
// peer hung up first and the read loop has long ended — and waits for the
// read loop to return. It is safe to call multiple times.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.countClosed()
		c.closeErr = c.nc.Close()
	})
	<-c.readDone
	return c.closeErr
}

// ReadErr returns the terminal read-loop error, if the connection ended.
func (c *Conn) ReadErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readErr
}

func (c *Conn) readLoop() {
	defer close(c.readDone)
	for {
		f, err := c.fr.ReadFrame()
		if err == nil {
			f, err = c.hb.Add(f)
		}
		if err != nil {
			c.mu.Lock()
			if c.readErr == nil {
				c.readErr = err
			}
			c.readEnded = true
			c.cond.Broadcast()
			c.mu.Unlock()
			c.countClosed()
			if c.tracer != nil {
				c.tracer.ConnClose(c.traceConn, err.Error())
			}
			return
		}
		if f != nil {
			c.dispatch(f)
		}
	}
}

// dispatch converts a frame into an Event, running HPACK decoding in
// receive order so the dynamic table stays synchronized.
func (c *Conn) dispatch(f frame.Frame) {
	hdr := f.Header()
	var consumed uint32 // DATA octets charged to the flow-control windows
	ev := Event{
		At:       time.Now(),
		Type:     hdr.Type,
		Flags:    hdr.Flags,
		StreamID: hdr.StreamID,
	}
	switch f := f.(type) {
	case *frame.DataFrame:
		ev.DataLen = len(f.Data)
		if !c.opts.DiscardData {
			ev.Data = append([]byte(nil), f.Data...)
		}
		// Padding counts against the windows too (RFC 7540 section 6.9.1).
		consumed = uint32(f.FlowControlLen())
	case *frame.HeadersFrame:
		ev.Headers = c.decodeBlock(f.Fragment)
		ev.HeaderBlockLen = len(f.Fragment)
	case *frame.SettingsFrame:
		ev.Settings = append([]frame.Setting(nil), f.Settings...)
		if !f.IsAck() && c.opts.AutoAck {
			_ = c.fr.WriteSettingsAck()
			_ = c.fr.Flush()
		}
	case *frame.RSTStreamFrame:
		ev.ErrCode = f.Code
		if c.opts.Metrics != nil {
			c.opts.Metrics.resetsReceived.Inc()
		}
	case *frame.GoAwayFrame:
		ev.ErrCode = f.Code
		ev.LastStreamID = f.LastStreamID
		ev.DebugData = append([]byte(nil), f.DebugData...)
		if c.opts.Metrics != nil {
			c.opts.Metrics.goawaysReceived.Inc()
		}
	case *frame.WindowUpdateFrame:
		ev.Increment = f.Increment
	case *frame.PingFrame:
		ev.PingData = f.Data
		if !f.IsAck() && c.opts.AutoAck {
			_ = c.fr.WritePing(true, f.Data)
			_ = c.fr.Flush()
		}
	case *frame.PushPromiseFrame:
		ev.PromiseID = f.PromiseID
		ev.Headers = c.decodeBlock(f.Fragment)
		ev.HeaderBlockLen = len(f.Fragment)
	}
	c.mu.Lock()
	ev.Seq = c.nextSeq
	c.nextSeq++
	c.events = append(c.events, ev)
	if len(c.events) > eventLogCap {
		// Into a fresh array: a Wait may be reading the old one unlocked.
		c.events = append(c.events[:0:0], c.events[len(c.events)-eventLogCap/2:]...)
	}
	c.cond.Broadcast()
	c.mu.Unlock()

	if consumed > 0 && c.opts.AutoWindow {
		// Replenish exactly what the frame consumed, padding included, so
		// the peer's send windows hold steady at their initial sizes
		// indefinitely. The stream and connection updates coalesce into one
		// write at the trailing Flush.
		wrote := false
		if c.fr.WriteWindowUpdate(ev.StreamID, consumed) == nil {
			wrote = true
			if c.opts.Metrics != nil {
				c.opts.Metrics.autoWindowStream.Inc()
			}
		}
		if c.fr.WriteWindowUpdate(0, consumed) == nil {
			wrote = true
			if c.opts.Metrics != nil {
				c.opts.Metrics.autoWindowConn.Inc()
			}
		}
		if wrote {
			_ = c.fr.Flush()
		}
	}
}

func (c *Conn) decodeBlock(block []byte) []hpack.HeaderField {
	// On a decode error record what decoded: probes treat decode failures
	// as anomalies but the log must keep the frame.
	fields, _ := c.dec.DecodeFull(block)
	return fields
}

// Events returns a snapshot of the retained event log: the end-of-probe
// copy transcripts are printed from. Waiting goes through Wait, which
// copies nothing.
func (c *Conn) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Mark returns the Seq the next received event will carry. A caller that
// sends and then waits for the answer reads the mark before sending and
// waits from it, so the wait sees only what arrived since.
func (c *Conn) Mark() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nextSeq
}

// Wait shows match every event whose Seq is at least from — each exactly
// once, in Seq order, as it arrives — and returns the first one match
// accepts. From 0 reads the whole log; a position the log no longer retains
// resumes at the oldest retained event.
//
// When the connection ends or the timeout elapses first, Wait returns
// ErrConnClosed or ErrTimeout, but only after match has seen every event
// received until then: what match folded from the events it was shown is
// complete either way, which matters because several probes (the GOAWAY
// reactions) expect the connection to die. match runs on the caller's
// goroutine with no lock held.
func (c *Conn) Wait(from int, timeout time.Duration, match func(Event) bool) (Event, error) {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer timer.Stop()

	c.mu.Lock()
	for {
		if from < c.nextSeq {
			// A logged event never changes and a trim moves the kept half to
			// a fresh array, so the batch is read with the lock released.
			batch := c.events[max(from-(c.nextSeq-len(c.events)), 0):]
			from = c.nextSeq
			c.mu.Unlock()
			for i := range batch {
				if match(batch[i]) {
					return batch[i], nil
				}
			}
			c.mu.Lock()
			continue
		}
		switch {
		case c.readEnded:
			c.mu.Unlock()
			return Event{}, ErrConnClosed
		case !time.Now().Before(deadline):
			c.mu.Unlock()
			return Event{}, ErrTimeout
		}
		c.cond.Wait()
	}
}

// ReactionFloor is the least time AwaitReaction's callers give a peer to
// react: RFC 7540 section 6.7 lets it ACK a PING ahead of frames it queued.
const ReactionFloor = 100 * time.Millisecond

// AwaitReaction is Wait after a provocation, and the one way this client
// concludes that a peer did not react: a PING written behind the
// provocation (the fence) comes back only once the peer has read it, so
// ErrTimeout means floor has passed and the fence is back, or timeout has
// since passed with no ACK. No fence is written inside the client's own open
// header block (RFC 7540 section 6.10); without one the wait runs to timeout.
func (c *Conn) AwaitReaction(from int, floor, timeout time.Duration, match func(Event) bool) (Event, error) {
	// Each fence has its own payload: a late ACK of an earlier one proves nothing.
	n := c.fences.Add(1)
	fence := [8]byte{'f', 'e', 'n', 'c', 'e', byte(n >> 16), byte(n >> 8), byte(n)}
	fenced := !c.blockOpen.Load() && c.WritePing(fence) == nil
	isAck := func(e Event) bool {
		return fenced && e.Type == frame.TypePing && e.IsAck() && e.PingData == fence
	}
	acked := false
	ev, err := c.Wait(from, floor, func(e Event) bool {
		acked, from = acked || isAck(e), e.Seq+1
		return match(e)
	})
	if !errors.Is(err, ErrTimeout) || acked {
		return ev, err
	}
	ev, err = c.Wait(from, timeout, func(e Event) bool {
		acked = isAck(e)
		return acked || match(e)
	})
	if acked {
		return Event{}, ErrTimeout
	}
	return ev, err
}

// WaitSettings waits for the server's (non-ACK) SETTINGS frame.
func (c *Conn) WaitSettings(timeout time.Duration) (Event, error) {
	return c.Wait(0, timeout, func(e Event) bool {
		return e.Type == frame.TypeSettings && !e.IsAck()
	})
}

// --- senders ---

// NextStreamID reserves and returns the next client stream ID.
func (c *Conn) NextStreamID() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextStreamID
	c.nextStreamID += 2
	return id
}

// Request describes one HTTP/2 request to open.
type Request struct {
	Method    string
	Scheme    string
	Authority string
	Path      string
	// Extra appends additional header fields.
	Extra []hpack.HeaderField
	// Priority, when non-zero, is carried on the HEADERS frame.
	Priority frame.PriorityParam
}

// fields renders the request header list: the four pseudo-headers in
// :method,:scheme,:authority,:path order, then the request's extras.
func (r Request) fields() []hpack.HeaderField {
	method := r.Method
	if method == "" {
		method = "GET"
	}
	scheme := r.Scheme
	if scheme == "" {
		scheme = "https"
	}
	path := r.Path
	if path == "" {
		path = "/"
	}
	fields := make([]hpack.HeaderField, 0, 4+len(r.Extra))
	fields = append(fields,
		hpack.HeaderField{Name: ":method", Value: method},
		hpack.HeaderField{Name: ":scheme", Value: scheme},
		hpack.HeaderField{Name: ":authority", Value: r.Authority},
		hpack.HeaderField{Name: ":path", Value: path},
	)
	return append(fields, r.Extra...)
}

// OpenStream sends a request on a fresh stream and returns its ID.
func (c *Conn) OpenStream(req Request) (uint32, error) {
	id := c.NextStreamID()
	return id, c.OpenStreamID(id, req)
}

// OpenStreamID sends a request on the given stream ID (probes sometimes
// need explicit IDs to build dependency trees).
func (c *Conn) OpenStreamID(id uint32, req Request) error {
	c.encMu.Lock()
	err := c.writeRequestLocked(id, req, true)
	c.encMu.Unlock()
	if err != nil {
		return err
	}
	if err := c.fr.Flush(); err != nil {
		return fmt.Errorf("h2conn: open stream %d: %w", id, err)
	}
	return nil
}

// OpenStreamBody sends a request HEADERS frame without END_STREAM, leaving
// the client half of the stream open for WriteData calls — the request shape
// uploads use and the primitive slow-transmission attacks abuse (a drip-fed
// body pins the server's stream state for the duration).
func (c *Conn) OpenStreamBody(req Request) (uint32, error) {
	id := c.NextStreamID()
	c.encMu.Lock()
	err := c.writeRequestLocked(id, req, false)
	c.encMu.Unlock()
	if err != nil {
		return id, err
	}
	if err := c.fr.Flush(); err != nil {
		return id, fmt.Errorf("h2conn: open stream %d: %w", id, err)
	}
	return id, nil
}

// WriteData sends a DATA frame on streamID. The payload is not checked
// against the peer's flow-control windows: probes and attack scenarios need
// to send exactly what they choose, including zero-length frames.
func (c *Conn) WriteData(streamID uint32, endStream bool, data []byte) error {
	return c.flushAfter(c.fr.WriteData(streamID, endStream, data))
}

// writeRequestLocked encodes and writes one request HEADERS frame; the
// caller holds encMu and flushes afterwards.
func (c *Conn) writeRequestLocked(id uint32, req Request, endStream bool) error {
	c.encBuf = c.enc.AppendBlock(c.encBuf[:0], req.fields())
	err := c.fr.WriteHeaders(frame.HeadersParams{
		StreamID:   id,
		Fragment:   c.encBuf,
		EndStream:  endStream,
		EndHeaders: true,
		Priority:   req.Priority,
	})
	if err != nil {
		return fmt.Errorf("h2conn: open stream %d: %w", id, err)
	}
	if c.opts.Metrics != nil {
		c.opts.Metrics.streamsOpened.Inc()
	}
	return nil
}

// flushAfter completes a single-frame send on the coalescing framer: the
// frame is already in the pending buffer, so push it to the wire unless the
// write itself failed.
func (c *Conn) flushAfter(err error) error {
	if err != nil {
		return err
	}
	return c.fr.Flush()
}

// WriteSettings sends a SETTINGS frame mid-connection.
func (c *Conn) WriteSettings(settings ...frame.Setting) error {
	return c.flushAfter(c.fr.WriteSettings(settings...))
}

// WriteWindowUpdate sends a WINDOW_UPDATE; increment 0 is sent verbatim.
func (c *Conn) WriteWindowUpdate(streamID, increment uint32) error {
	return c.flushAfter(c.fr.WriteWindowUpdate(streamID, increment))
}

// WritePriority sends a PRIORITY frame; self-dependencies are sent verbatim.
func (c *Conn) WritePriority(streamID uint32, p frame.PriorityParam) error {
	return c.flushAfter(c.fr.WritePriority(streamID, p))
}

// WriteRSTStream resets a stream.
func (c *Conn) WriteRSTStream(streamID uint32, code frame.ErrCode) error {
	err := c.flushAfter(c.fr.WriteRSTStream(streamID, code))
	if err == nil && c.opts.Metrics != nil {
		c.opts.Metrics.resetsSent.Inc()
	}
	return err
}

// WriteRawFrame sends an arbitrary frame verbatim — the escape hatch for
// conformance checks that need deliberately malformed frames, or frames of a
// type the peer does not know (RFC 7540 section 4.1 requires it to ignore
// those).
func (c *Conn) WriteRawFrame(t frame.Type, flags frame.Flags, streamID uint32, payload []byte) error {
	if t == frame.TypeHeaders || t == frame.TypeContinuation {
		c.blockOpen.Store(!flags.Has(frame.FlagEndHeaders))
	}
	return c.flushAfter(c.fr.WriteRawFrame(t, flags, streamID, payload))
}

// WriteHeadersRaw sends a HEADERS frame with a caller-supplied (possibly
// invalid) header block fragment, bypassing the HPACK encoder.
func (c *Conn) WriteHeadersRaw(streamID uint32, fragment []byte, endStream, endHeaders bool) error {
	c.blockOpen.Store(!endHeaders)
	return c.flushAfter(c.fr.WriteHeaders(frame.HeadersParams{
		StreamID:   streamID,
		Fragment:   fragment,
		EndStream:  endStream,
		EndHeaders: endHeaders,
	}))
}

// WritePing sends a PING without waiting for the acknowledgment.
func (c *Conn) WritePing(data [8]byte) error {
	return c.flushAfter(c.fr.WritePing(false, data))
}

// Ping sends a PING and waits for the matching ACK, returning the RTT.
func (c *Conn) Ping(data [8]byte, timeout time.Duration) (time.Duration, error) {
	from := c.Mark()
	start := time.Now()
	if err := c.flushAfter(c.fr.WritePing(false, data)); err != nil {
		return 0, fmt.Errorf("h2conn: ping: %w", err)
	}
	ack, err := c.Wait(from, timeout, func(e Event) bool {
		return e.Type == frame.TypePing && e.IsAck() && e.PingData == data
	})
	if err != nil {
		return 0, err
	}
	return ack.At.Sub(start), nil
}

// --- response assembly ---

// Response aggregates the events of one stream.
type Response struct {
	StreamID uint32
	// Headers is the decoded response header list (first HEADERS block).
	Headers []hpack.HeaderField
	// HeaderBlockLen is the encoded size of that block — the S_header of
	// the paper's compression-ratio formula.
	HeaderBlockLen int
	// Body is the concatenated DATA payload; empty on a connection dialed
	// with Options.DiscardData, where DataFrameSizes still counts it.
	Body []byte
	// DataFrameSizes lists each DATA frame's payload length in order.
	DataFrameSizes []int
	// FirstDataSeq and LastDataSeq are global receive indexes of the
	// stream's first and last DATA frames (-1 if none).
	FirstDataSeq int
	LastDataSeq  int
	// HeadersSeq is the receive index of the HEADERS frame (-1 if none).
	HeadersSeq int
	// EndStream reports whether the response completed.
	EndStream bool
	// Reset holds the RST_STREAM code if the stream was reset.
	Reset *frame.ErrCode
}

// Status returns the :status pseudo-header, or "" when headers are absent.
func (r *Response) Status() string {
	for _, f := range r.Headers {
		if f.Name == ":status" {
			return f.Value
		}
	}
	return ""
}

// Header returns the first value of the named header.
func (r *Response) Header(name string) string {
	for _, f := range r.Headers {
		if f.Name == name {
			return f.Value
		}
	}
	return ""
}

// NewResponse returns the empty Response view of streamID, to be filled by
// Add as the connection's events pass.
func NewResponse(streamID uint32) *Response {
	return &Response{StreamID: streamID, FirstDataSeq: -1, LastDataSeq: -1, HeadersSeq: -1}
}

// Add folds one event of the connection into the view; events of other
// streams are skipped, so a wait's match function can pass it everything.
func (r *Response) Add(e Event) {
	if e.StreamID != r.StreamID {
		return
	}
	switch e.Type {
	case frame.TypeHeaders:
		if r.HeadersSeq < 0 {
			r.HeadersSeq = e.Seq
			r.Headers = e.Headers
			r.HeaderBlockLen = e.HeaderBlockLen
		}
	case frame.TypeData:
		if r.FirstDataSeq < 0 {
			r.FirstDataSeq = e.Seq
		}
		r.LastDataSeq = e.Seq
		r.Body = append(r.Body, e.Data...)
		r.DataFrameSizes = append(r.DataFrameSizes, e.DataLen)
	case frame.TypeRSTStream:
		code := e.ErrCode
		r.Reset = &code
	}
	r.EndStream = r.EndStream || e.StreamEnded()
}

// Done reports whether the stream has ended or been reset (Event.Ends).
func (r *Response) Done() bool { return r.EndStream || r.Reset != nil }

// FetchBody opens a stream for req and waits for the complete response; on
// a timeout or a closed connection it returns what had arrived with the
// error. It requires auto window updates (DefaultOptions) for bodies larger
// than the initial windows.
func (c *Conn) FetchBody(req Request, timeout time.Duration) (*Response, error) {
	from := c.Mark()
	id, err := c.OpenStream(req)
	if err != nil {
		return nil, err
	}
	resp := NewResponse(id)
	_, err = c.Wait(from, timeout, func(e Event) bool {
		resp.Add(e)
		return resp.Done()
	})
	return resp, err
}
