package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"
)

// ErrFrameTooLarge is returned by ReadFrame when an incoming frame exceeds
// the framer's configured maximum read size.
var ErrFrameTooLarge = errors.New("frame: frame payload exceeds maximum read size")

// maxRetainedReadBuf caps the payload buffer a Framer keeps between
// ReadFrame calls. Frames up to this size are read into a recycled buffer
// (zero allocations in steady state); larger frames — legal up to 16 MiB —
// get a one-shot buffer that is garbage once the caller drops the frame, so
// a single census target sending jumbo frames cannot pin megabytes on every
// live connection.
const maxRetainedReadBuf = 64 << 10

// DefaultWriteBufferSize is the coalescing threshold installed by
// SetWriteBuffering(0): once at least this many pending copied octets
// accumulate, endWrite flushes even without an explicit Flush call.
const DefaultWriteBufferSize = 16 << 10

// refCutoff is the shortest DATA payload a coalescing framer on a
// *net.TCPConn keeps by reference; anything shorter costs less as a memmove
// than as an iovec. maxIovecs caps the vector one flush carries (about one
// IOV_MAX batch), which bounds it against a peer advertising a 2 GiB window.
const (
	refCutoff = 8 << 10
	maxIovecs = 1024
)

// Framer reads and writes HTTP/2 frames on an underlying byte stream.
//
// A Framer is safe for one concurrent reader plus one concurrent writer:
// reads and writes use separate buffers and the write path is serialized
// internally with a mutex. That matches how both the client connection and
// the server use it (a read loop plus multiple writers).
//
// # Read buffer ownership
//
// ReadFrame recycles both the payload buffer and the typed frame structs it
// returns: the Frame and every payload slice reachable from it (DataFrame.Data,
// HeadersFrame.Fragment, SettingsFrame.Settings, GoAwayFrame.DebugData, …)
// are valid only until the next ReadFrame call on the same Framer. Callers
// that retain a frame past that point — queues, logs, test channels — must
// detach it first with CopyPayload.
//
// # Write coalescing
//
// By default every frame write issues one Write on the underlying writer,
// exactly as a naive framer would. SetWriteBuffering switches the framer to
// coalesced mode: frame writes accumulate in an internal buffer and reach
// the wire only on Flush (or when the pending bytes exceed the configured
// threshold). In coalesced mode the caller owns the flush schedule and MUST
// call Flush before blocking on a read, or the peer never sees the frames
// it is expected to answer.
//
// # Write payload ownership
//
// A coalescing framer whose writer is a *net.TCPConn does not copy DATA
// payloads of refCutoff octets or more: WriteData queues the frame header and
// keeps the caller's slice, and Flush hands header runs and payloads to the
// kernel as one vectored write. A payload passed to WriteData on a coalescing
// framer must therefore stay unmodified until the next Flush returns. Every
// other writer (TLS, pipes, wrapped conns) takes a Write per slice from
// net.Buffers, so there payloads are copied as before; the bytes on the wire
// are the same either way.
type Framer struct {
	r io.Reader

	// readHdr and readBuf are owned by the reading goroutine.
	readHdr [HeaderLen]byte
	readBuf []byte
	// scratch holds the recycled typed frames ReadFrame hands out; owned by
	// the reading goroutine, overwritten on every ReadFrame.
	scratch frameScratch
	// maxReadSize limits accepted payload sizes. Like trace and metrics it is
	// set before the framer is in use and only read after, so ReadFrame
	// takes no lock for it.
	maxReadSize uint32

	wmu sync.Mutex
	w   io.Writer
	// wbuf accumulates encoded frames. In unbuffered mode it holds at most
	// the frame under construction; in coalesced mode it is the pending
	// batch, flushed by Flush or by crossing flushThreshold.
	wbuf []byte
	// frameStart is the offset in wbuf of the frame under construction (its
	// length field is patched there by endWrite).
	frameStart int
	// buffered enables write coalescing; flushThreshold bounds the pending
	// batch size.
	buffered       bool
	flushThreshold int
	// writev, set when a coalescing framer writes to a *net.TCPConn, sends
	// pending frames as one vectored write. iov is that vector while any
	// payload is pending by reference: runs of wbuf alternating with callers'
	// payloads, wbuf[runStart:] not yet in it. iovw is the copy of iov's
	// header that net.Buffers.WriteTo consumes — a field, so that taking its
	// address does not allocate.
	writev    func(*net.Buffers) (int64, error)
	iov, iovw net.Buffers
	runStart  int

	// trace, when set, observes every frame header crossing the framer in
	// either direction. It is the single instrumentation point shared by the
	// probing client and the testbed server.
	trace func(sent bool, hdr Header)

	// metrics, when set, counts frames, wire bytes, and read errors. Same
	// discipline as trace: install via SetMetrics before the framer is used.
	metrics *Metrics
}

// frameScratch holds one instance of every typed frame plus the slices they
// reuse, so steady-state ReadFrame performs zero heap allocations.
type frameScratch struct {
	data         DataFrame
	headers      HeadersFrame
	priority     PriorityFrame
	rst          RSTStreamFrame
	settings     SettingsFrame
	push         PushPromiseFrame
	ping         PingFrame
	goAway       GoAwayFrame
	windowUpdate WindowUpdateFrame
	continuation ContinuationFrame
	unknown      UnknownFrame
	// settingsBuf backs SettingsFrame.Settings across reads.
	settingsBuf []Setting
}

// NewFramer returns a Framer reading from r and writing to w.
func NewFramer(w io.Writer, r io.Reader) *Framer {
	return &Framer{
		r:           r,
		w:           w,
		maxReadSize: MaxAllowedFrameSize,
	}
}

// SetTrace installs fn to observe every frame header the framer reads
// (sent == false) or writes (sent == true). Received frames are reported
// after the full payload arrives but before validation, so deliberately
// malformed frames still show up in traces; written frames are reported
// once the frame is committed to the write path (in coalesced mode that is
// when it enters the pending buffer, not when it reaches the wire). fn must
// be safe for concurrent calls from the reader and writer goroutines, and
// SetTrace must be called before the framer is in use (there is no lock on
// the hook itself).
func (fr *Framer) SetTrace(fn func(sent bool, hdr Header)) {
	fr.trace = fn
}

// SetWriteBuffering switches the framer to coalesced writes: frames
// accumulate in an internal buffer and reach the underlying writer in a
// single Write per Flush. threshold bounds the pending batch — once at
// least that many copied octets are pending, endWrite flushes on its own
// (payloads kept by reference, see "Write payload ownership", do not count);
// threshold <= 0 applies DefaultWriteBufferSize. Callers own the flush
// schedule: always Flush before blocking on a read. Call it before the
// framer is in use, alongside SetTrace/SetMetrics.
func (fr *Framer) SetWriteBuffering(threshold int) {
	if threshold <= 0 {
		threshold = DefaultWriteBufferSize
	}
	fr.wmu.Lock()
	defer fr.wmu.Unlock()
	fr.buffered = true
	fr.flushThreshold = threshold
	if tc, ok := fr.w.(*net.TCPConn); ok {
		fr.writev = func(v *net.Buffers) (int64, error) { return v.WriteTo(tc) }
	}
}

// Flush writes all pending coalesced frames to the underlying writer in one
// Write call. It is a no-op when nothing is pending (in particular for
// unbuffered framers), so it is always safe to call.
func (fr *Framer) Flush() error {
	fr.wmu.Lock()
	defer fr.wmu.Unlock()
	return fr.flushLocked()
}

func (fr *Framer) flushLocked() error {
	if len(fr.wbuf) == 0 {
		return nil
	}
	var err error
	if len(fr.iov) == 0 {
		_, err = fr.w.Write(fr.wbuf)
	} else {
		err = fr.flushVectored()
	}
	fr.wbuf = fr.wbuf[:0]
	fr.frameStart = 0
	if err != nil {
		return fmt.Errorf("frame: write: %w", err)
	}
	return nil
}

// flushVectored sends iov plus the tail of wbuf as one vectored write, then
// drops every reference, sent or not.
func (fr *Framer) flushVectored() error {
	if fr.runStart < len(fr.wbuf) {
		fr.iov = append(fr.iov, fr.wbuf[fr.runStart:])
	}
	fr.iovw = fr.iov
	_, err := fr.writev(&fr.iovw)
	clear(fr.iov) // iovw's unsent remainder too: it is a suffix of iov
	fr.iov = fr.iov[:0]
	fr.runStart = 0
	return err
}

// WriteRawBytes appends b verbatim to the write path — in coalesced mode it
// joins the pending batch, otherwise it is written immediately. h2conn uses
// it to put the client connection preface in the same Write as the initial
// SETTINGS frame. The bytes bypass frame accounting (no trace, no metrics):
// they are not a frame.
func (fr *Framer) WriteRawBytes(b []byte) error {
	fr.wmu.Lock()
	defer fr.wmu.Unlock()
	fr.wbuf = append(fr.wbuf, b...)
	fr.frameStart = len(fr.wbuf)
	if !fr.buffered || len(fr.wbuf) >= fr.flushThreshold {
		return fr.flushLocked()
	}
	return nil
}

// SetMaxReadFrameSize caps the payload size ReadFrame will accept at n,
// clamped to the range RFC 7540 section 4.2 allows for
// SETTINGS_MAX_FRAME_SIZE; a longer frame fails with ErrFrameTooLarge before
// any of its payload is buffered. A receiver passes the value it advertises.
// Call it before the framer is in use, alongside SetTrace/SetMetrics.
func (fr *Framer) SetMaxReadFrameSize(n uint32) {
	fr.maxReadSize = min(max(n, DefaultMaxFrameSize), MaxAllowedFrameSize)
}

// readPayloadBuf returns a length-n buffer for the next payload. Frames up
// to maxRetainedReadBuf share the recycled buffer (grown in powers of two
// so steady state settles after a handful of allocations); anything larger
// is a one-shot allocation the framer does not keep.
func (fr *Framer) readPayloadBuf(n int) []byte {
	if n <= cap(fr.readBuf) {
		return fr.readBuf[:n]
	}
	if n > maxRetainedReadBuf {
		return make([]byte, n)
	}
	//h2lint:ignore hotalloc amortized power-of-two growth; steady state reuses the retained buffer
	fr.readBuf = make([]byte, 1<<bits.Len(uint(n-1)))
	return fr.readBuf[:n]
}

// ReadFrame reads one frame from the underlying reader.
//
// The returned Frame and all payload slices reachable from it live in
// buffers the framer recycles: they are valid only until the next ReadFrame
// call. Use CopyPayload to retain a frame longer.
func (fr *Framer) ReadFrame() (Frame, error) {
	if _, err := io.ReadFull(fr.r, fr.readHdr[:]); err != nil {
		// A clean EOF between frames is the normal end of a connection, not a
		// framing failure; everything else (including a torn header) counts.
		if fr.metrics != nil && err != io.EOF {
			fr.metrics.readErrors.Inc()
		}
		return nil, err
	}
	hdr := parseHeader(fr.readHdr[:])
	if hdr.Length > fr.maxReadSize {
		if fr.metrics != nil {
			fr.metrics.readErrors.Inc()
		}
		return nil, ErrFrameTooLarge
	}
	payload := fr.readPayloadBuf(int(hdr.Length))
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		if fr.metrics != nil {
			fr.metrics.readErrors.Inc()
		}
		return nil, fmt.Errorf("frame: short payload for %v: %w", hdr, err)
	}
	if fr.trace != nil {
		fr.trace(false, hdr)
	}
	if fr.metrics != nil {
		fr.metrics.observe(false, hdr)
	}
	f, err := fr.parsePayload(hdr, payload)
	if err != nil && fr.metrics != nil {
		fr.metrics.readErrors.Inc()
	}
	return f, err
}

func (fr *Framer) parsePayload(hdr Header, p []byte) (Frame, error) {
	switch hdr.Type {
	case TypeData:
		return fr.parseDataFrame(hdr, p)
	case TypeHeaders:
		return fr.parseHeadersFrame(hdr, p)
	case TypePriority:
		return fr.parsePriorityFrame(hdr, p)
	case TypeRSTStream:
		return fr.parseRSTStreamFrame(hdr, p)
	case TypeSettings:
		return fr.parseSettingsFrame(hdr, p)
	case TypePushPromise:
		return fr.parsePushPromiseFrame(hdr, p)
	case TypePing:
		return fr.parsePingFrame(hdr, p)
	case TypeGoAway:
		return fr.parseGoAwayFrame(hdr, p)
	case TypeWindowUpdate:
		return fr.parseWindowUpdateFrame(hdr, p)
	case TypeContinuation:
		return fr.parseContinuationFrame(hdr, p)
	default:
		fr.scratch.unknown = UnknownFrame{hdr: hdr, Payload: p}
		return &fr.scratch.unknown, nil
	}
}

func (fr *Framer) parseDataFrame(hdr Header, p []byte) (Frame, error) {
	if hdr.StreamID == 0 {
		return nil, ConnError{ErrCodeProtocol, "DATA frame with stream ID 0"}
	}
	f := &fr.scratch.data
	*f = DataFrame{hdr: hdr}
	if hdr.Flags.Has(FlagPadded) {
		if len(p) == 0 {
			return nil, ConnError{ErrCodeFrameSize, "padded DATA frame with empty payload"}
		}
		f.PadLength = int(p[0])
		p = p[1:]
		if f.PadLength > len(p) {
			return nil, ConnError{ErrCodeProtocol, "DATA padding exceeds payload"}
		}
		p = p[:len(p)-f.PadLength]
	}
	f.Data = p
	return f, nil
}

func (fr *Framer) parseHeadersFrame(hdr Header, p []byte) (Frame, error) {
	if hdr.StreamID == 0 {
		return nil, ConnError{ErrCodeProtocol, "HEADERS frame with stream ID 0"}
	}
	f := &fr.scratch.headers
	*f = HeadersFrame{hdr: hdr}
	if hdr.Flags.Has(FlagPadded) {
		if len(p) == 0 {
			return nil, ConnError{ErrCodeFrameSize, "padded HEADERS frame with empty payload"}
		}
		f.PadLength = int(p[0])
		p = p[1:]
	}
	if hdr.Flags.Has(FlagPriority) {
		if len(p) < 5 {
			return nil, ConnError{ErrCodeFrameSize, "HEADERS priority fields truncated"}
		}
		dep := binary.BigEndian.Uint32(p[0:4])
		f.Priority = PriorityParam{
			StreamDep: dep & MaxStreamID,
			Exclusive: dep&(1<<31) != 0,
			Weight:    p[4],
		}
		p = p[5:]
	}
	if f.PadLength > len(p) {
		return nil, ConnError{ErrCodeProtocol, "HEADERS padding exceeds payload"}
	}
	f.Fragment = p[:len(p)-f.PadLength]
	return f, nil
}

func (fr *Framer) parsePriorityFrame(hdr Header, p []byte) (Frame, error) {
	if hdr.StreamID == 0 {
		return nil, ConnError{ErrCodeProtocol, "PRIORITY frame with stream ID 0"}
	}
	if len(p) != 5 {
		return nil, StreamError{hdr.StreamID, ErrCodeFrameSize, "PRIORITY payload must be 5 bytes"}
	}
	dep := binary.BigEndian.Uint32(p[0:4])
	f := &fr.scratch.priority
	*f = PriorityFrame{
		hdr: hdr,
		Priority: PriorityParam{
			StreamDep: dep & MaxStreamID,
			Exclusive: dep&(1<<31) != 0,
			Weight:    p[4],
		},
	}
	return f, nil
}

func (fr *Framer) parseRSTStreamFrame(hdr Header, p []byte) (Frame, error) {
	if hdr.StreamID == 0 {
		return nil, ConnError{ErrCodeProtocol, "RST_STREAM frame with stream ID 0"}
	}
	if len(p) != 4 {
		return nil, ConnError{ErrCodeFrameSize, "RST_STREAM payload must be 4 bytes"}
	}
	f := &fr.scratch.rst
	*f = RSTStreamFrame{hdr: hdr, Code: ErrCode(binary.BigEndian.Uint32(p))}
	return f, nil
}

func (fr *Framer) parseSettingsFrame(hdr Header, p []byte) (Frame, error) {
	if hdr.StreamID != 0 {
		return nil, ConnError{ErrCodeProtocol, "SETTINGS frame with nonzero stream ID"}
	}
	if hdr.Flags.Has(FlagAck) && len(p) != 0 {
		return nil, ConnError{ErrCodeFrameSize, "SETTINGS ACK with payload"}
	}
	if len(p)%6 != 0 {
		return nil, ConnError{ErrCodeFrameSize, "SETTINGS payload not a multiple of 6"}
	}
	settings := fr.scratch.settingsBuf[:0]
	for i := 0; i+6 <= len(p); i += 6 {
		settings = append(settings, Setting{
			ID:  SettingID(binary.BigEndian.Uint16(p[i : i+2])),
			Val: binary.BigEndian.Uint32(p[i+2 : i+6]),
		})
	}
	fr.scratch.settingsBuf = settings
	f := &fr.scratch.settings
	*f = SettingsFrame{hdr: hdr, Settings: settings}
	return f, nil
}

func (fr *Framer) parsePushPromiseFrame(hdr Header, p []byte) (Frame, error) {
	if hdr.StreamID == 0 {
		return nil, ConnError{ErrCodeProtocol, "PUSH_PROMISE frame with stream ID 0"}
	}
	f := &fr.scratch.push
	*f = PushPromiseFrame{hdr: hdr}
	if hdr.Flags.Has(FlagPadded) {
		if len(p) == 0 {
			return nil, ConnError{ErrCodeFrameSize, "padded PUSH_PROMISE with empty payload"}
		}
		f.PadLength = int(p[0])
		p = p[1:]
	}
	if len(p) < 4 {
		return nil, ConnError{ErrCodeFrameSize, "PUSH_PROMISE missing promised stream ID"}
	}
	f.PromiseID = binary.BigEndian.Uint32(p[0:4]) & MaxStreamID
	p = p[4:]
	if f.PadLength > len(p) {
		return nil, ConnError{ErrCodeProtocol, "PUSH_PROMISE padding exceeds payload"}
	}
	f.Fragment = p[:len(p)-f.PadLength]
	return f, nil
}

func (fr *Framer) parsePingFrame(hdr Header, p []byte) (Frame, error) {
	if hdr.StreamID != 0 {
		return nil, ConnError{ErrCodeProtocol, "PING frame with nonzero stream ID"}
	}
	if len(p) != 8 {
		return nil, ConnError{ErrCodeFrameSize, "PING payload must be 8 bytes"}
	}
	f := &fr.scratch.ping
	*f = PingFrame{hdr: hdr}
	copy(f.Data[:], p)
	return f, nil
}

func (fr *Framer) parseGoAwayFrame(hdr Header, p []byte) (Frame, error) {
	if hdr.StreamID != 0 {
		return nil, ConnError{ErrCodeProtocol, "GOAWAY frame with nonzero stream ID"}
	}
	if len(p) < 8 {
		return nil, ConnError{ErrCodeFrameSize, "GOAWAY payload shorter than 8 bytes"}
	}
	f := &fr.scratch.goAway
	*f = GoAwayFrame{
		hdr:          hdr,
		LastStreamID: binary.BigEndian.Uint32(p[0:4]) & MaxStreamID,
		Code:         ErrCode(binary.BigEndian.Uint32(p[4:8])),
		DebugData:    p[8:],
	}
	return f, nil
}

func (fr *Framer) parseWindowUpdateFrame(hdr Header, p []byte) (Frame, error) {
	if len(p) != 4 {
		return nil, ConnError{ErrCodeFrameSize, "WINDOW_UPDATE payload must be 4 bytes"}
	}
	f := &fr.scratch.windowUpdate
	*f = WindowUpdateFrame{
		hdr:       hdr,
		Increment: binary.BigEndian.Uint32(p) & MaxStreamID,
	}
	return f, nil
}

func (fr *Framer) parseContinuationFrame(hdr Header, p []byte) (Frame, error) {
	if hdr.StreamID == 0 {
		return nil, ConnError{ErrCodeProtocol, "CONTINUATION frame with stream ID 0"}
	}
	f := &fr.scratch.continuation
	*f = ContinuationFrame{hdr: hdr, Fragment: p}
	return f, nil
}

// CopyPayload returns a deep copy of f detached from the framer's recycled
// read buffers: the returned Frame and every payload slice it carries stay
// valid indefinitely. Use it at the few call sites that retain a frame past
// the next ReadFrame (queues, channels, transcripts); everything else can
// read the recycled frame for free.
func CopyPayload(f Frame) Frame {
	switch f := f.(type) {
	case *DataFrame:
		c := *f
		c.Data = append([]byte(nil), f.Data...)
		return &c
	case *HeadersFrame:
		c := *f
		c.Fragment = append([]byte(nil), f.Fragment...)
		return &c
	case *PriorityFrame:
		c := *f
		return &c
	case *RSTStreamFrame:
		c := *f
		return &c
	case *SettingsFrame:
		c := *f
		c.Settings = append([]Setting(nil), f.Settings...)
		return &c
	case *PushPromiseFrame:
		c := *f
		c.Fragment = append([]byte(nil), f.Fragment...)
		return &c
	case *PingFrame:
		c := *f
		return &c
	case *GoAwayFrame:
		c := *f
		c.DebugData = append([]byte(nil), f.DebugData...)
		return &c
	case *WindowUpdateFrame:
		c := *f
		return &c
	case *ContinuationFrame:
		c := *f
		c.Fragment = append([]byte(nil), f.Fragment...)
		return &c
	case *UnknownFrame:
		c := *f
		c.Payload = append([]byte(nil), f.Payload...)
		return &c
	default:
		return f
	}
}

// startWrite begins a frame under wmu at the current end of wbuf.
func (fr *Framer) startWrite(t Type, flags Flags, streamID uint32) {
	fr.frameStart = len(fr.wbuf)
	fr.wbuf = append(fr.wbuf,
		0, 0, 0, // length, patched in endWrite
		byte(t),
		byte(flags),
		byte(streamID>>24), byte(streamID>>16), byte(streamID>>8), byte(streamID))
}

func (fr *Framer) endWrite() error { return fr.endWriteRef(nil) }

// endWriteRef completes the frame under construction, whose payload is what
// wbuf holds past the frame header followed by ref, kept by reference until
// the next flush.
func (fr *Framer) endWriteRef(ref []byte) error {
	length := len(fr.wbuf) - fr.frameStart - HeaderLen + len(ref)
	if length >= 1<<24 {
		// Drop the malformed frame from the buffer so coalesced peers never
		// see it.
		fr.wbuf = fr.wbuf[:fr.frameStart]
		return fmt.Errorf("frame: payload of %d bytes exceeds 24-bit length field", length)
	}
	frameHdr := fr.wbuf[fr.frameStart:]
	frameHdr[0] = byte(length >> 16)
	frameHdr[1] = byte(length >> 8)
	frameHdr[2] = byte(length)
	hdr := parseHeader(frameHdr[:HeaderLen])
	if len(ref) > 0 {
		// The copied octets since the last reference, this frame's header
		// among them, then the payload. Should a later append move wbuf, the
		// run still reads these octets from the array it was cut from.
		fr.iov = append(fr.iov, fr.wbuf[fr.runStart:], ref)
		fr.runStart = len(fr.wbuf)
	}
	if !fr.buffered || len(fr.wbuf) >= fr.flushThreshold || len(fr.iov) >= maxIovecs {
		if err := fr.flushLocked(); err != nil {
			return err
		}
	}
	if fr.trace != nil {
		fr.trace(true, hdr)
	}
	if fr.metrics != nil {
		fr.metrics.observe(true, hdr)
	}
	return nil
}

func (fr *Framer) writeUint32(v uint32) {
	fr.wbuf = append(fr.wbuf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// WriteData writes a DATA frame. Padding is not applied (pad == nil path is
// the only one the reproduction needs on the write side). On a coalescing
// framer data must stay unmodified until the next Flush returns (see "Write
// payload ownership").
func (fr *Framer) WriteData(streamID uint32, endStream bool, data []byte) error {
	fr.wmu.Lock()
	defer fr.wmu.Unlock()
	var flags Flags
	if endStream {
		flags |= FlagEndStream
	}
	fr.startWrite(TypeData, flags, streamID)
	if fr.writev != nil && len(data) >= refCutoff {
		return fr.endWriteRef(data)
	}
	fr.wbuf = append(fr.wbuf, data...)
	return fr.endWrite()
}

// HeadersParams configures WriteHeaders.
type HeadersParams struct {
	// StreamID is the stream to open or continue.
	StreamID uint32
	// Fragment is the HPACK-encoded header block fragment.
	Fragment []byte
	// EndStream sets END_STREAM.
	EndStream bool
	// EndHeaders sets END_HEADERS.
	EndHeaders bool
	// Priority, when non-zero, is encoded with FlagPriority.
	Priority PriorityParam
}

// WriteHeaders writes a HEADERS frame.
func (fr *Framer) WriteHeaders(p HeadersParams) error {
	fr.wmu.Lock()
	defer fr.wmu.Unlock()
	var flags Flags
	if p.EndStream {
		flags |= FlagEndStream
	}
	if p.EndHeaders {
		flags |= FlagEndHeaders
	}
	if !p.Priority.IsZero() {
		flags |= FlagPriority
	}
	fr.startWrite(TypeHeaders, flags, p.StreamID)
	if !p.Priority.IsZero() {
		dep := p.Priority.StreamDep & MaxStreamID
		if p.Priority.Exclusive {
			dep |= 1 << 31
		}
		fr.writeUint32(dep)
		fr.wbuf = append(fr.wbuf, p.Priority.Weight)
	}
	fr.wbuf = append(fr.wbuf, p.Fragment...)
	return fr.endWrite()
}

// WritePriority writes a PRIORITY frame. It happily encodes self-dependent
// streams; H2Scope's self-dependency probe relies on that.
func (fr *Framer) WritePriority(streamID uint32, p PriorityParam) error {
	fr.wmu.Lock()
	defer fr.wmu.Unlock()
	fr.startWrite(TypePriority, 0, streamID)
	dep := p.StreamDep & MaxStreamID
	if p.Exclusive {
		dep |= 1 << 31
	}
	fr.writeUint32(dep)
	fr.wbuf = append(fr.wbuf, p.Weight)
	return fr.endWrite()
}

// WriteRSTStream writes an RST_STREAM frame.
func (fr *Framer) WriteRSTStream(streamID uint32, code ErrCode) error {
	fr.wmu.Lock()
	defer fr.wmu.Unlock()
	fr.startWrite(TypeRSTStream, 0, streamID)
	fr.writeUint32(uint32(code))
	return fr.endWrite()
}

// WriteSettings writes a (non-ACK) SETTINGS frame.
func (fr *Framer) WriteSettings(settings ...Setting) error {
	fr.wmu.Lock()
	defer fr.wmu.Unlock()
	fr.startWrite(TypeSettings, 0, 0)
	for _, s := range settings {
		fr.wbuf = append(fr.wbuf, byte(s.ID>>8), byte(s.ID))
		fr.writeUint32(s.Val)
	}
	return fr.endWrite()
}

// WriteSettingsAck writes a SETTINGS frame with the ACK flag.
func (fr *Framer) WriteSettingsAck() error {
	fr.wmu.Lock()
	defer fr.wmu.Unlock()
	fr.startWrite(TypeSettings, FlagAck, 0)
	return fr.endWrite()
}

// WritePushPromise writes a PUSH_PROMISE frame.
func (fr *Framer) WritePushPromise(streamID, promiseID uint32, endHeaders bool, fragment []byte) error {
	fr.wmu.Lock()
	defer fr.wmu.Unlock()
	var flags Flags
	if endHeaders {
		flags |= FlagEndHeaders
	}
	fr.startWrite(TypePushPromise, flags, streamID)
	fr.writeUint32(promiseID & MaxStreamID)
	fr.wbuf = append(fr.wbuf, fragment...)
	return fr.endWrite()
}

// WritePing writes a PING frame.
func (fr *Framer) WritePing(ack bool, data [8]byte) error {
	fr.wmu.Lock()
	defer fr.wmu.Unlock()
	var flags Flags
	if ack {
		flags |= FlagAck
	}
	fr.startWrite(TypePing, flags, 0)
	fr.wbuf = append(fr.wbuf, data[:]...)
	return fr.endWrite()
}

// WriteGoAway writes a GOAWAY frame.
func (fr *Framer) WriteGoAway(lastStreamID uint32, code ErrCode, debug []byte) error {
	fr.wmu.Lock()
	defer fr.wmu.Unlock()
	fr.startWrite(TypeGoAway, 0, 0)
	fr.writeUint32(lastStreamID & MaxStreamID)
	fr.writeUint32(uint32(code))
	fr.wbuf = append(fr.wbuf, debug...)
	return fr.endWrite()
}

// WriteWindowUpdate writes a WINDOW_UPDATE frame. Increment 0 and increments
// that would overflow a peer's window are encoded as-is: the probes need to
// send them.
func (fr *Framer) WriteWindowUpdate(streamID, increment uint32) error {
	fr.wmu.Lock()
	defer fr.wmu.Unlock()
	fr.startWrite(TypeWindowUpdate, 0, streamID)
	fr.writeUint32(increment & MaxStreamID)
	return fr.endWrite()
}

// WriteContinuation writes a CONTINUATION frame.
func (fr *Framer) WriteContinuation(streamID uint32, endHeaders bool, fragment []byte) error {
	fr.wmu.Lock()
	defer fr.wmu.Unlock()
	var flags Flags
	if endHeaders {
		flags |= FlagEndHeaders
	}
	fr.startWrite(TypeContinuation, flags, streamID)
	fr.wbuf = append(fr.wbuf, fragment...)
	return fr.endWrite()
}

// WriteRawFrame writes an arbitrary frame verbatim. Probes use it to emit
// deliberately malformed frames.
func (fr *Framer) WriteRawFrame(t Type, flags Flags, streamID uint32, payload []byte) error {
	fr.wmu.Lock()
	defer fr.wmu.Unlock()
	fr.startWrite(t, flags, streamID)
	fr.wbuf = append(fr.wbuf, payload...)
	return fr.endWrite()
}
