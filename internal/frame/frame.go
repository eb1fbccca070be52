// Package frame implements HTTP/2 binary framing as specified by
// RFC 7540 sections 4 and 6.
//
// It provides typed representations of all ten frame types, a Framer for
// reading and writing frames on a net.Conn (or any io.ReadWriter), and the
// RFC 7540 error-code vocabulary. The package deliberately exposes enough
// rope to send frames a well-behaved client never would — zero-increment
// WINDOW_UPDATEs, self-dependent PRIORITY frames, oversized windows —
// because the H2Scope probing methodology requires injecting exactly those
// frames and observing how a server reacts.
package frame

import (
	"encoding/binary"
	"fmt"
)

// HeaderLen is the fixed size in bytes of an HTTP/2 frame header (RFC 7540
// section 4.1).
const HeaderLen = 9

// ClientPreface is the connection preface every client must send first
// (RFC 7540 section 3.5).
const ClientPreface = "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"

// Default protocol constants from RFC 7540 section 6.5.2 and 6.9.2.
const (
	// DefaultMaxFrameSize is the initial SETTINGS_MAX_FRAME_SIZE value.
	DefaultMaxFrameSize = 1 << 14 // 16,384
	// MaxAllowedFrameSize is the largest value SETTINGS_MAX_FRAME_SIZE may take.
	MaxAllowedFrameSize = 1<<24 - 1 // 16,777,215
	// DefaultInitialWindowSize is the initial flow-control window for both
	// streams and the connection.
	DefaultInitialWindowSize = 1<<16 - 1 // 65,535
	// MaxWindowSize is the largest legal flow-control window (2^31-1).
	MaxWindowSize = 1<<31 - 1
	// DefaultHeaderTableSize is the initial HPACK dynamic-table size.
	DefaultHeaderTableSize = 4096
	// MaxStreamID is the largest legal stream identifier (31 bits).
	MaxStreamID = 1<<31 - 1
)

// Type identifies an HTTP/2 frame type (RFC 7540 section 6).
type Type uint8

// The ten frame types defined by RFC 7540.
const (
	TypeData         Type = 0x0
	TypeHeaders      Type = 0x1
	TypePriority     Type = 0x2
	TypeRSTStream    Type = 0x3
	TypeSettings     Type = 0x4
	TypePushPromise  Type = 0x5
	TypePing         Type = 0x6
	TypeGoAway       Type = 0x7
	TypeWindowUpdate Type = 0x8
	TypeContinuation Type = 0x9
)

var typeNames = map[Type]string{
	TypeData:         "DATA",
	TypeHeaders:      "HEADERS",
	TypePriority:     "PRIORITY",
	TypeRSTStream:    "RST_STREAM",
	TypeSettings:     "SETTINGS",
	TypePushPromise:  "PUSH_PROMISE",
	TypePing:         "PING",
	TypeGoAway:       "GOAWAY",
	TypeWindowUpdate: "WINDOW_UPDATE",
	TypeContinuation: "CONTINUATION",
}

// String returns the RFC 7540 name of the frame type.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("UNKNOWN_FRAME_TYPE_%d", uint8(t))
}

// Flags holds the 8-bit flags field of a frame header. Flag meaning is
// frame-type specific.
type Flags uint8

// Has reports whether every bit of f2 is set in f.
func (f Flags) Has(f2 Flags) bool { return f&f2 == f2 }

// Frame flags defined by RFC 7540.
const (
	// FlagEndStream marks the last DATA or HEADERS frame of a stream.
	FlagEndStream Flags = 0x1
	// FlagAck acknowledges a SETTINGS or PING frame.
	FlagAck Flags = 0x1
	// FlagEndHeaders marks the end of a header block.
	FlagEndHeaders Flags = 0x4
	// FlagPadded indicates the frame carries padding.
	FlagPadded Flags = 0x8
	// FlagPriority indicates a HEADERS frame carries priority information.
	FlagPriority Flags = 0x20
)

// ErrCode is an HTTP/2 error code carried by RST_STREAM and GOAWAY frames
// (RFC 7540 section 7).
type ErrCode uint32

// Error codes defined by RFC 7540 section 7.
const (
	ErrCodeNo                 ErrCode = 0x0
	ErrCodeProtocol           ErrCode = 0x1
	ErrCodeInternal           ErrCode = 0x2
	ErrCodeFlowControl        ErrCode = 0x3
	ErrCodeSettingsTimeout    ErrCode = 0x4
	ErrCodeStreamClosed       ErrCode = 0x5
	ErrCodeFrameSize          ErrCode = 0x6
	ErrCodeRefusedStream      ErrCode = 0x7
	ErrCodeCancel             ErrCode = 0x8
	ErrCodeCompression        ErrCode = 0x9
	ErrCodeConnect            ErrCode = 0xa
	ErrCodeEnhanceYourCalm    ErrCode = 0xb
	ErrCodeInadequateSecurity ErrCode = 0xc
	ErrCodeHTTP11Required     ErrCode = 0xd
)

var errCodeNames = map[ErrCode]string{
	ErrCodeNo:                 "NO_ERROR",
	ErrCodeProtocol:           "PROTOCOL_ERROR",
	ErrCodeInternal:           "INTERNAL_ERROR",
	ErrCodeFlowControl:        "FLOW_CONTROL_ERROR",
	ErrCodeSettingsTimeout:    "SETTINGS_TIMEOUT",
	ErrCodeStreamClosed:       "STREAM_CLOSED",
	ErrCodeFrameSize:          "FRAME_SIZE_ERROR",
	ErrCodeRefusedStream:      "REFUSED_STREAM",
	ErrCodeCancel:             "CANCEL",
	ErrCodeCompression:        "COMPRESSION_ERROR",
	ErrCodeConnect:            "CONNECT_ERROR",
	ErrCodeEnhanceYourCalm:    "ENHANCE_YOUR_CALM",
	ErrCodeInadequateSecurity: "INADEQUATE_SECURITY",
	ErrCodeHTTP11Required:     "HTTP_1_1_REQUIRED",
}

// String returns the RFC 7540 name of the error code.
func (e ErrCode) String() string {
	if s, ok := errCodeNames[e]; ok {
		return s
	}
	return fmt.Sprintf("unknown error code 0x%x", uint32(e))
}

// ConnError is a connection-level protocol error. A peer detecting one must
// send GOAWAY and tear down the connection (RFC 7540 section 5.4.1).
type ConnError struct {
	Code   ErrCode
	Reason string
}

// Error implements the error interface.
func (e ConnError) Error() string {
	return fmt.Sprintf("connection error (%v): %s", e.Code, e.Reason)
}

// StreamError is a stream-level protocol error. A peer detecting one must
// send RST_STREAM for the affected stream (RFC 7540 section 5.4.2).
type StreamError struct {
	StreamID uint32
	Code     ErrCode
	Reason   string
}

// Error implements the error interface.
func (e StreamError) Error() string {
	return fmt.Sprintf("stream error on stream %d (%v): %s", e.StreamID, e.Code, e.Reason)
}

// Header is the 9-byte header that prefixes every HTTP/2 frame.
type Header struct {
	// Length is the 24-bit payload length, excluding the header itself.
	Length uint32
	// Type is the frame type.
	Type Type
	// Flags holds type-specific boolean flags.
	Flags Flags
	// StreamID is the 31-bit stream identifier; 0 addresses the connection.
	StreamID uint32
}

// String renders the header for logs and probe transcripts.
func (h Header) String() string {
	return fmt.Sprintf("[%v flags=0x%x stream=%d len=%d]", h.Type, uint8(h.Flags), h.StreamID, h.Length)
}

func parseHeader(buf []byte) Header {
	return Header{
		Length:   uint32(buf[0])<<16 | uint32(buf[1])<<8 | uint32(buf[2]),
		Type:     Type(buf[3]),
		Flags:    Flags(buf[4]),
		StreamID: binary.BigEndian.Uint32(buf[5:9]) & MaxStreamID,
	}
}

// Frame is the interface implemented by all typed frames.
type Frame interface {
	// Header returns the frame header as read from or written to the wire.
	Header() Header
}

// PriorityParam carries the stream prioritization fields of HEADERS and
// PRIORITY frames (RFC 7540 section 5.3).
type PriorityParam struct {
	// StreamDep is the stream this stream depends on; 0 means the root.
	StreamDep uint32
	// Exclusive requests exclusive dependency on StreamDep.
	Exclusive bool
	// Weight is the dependency weight minus one (wire value 0-255 encodes
	// weights 1-256). This struct stores the wire value.
	Weight uint8
}

// IsZero reports whether the parameter carries no prioritization signal.
func (p PriorityParam) IsZero() bool { return p == PriorityParam{} }

// DataFrame is a DATA frame (RFC 7540 section 6.1).
type DataFrame struct {
	hdr Header
	// Data is the flow-controlled payload, excluding any padding.
	Data []byte
	// PadLength is the number of padding octets carried by the frame.
	PadLength int
}

// Header returns the frame header.
func (f *DataFrame) Header() Header { return f.hdr }

// StreamEnded reports whether END_STREAM is set.
func (f *DataFrame) StreamEnded() bool { return f.hdr.Flags.Has(FlagEndStream) }

// FlowControlLen returns the number of octets the frame consumes from
// flow-control windows: data plus padding plus the pad-length octet.
func (f *DataFrame) FlowControlLen() int {
	n := len(f.Data)
	if f.hdr.Flags.Has(FlagPadded) {
		n += f.PadLength + 1
	}
	return n
}

// HeadersFrame is a HEADERS frame (RFC 7540 section 6.2). The framer does
// not decode the header block; Fragment carries the raw HPACK bytes.
type HeadersFrame struct {
	hdr Header
	// Priority holds prioritization fields when FlagPriority is set.
	Priority PriorityParam
	// Fragment is the (possibly partial) HPACK-encoded header block.
	Fragment []byte
	// PadLength is the number of padding octets carried by the frame.
	PadLength int
}

// Header returns the frame header.
func (f *HeadersFrame) Header() Header { return f.hdr }

// StreamEnded reports whether END_STREAM is set.
func (f *HeadersFrame) StreamEnded() bool { return f.hdr.Flags.Has(FlagEndStream) }

// HeadersEnded reports whether END_HEADERS is set.
func (f *HeadersFrame) HeadersEnded() bool { return f.hdr.Flags.Has(FlagEndHeaders) }

// HasPriority reports whether the frame carries prioritization fields.
func (f *HeadersFrame) HasPriority() bool { return f.hdr.Flags.Has(FlagPriority) }

// PriorityFrame is a PRIORITY frame (RFC 7540 section 6.3).
type PriorityFrame struct {
	hdr Header
	// Priority holds the new prioritization for the stream.
	Priority PriorityParam
}

// Header returns the frame header.
func (f *PriorityFrame) Header() Header { return f.hdr }

// RSTStreamFrame is an RST_STREAM frame (RFC 7540 section 6.4).
type RSTStreamFrame struct {
	hdr Header
	// Code is the error code explaining the reset.
	Code ErrCode
}

// Header returns the frame header.
func (f *RSTStreamFrame) Header() Header { return f.hdr }

// Setting is one identifier/value pair of a SETTINGS frame.
type Setting struct {
	ID  SettingID
	Val uint32
}

// String renders the setting for logs.
func (s Setting) String() string { return fmt.Sprintf("%v=%d", s.ID, s.Val) }

// SettingID identifies a SETTINGS parameter (RFC 7540 section 6.5.2).
type SettingID uint16

// SETTINGS parameters defined by RFC 7540.
const (
	SettingHeaderTableSize      SettingID = 0x1
	SettingEnablePush           SettingID = 0x2
	SettingMaxConcurrentStreams SettingID = 0x3
	SettingInitialWindowSize    SettingID = 0x4
	SettingMaxFrameSize         SettingID = 0x5
	SettingMaxHeaderListSize    SettingID = 0x6
)

var settingNames = map[SettingID]string{
	SettingHeaderTableSize:      "SETTINGS_HEADER_TABLE_SIZE",
	SettingEnablePush:           "SETTINGS_ENABLE_PUSH",
	SettingMaxConcurrentStreams: "SETTINGS_MAX_CONCURRENT_STREAMS",
	SettingInitialWindowSize:    "SETTINGS_INITIAL_WINDOW_SIZE",
	SettingMaxFrameSize:         "SETTINGS_MAX_FRAME_SIZE",
	SettingMaxHeaderListSize:    "SETTINGS_MAX_HEADER_LIST_SIZE",
}

// String returns the RFC 7540 name of the setting.
func (s SettingID) String() string {
	if n, ok := settingNames[s]; ok {
		return n
	}
	return fmt.Sprintf("SETTINGS_UNKNOWN_%d", uint16(s))
}

// Valid checks the setting value against RFC 7540 section 6.5.2 and returns
// a connection error for out-of-range values.
func (s Setting) Valid() error {
	switch s.ID {
	case SettingEnablePush:
		if s.Val != 0 && s.Val != 1 {
			return ConnError{ErrCodeProtocol, "SETTINGS_ENABLE_PUSH must be 0 or 1"}
		}
	case SettingInitialWindowSize:
		if s.Val > MaxWindowSize {
			return ConnError{ErrCodeFlowControl, "SETTINGS_INITIAL_WINDOW_SIZE above 2^31-1"}
		}
	case SettingMaxFrameSize:
		if s.Val < DefaultMaxFrameSize || s.Val > MaxAllowedFrameSize {
			return ConnError{ErrCodeProtocol, "SETTINGS_MAX_FRAME_SIZE out of range"}
		}
	}
	return nil
}

// SettingsFrame is a SETTINGS frame (RFC 7540 section 6.5).
type SettingsFrame struct {
	hdr Header
	// Settings lists the identifier/value pairs in wire order.
	Settings []Setting
}

// Header returns the frame header.
func (f *SettingsFrame) Header() Header { return f.hdr }

// IsAck reports whether the frame acknowledges a previous SETTINGS frame.
func (f *SettingsFrame) IsAck() bool { return f.hdr.Flags.Has(FlagAck) }

// Value returns the last value present for id, if any. RFC 7540 section
// 6.5.3 makes later occurrences win.
func (f *SettingsFrame) Value(id SettingID) (uint32, bool) {
	var (
		val   uint32
		found bool
	)
	for _, s := range f.Settings {
		if s.ID == id {
			val, found = s.Val, true
		}
	}
	return val, found
}

// PushPromiseFrame is a PUSH_PROMISE frame (RFC 7540 section 6.6).
type PushPromiseFrame struct {
	hdr Header
	// PromiseID is the stream the server reserves for the pushed response.
	PromiseID uint32
	// Fragment is the HPACK-encoded synthetic request header block.
	Fragment []byte
	// PadLength is the number of padding octets carried by the frame.
	PadLength int
}

// Header returns the frame header.
func (f *PushPromiseFrame) Header() Header { return f.hdr }

// HeadersEnded reports whether END_HEADERS is set.
func (f *PushPromiseFrame) HeadersEnded() bool { return f.hdr.Flags.Has(FlagEndHeaders) }

// PingFrame is a PING frame (RFC 7540 section 6.7).
type PingFrame struct {
	hdr Header
	// Data is the fixed 8-byte opaque payload.
	Data [8]byte
}

// Header returns the frame header.
func (f *PingFrame) Header() Header { return f.hdr }

// IsAck reports whether the frame is a PING response.
func (f *PingFrame) IsAck() bool { return f.hdr.Flags.Has(FlagAck) }

// GoAwayFrame is a GOAWAY frame (RFC 7540 section 6.8).
type GoAwayFrame struct {
	hdr Header
	// LastStreamID is the highest stream the sender may have acted on.
	LastStreamID uint32
	// Code is the error code explaining the shutdown.
	Code ErrCode
	// DebugData is optional additional diagnostic data.
	DebugData []byte
}

// Header returns the frame header.
func (f *GoAwayFrame) Header() Header { return f.hdr }

// WindowUpdateFrame is a WINDOW_UPDATE frame (RFC 7540 section 6.9).
type WindowUpdateFrame struct {
	hdr Header
	// Increment is the 31-bit window-size increment. A compliant sender
	// never sends 0, but H2Scope does so deliberately.
	Increment uint32
}

// Header returns the frame header.
func (f *WindowUpdateFrame) Header() Header { return f.hdr }

// ContinuationFrame is a CONTINUATION frame (RFC 7540 section 6.10).
type ContinuationFrame struct {
	hdr Header
	// Fragment continues a header block started by HEADERS or PUSH_PROMISE.
	Fragment []byte
}

// Header returns the frame header.
func (f *ContinuationFrame) Header() Header { return f.hdr }

// HeadersEnded reports whether END_HEADERS is set.
func (f *ContinuationFrame) HeadersEnded() bool { return f.hdr.Flags.Has(FlagEndHeaders) }

// UnknownFrame carries a frame of a type this package does not know.
// RFC 7540 section 4.1 requires implementations to ignore such frames.
type UnknownFrame struct {
	hdr Header
	// Payload is the raw frame payload.
	Payload []byte
}

// Header returns the frame header.
func (f *UnknownFrame) Header() Header { return f.hdr }

// Interface compliance checks.
var (
	_ Frame = (*DataFrame)(nil)
	_ Frame = (*HeadersFrame)(nil)
	_ Frame = (*PriorityFrame)(nil)
	_ Frame = (*RSTStreamFrame)(nil)
	_ Frame = (*SettingsFrame)(nil)
	_ Frame = (*PushPromiseFrame)(nil)
	_ Frame = (*PingFrame)(nil)
	_ Frame = (*GoAwayFrame)(nil)
	_ Frame = (*WindowUpdateFrame)(nil)
	_ Frame = (*ContinuationFrame)(nil)
	_ Frame = (*UnknownFrame)(nil)
	_ error = ConnError{}
	_ error = StreamError{}
)
