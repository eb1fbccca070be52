package frame

import "fmt"

// maxHeaderBlockBytes bounds one header block, the fragments of its HEADERS
// or PUSH_PROMISE frame and of every CONTINUATION together: without it a peer
// can send CONTINUATION frames forever while the connection makes no progress
// (the CONTINUATION flood).
const maxHeaderBlockBytes = 256 << 10

var errHeaderBlockTooLarge = ConnError{ErrCodeEnhanceYourCalm, fmt.Sprintf("header block exceeds %d bytes", maxHeaderBlockBytes)}

// HeaderBlock assembles header blocks across CONTINUATION frames and holds a
// connection to RFC 7540 section 6.10: from a HEADERS or PUSH_PROMISE frame
// without END_HEADERS to the CONTINUATION that carries it, only CONTINUATION
// frames on that stream may arrive. The reading goroutine feeds it every
// frame ReadFrame returns. ReadFrame stays one wire frame per call, so traces
// and metrics see every CONTINUATION, and a server that reads and writes on
// one goroutine can flush between a slow peer's fragments.
type HeaderBlock struct {
	stream      uint32 // the open block's stream; 0 when none is open
	push        bool   // pushPromise, not headers, opened the block
	headers     HeadersFrame
	pushPromise PushPromiseFrame
	buf         []byte // the open block's fragments; the array is reused
}

// Add takes the next frame read. It returns f itself outside a header block,
// nil while a block is open, and the whole block when f ends one: a HEADERS
// or PUSH_PROMISE frame with END_HEADERS set and the opening frame's stream,
// flags, Priority and PromiseID, whose Fragment is the complete block. A
// block in one frame is f, not copied; an assembled one is valid until the
// next Add. A section 6.10 violation is a ConnError with PROTOCOL_ERROR, a
// block past maxHeaderBlockBytes one with ENHANCE_YOUR_CALM; either closes
// the open block.
func (b *HeaderBlock) Add(f Frame) (Frame, error) {
	if b.stream != 0 {
		return b.continueBlock(f)
	}
	var frag []byte
	switch f := f.(type) {
	case *HeadersFrame:
		b.headers, b.push, frag = *f, false, f.Fragment
	case *PushPromiseFrame:
		b.pushPromise, b.push, frag = *f, true, f.Fragment
	case *ContinuationFrame:
		return nil, ConnError{ErrCodeProtocol, "CONTINUATION without an open header block"}
	default:
		return f, nil
	}
	if len(frag) > maxHeaderBlockBytes {
		return nil, errHeaderBlockTooLarge
	}
	if f.Header().Flags.Has(FlagEndHeaders) {
		return f, nil
	}
	b.stream = f.Header().StreamID
	b.buf = append(b.buf[:0], frag...)
	return nil, nil
}

func (b *HeaderBlock) continueBlock(f Frame) (Frame, error) {
	stream := b.stream
	b.stream = 0
	cf, ok := f.(*ContinuationFrame)
	if !ok || cf.hdr.StreamID != stream {
		return nil, ConnError{ErrCodeProtocol, fmt.Sprintf("%v on stream %d inside the header block of stream %d", f.Header().Type, f.Header().StreamID, stream)}
	}
	if len(b.buf)+len(cf.Fragment) > maxHeaderBlockBytes {
		return nil, errHeaderBlockTooLarge
	}
	b.buf = append(b.buf, cf.Fragment...)
	if !cf.HeadersEnded() {
		b.stream = stream
		return nil, nil
	}
	if b.push {
		b.pushPromise.hdr.Flags |= FlagEndHeaders
		b.pushPromise.Fragment = b.buf
		return &b.pushPromise, nil
	}
	b.headers.hdr.Flags |= FlagEndHeaders
	b.headers.Fragment = b.buf
	return &b.headers, nil
}
