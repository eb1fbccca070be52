// Package hpack implements HPACK header compression for HTTP/2 as specified
// by RFC 7541.
//
// It is a from-scratch implementation: the static table, the dynamic table
// with eviction, the N-bit-prefix integer primitive, Huffman-coded string
// literals, an Encoder with a configurable indexing policy, and a Decoder.
//
// The configurable indexing policy exists because the paper's Figs. 4 and 5
// hinge on a real-world divergence: Nginx/Tengine never insert *response*
// header fields into the dynamic table (their compression ratio r is ~1 for
// repeated responses), while GSE/LiteSpeed index aggressively (r < 0.3).
// Server behavior profiles select a policy to reproduce exactly that.
package hpack

import (
	"errors"
	"fmt"
)

// HeaderField is a single name/value pair.
type HeaderField struct {
	Name, Value string
	// Sensitive marks the field never-indexed (RFC 7541 section 6.2.3):
	// encoded with the never-indexed literal representation and excluded
	// from the dynamic table.
	Sensitive bool
}

// String renders the field for logs.
func (hf HeaderField) String() string {
	suffix := ""
	if hf.Sensitive {
		suffix = " (sensitive)"
	}
	return fmt.Sprintf("%s: %s%s", hf.Name, hf.Value, suffix)
}

// Size returns the field's size per RFC 7541 section 4.1: name length plus
// value length plus 32 octets of bookkeeping overhead.
func (hf HeaderField) Size() uint32 {
	return uint32(len(hf.Name) + len(hf.Value) + 32)
}

// DecodingError wraps any error encountered while decoding a header block.
// RFC 7541 treats every decoding error as a COMPRESSION_ERROR connection
// error; the caller maps this type accordingly.
type DecodingError struct {
	Err error
}

// Error implements the error interface.
func (e DecodingError) Error() string { return fmt.Sprintf("hpack: decoding error: %v", e.Err) }

// Unwrap supports errors.Is/As.
func (e DecodingError) Unwrap() error { return e.Err }

// ErrHeaderListSize is returned when a decoded header block expands past
// the decoder's SetMaxHeaderListSize bound (the HPACK-bomb guard).
var ErrHeaderListSize = errors.New("hpack: decoded header list too large")

// ErrInvalidIndex is returned when an indexed representation references a
// table slot that does not exist.
var ErrInvalidIndex = errors.New("hpack: invalid table index")

// appendVarInt encodes n using the N-bit prefix integer representation of
// RFC 7541 section 5.1 and appends it to dst. first carries the bits that
// share the first octet with the prefix (representation tag bits).
func appendVarInt(dst []byte, prefixBits uint8, first byte, n uint64) []byte {
	limit := uint64(1)<<prefixBits - 1
	if n < limit {
		return append(dst, first|byte(n))
	}
	dst = append(dst, first|byte(limit))
	n -= limit
	for n >= 128 {
		dst = append(dst, byte(n&0x7f)|0x80)
		n >>= 7
	}
	return append(dst, byte(n))
}

// readVarInt decodes an N-bit prefix integer from buf, returning the value
// and the remaining bytes.
func readVarInt(buf []byte, prefixBits uint8) (uint64, []byte, error) {
	if len(buf) == 0 {
		return 0, nil, DecodingError{errors.New("truncated integer")}
	}
	limit := uint64(1)<<prefixBits - 1
	n := uint64(buf[0]) & limit
	buf = buf[1:]
	if n < limit {
		return n, buf, nil
	}
	var shift uint
	for {
		if len(buf) == 0 {
			return 0, nil, DecodingError{errors.New("truncated integer continuation")}
		}
		b := buf[0]
		buf = buf[1:]
		n += uint64(b&0x7f) << shift
		shift += 7
		if b&0x80 == 0 {
			break
		}
		if shift > 62 {
			return 0, nil, DecodingError{errors.New("integer overflow")}
		}
	}
	return n, buf, nil
}
