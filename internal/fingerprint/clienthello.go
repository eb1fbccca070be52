// Package fingerprint derives passive client fingerprints from the two
// places a client cannot help but reveal itself: the TLS ClientHello it
// sends before any application byte, and the first HTTP/2 frames it emits
// after the preface. It renders the canonical JA3, JA4, and JA4H strings
// (plus hashes) from the hello and request headers, and the "akamai"
// behavioral fingerprint from SETTINGS order/values, the initial
// connection WINDOW_UPDATE delta, PRIORITY frames, and pseudo-header
// order. The package is deliberately passive: it never mutates, replays,
// or delays the bytes it inspects.
package fingerprint

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ExtensionID is a TLS extension type code (IANA "TLS ExtensionType
// Values" registry, RFC 8446 §4.2).
type ExtensionID uint16

// TLS extension type codes the parser gives dedicated treatment, per the
// IANA ExtensionType registry.
const (
	ExtServerName          ExtensionID = 0
	ExtSupportedGroups     ExtensionID = 10
	ExtECPointFormats      ExtensionID = 11
	ExtSignatureAlgorithms ExtensionID = 13
	ExtALPN                ExtensionID = 16
	ExtSupportedVersions   ExtensionID = 43
)

// ClientHello is the parsed, order-preserving view of one TLS ClientHello.
// Every slice keeps the client's wire order, GREASE values included; the
// fingerprint renderers decide what to filter.
type ClientHello struct {
	// Version is the legacy_version field of the hello body.
	Version uint16
	// CipherSuites lists the offered cipher suites in order.
	CipherSuites []uint16
	// Extensions lists the extension type codes in order.
	Extensions []uint16
	// Groups is the supported_groups (née elliptic_curves) list.
	Groups []uint16
	// PointFormats is the ec_point_formats list.
	PointFormats []uint8
	// ALPN lists the offered application protocols in order.
	ALPN []string
	// SignatureAlgorithms is the signature_algorithms list in order.
	SignatureAlgorithms []uint16
	// SupportedVersions is the supported_versions list in order.
	SupportedVersions []uint16
	// ServerName is the SNI host_name, if the extension was present.
	ServerName string
}

// Parse errors. Callers that pre-parse live connections treat any error as
// "not fingerprintable" and carry on; nothing here is fatal to the
// handshake itself.
var (
	// ErrTruncated reports bytes that look like the prefix of a TLS
	// handshake but end before the ClientHello completes; callers that
	// stream may retry with more data.
	ErrTruncated    = errors.New("fingerprint: truncated TLS record")
	errNotHandshake = errors.New("fingerprint: not a TLS handshake record")
	errNotHello     = errors.New("fingerprint: not a ClientHello")
	errMalformed    = errors.New("fingerprint: malformed ClientHello")
)

const (
	recordTypeHandshake  = 0x16
	handshakeClientHello = 0x01
)

// IsGREASE reports whether v is a GREASE value (RFC 8701): both bytes
// equal and of the form 0xXa with X equal in both nibbles positions,
// i.e. 0x0a0a, 0x1a1a, ... 0xfafa.
func IsGREASE(v uint16) bool {
	return v&0x0f0f == 0x0a0a && byte(v>>8) == byte(v)
}

// ParseClientHello parses a ClientHello from data, which may be either one
// or more TLS records (first byte 0x16) or a bare handshake message (first
// byte 0x01). Fragmented handshakes spanning several records are
// reassembled. Trailing bytes after the hello are ignored. The returned
// ClientHello does not alias data.
func ParseClientHello(data []byte) (*ClientHello, error) {
	if len(data) == 0 {
		return nil, ErrTruncated
	}
	var body []byte
	switch data[0] {
	case handshakeClientHello:
		body = data
	case recordTypeHandshake:
		var err error
		if body, err = reassembleHandshake(data); err != nil {
			return nil, err
		}
	default:
		return nil, errNotHandshake
	}
	return parseHelloBody(body)
}

// reassembleHandshake concatenates the payloads of consecutive handshake
// records until the first handshake message is complete.
func reassembleHandshake(data []byte) ([]byte, error) {
	var body []byte
	for len(data) > 0 {
		if len(data) < 5 {
			return nil, ErrTruncated
		}
		if data[0] != recordTypeHandshake {
			return nil, errNotHandshake
		}
		n := int(binary.BigEndian.Uint16(data[3:5]))
		if n == 0 || len(data) < 5+n {
			return nil, ErrTruncated
		}
		body = append(body, data[5:5+n]...)
		data = data[5+n:]
		if len(body) >= 4 {
			want := 4 + int(uint32(body[1])<<16|uint32(body[2])<<8|uint32(body[3]))
			if len(body) >= want {
				return body, nil
			}
		}
	}
	return nil, ErrTruncated
}

// cursor is a bounds-checked big-endian reader over the hello body. All
// take* methods report ok=false instead of panicking on truncation, which
// is what makes the parser safe to point at attacker bytes.
type cursor struct {
	b []byte
}

func (c *cursor) take(n int) ([]byte, bool) {
	if n < 0 || len(c.b) < n {
		return nil, false
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out, true
}

func (c *cursor) u8() (uint8, bool) {
	b, ok := c.take(1)
	if !ok {
		return 0, false
	}
	return b[0], true
}

func (c *cursor) u16() (uint16, bool) {
	b, ok := c.take(2)
	if !ok {
		return 0, false
	}
	return binary.BigEndian.Uint16(b), true
}

// vec returns the contents of a length-prefixed vector whose length field
// is lenBytes (1 or 2) wide.
func (c *cursor) vec(lenBytes int) ([]byte, bool) {
	var n int
	switch lenBytes {
	case 1:
		v, ok := c.u8()
		if !ok {
			return nil, false
		}
		n = int(v)
	case 2:
		v, ok := c.u16()
		if !ok {
			return nil, false
		}
		n = int(v)
	default:
		return nil, false
	}
	return c.take(n)
}

// parseHelloBody parses a complete handshake message known to start with
// the ClientHello type byte.
func parseHelloBody(body []byte) (*ClientHello, error) {
	c := cursor{body}
	typ, ok := c.u8()
	if !ok || typ != handshakeClientHello {
		return nil, errNotHello
	}
	lb, ok := c.take(3)
	if !ok {
		return nil, errMalformed
	}
	n := int(uint32(lb[0])<<16 | uint32(lb[1])<<8 | uint32(lb[2]))
	msg, ok := c.take(n)
	if !ok {
		return nil, errMalformed
	}
	c = cursor{msg}

	hello := &ClientHello{}
	if hello.Version, ok = c.u16(); !ok {
		return nil, errMalformed
	}
	if _, ok = c.take(32); !ok { // random
		return nil, errMalformed
	}
	if _, ok = c.vec(1); !ok { // legacy_session_id
		return nil, errMalformed
	}
	suites, ok := c.vec(2)
	if !ok || len(suites)%2 != 0 {
		return nil, errMalformed
	}
	for i := 0; i+1 < len(suites); i += 2 {
		hello.CipherSuites = append(hello.CipherSuites, binary.BigEndian.Uint16(suites[i:]))
	}
	if _, ok = c.vec(1); !ok { // legacy_compression_methods
		return nil, errMalformed
	}
	if len(c.b) == 0 {
		return hello, nil // SSLv3-style hello without extensions
	}
	exts, ok := c.vec(2)
	if !ok {
		return nil, errMalformed
	}
	if err := parseExtensions(hello, exts); err != nil {
		return nil, err
	}
	return hello, nil
}

// parseExtensions walks the extension list, recording type order and
// decoding the handful of extensions the fingerprints consume.
func parseExtensions(hello *ClientHello, exts []byte) error {
	c := cursor{exts}
	for len(c.b) > 0 {
		id, ok := c.u16()
		if !ok {
			return errMalformed
		}
		data, ok := c.vec(2)
		if !ok {
			return errMalformed
		}
		hello.Extensions = append(hello.Extensions, id)
		// Per-extension decode failures are deliberately tolerated: a
		// malformed inner vector still counts for extension order, which
		// is all JA3/JA4 need from unfamiliar extensions.
		switch ExtensionID(id) {
		case ExtServerName:
			hello.ServerName = parseSNI(data)
		case ExtSupportedGroups:
			hello.Groups = parseU16Vec(data)
		case ExtECPointFormats:
			hello.PointFormats = parseU8Vec(data)
		case ExtALPN:
			hello.ALPN = parseALPN(data)
		case ExtSignatureAlgorithms:
			hello.SignatureAlgorithms = parseU16Vec(data)
		case ExtSupportedVersions:
			hello.SupportedVersions = parseVersions(data)
		}
	}
	return nil
}

func parseSNI(data []byte) string {
	c := cursor{data}
	list, ok := c.vec(2)
	if !ok {
		return ""
	}
	c = cursor{list}
	for len(c.b) > 0 {
		typ, ok := c.u8()
		if !ok {
			return ""
		}
		name, ok := c.vec(2)
		if !ok {
			return ""
		}
		if typ == 0 { // host_name
			return string(name)
		}
	}
	return ""
}

func parseU16Vec(data []byte) []uint16 {
	c := cursor{data}
	list, ok := c.vec(2)
	if !ok || len(list)%2 != 0 {
		return nil
	}
	out := make([]uint16, 0, len(list)/2)
	for i := 0; i+1 < len(list); i += 2 {
		out = append(out, binary.BigEndian.Uint16(list[i:]))
	}
	return out
}

func parseU8Vec(data []byte) []uint8 {
	c := cursor{data}
	list, ok := c.vec(1)
	if !ok {
		return nil
	}
	out := make([]uint8, len(list))
	copy(out, list)
	return out
}

func parseALPN(data []byte) []string {
	c := cursor{data}
	list, ok := c.vec(2)
	if !ok {
		return nil
	}
	c = cursor{list}
	var out []string
	for len(c.b) > 0 {
		proto, ok := c.vec(1)
		if !ok {
			return out
		}
		out = append(out, string(proto))
	}
	return out
}

func parseVersions(data []byte) []uint16 {
	c := cursor{data}
	list, ok := c.vec(1)
	if !ok || len(list)%2 != 0 {
		return nil
	}
	out := make([]uint16, 0, len(list)/2)
	for i := 0; i+1 < len(list); i += 2 {
		out = append(out, binary.BigEndian.Uint16(list[i:]))
	}
	return out
}

// String summarizes the hello for logs.
func (h *ClientHello) String() string {
	return fmt.Sprintf("ClientHello{ver=%#04x ciphers=%d exts=%d sni=%q alpn=%v}",
		h.Version, len(h.CipherSuites), len(h.Extensions), h.ServerName, h.ALPN)
}
