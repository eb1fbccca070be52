package conformance

// GREASE check: the h2 ecosystem's clients ship ClientHellos full
// of GREASE values (RFC 8701), and middleboxes that choke on them break
// HTTP/2 adoption silently. The check replays a GREASE-laden TLS 1.2-style
// hello raw and reads the plaintext ServerHello back: the server must still
// negotiate h2 via ALPN.

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// greaseClientHello builds a TLS 1.2-style ClientHello with GREASE values
// injected into the cipher list, the extension list, and the named groups,
// offering ALPN h2. Staying at TLS 1.2 (no supported_versions extension)
// keeps the ServerHello's ALPN extension in plaintext, so the check can
// read the negotiation result without completing a handshake.
func greaseClientHello(serverName string) []byte {
	var body []byte
	be16 := func(v uint16) []byte { return binary.BigEndian.AppendUint16(nil, v) }

	body = append(body, 0x03, 0x03) // legacy_version TLS 1.2
	random := make([]byte, 32)
	for i := range random {
		random[i] = byte(i * 7)
	}
	body = append(body, random...)
	body = append(body, 0) // empty session_id

	ciphers := []uint16{
		0x0a0a, // GREASE
		0xc02b, // ECDHE_ECDSA_AES_128_GCM_SHA256
		0xc02c, // ECDHE_ECDSA_AES_256_GCM_SHA384
		0xc02f, // ECDHE_RSA_AES_128_GCM_SHA256
		0xc030, // ECDHE_RSA_AES_256_GCM_SHA384
		0xcca9, // ECDHE_ECDSA_CHACHA20_POLY1305
		0xcca8, // ECDHE_RSA_CHACHA20_POLY1305
	}
	body = append(body, be16(uint16(2*len(ciphers)))...)
	for _, cs := range ciphers {
		body = append(body, be16(cs)...)
	}
	body = append(body, 1, 0) // compression: null only

	var exts []byte
	ext := func(id uint16, data []byte) {
		exts = append(exts, be16(id)...)
		exts = append(exts, be16(uint16(len(data)))...)
		exts = append(exts, data...)
	}
	ext(0x1a1a, nil) // GREASE extension, empty body
	// server_name
	sni := append(be16(uint16(len(serverName)+3)), 0)
	sni = append(sni, be16(uint16(len(serverName)))...)
	sni = append(sni, serverName...)
	ext(0, sni)
	// supported_groups, GREASE first
	groups := []uint16{0x2a2a, 29, 23, 24}
	g := be16(uint16(2 * len(groups)))
	for _, gr := range groups {
		g = append(g, be16(gr)...)
	}
	ext(10, g)
	ext(11, []byte{1, 0}) // ec_point_formats: uncompressed
	// signature_algorithms
	sigs := []uint16{0x0403, 0x0804, 0x0401, 0x0503, 0x0805, 0x0501, 0x0603, 0x0806, 0x0601}
	s := be16(uint16(2 * len(sigs)))
	for _, sg := range sigs {
		s = append(s, be16(sg)...)
	}
	ext(13, s)
	// ALPN: h2, http/1.1
	var alpn []byte
	for _, proto := range []string{"h2", "http/1.1"} {
		alpn = append(alpn, byte(len(proto)))
		alpn = append(alpn, proto...)
	}
	ext(16, append(be16(uint16(len(alpn))), alpn...))

	body = append(body, be16(uint16(len(exts)))...)
	body = append(body, exts...)

	msg := append([]byte{1, byte(len(body) >> 16), byte(len(body) >> 8), byte(len(body))}, body...)
	rec := append([]byte{0x16, 0x03, 0x01}, be16(uint16(len(msg)))...)
	return append(rec, msg...)
}

// serverHelloALPN reads TLS records from r until one complete ServerHello
// handshake message is assembled, and returns its ALPN selection ("" when
// the extension is absent). A fatal alert instead of a ServerHello is an
// error carrying the alert description.
func serverHelloALPN(r io.Reader) (string, error) {
	var hs []byte
	for len(hs) < 4 || len(hs) < 4+int(uint32(hs[1])<<16|uint32(hs[2])<<8|uint32(hs[3])) {
		hdr := make([]byte, 5)
		if _, err := io.ReadFull(r, hdr); err != nil {
			return "", fmt.Errorf("reading record header: %w", err)
		}
		payload := make([]byte, binary.BigEndian.Uint16(hdr[3:5]))
		if _, err := io.ReadFull(r, payload); err != nil {
			return "", fmt.Errorf("reading record body: %w", err)
		}
		switch hdr[0] {
		case 21: // alert
			if len(payload) >= 2 {
				return "", fmt.Errorf("TLS alert %d instead of ServerHello", payload[1])
			}
			return "", fmt.Errorf("truncated TLS alert")
		case 22: // handshake
			hs = append(hs, payload...)
		default:
			return "", fmt.Errorf("unexpected TLS record type %d", hdr[0])
		}
	}
	if hs[0] != 2 {
		return "", fmt.Errorf("handshake message type %d, want ServerHello", hs[0])
	}
	b := hs[4:]
	// legacy_version + random + session_id + cipher_suite + compression
	if len(b) < 35 {
		return "", fmt.Errorf("short ServerHello")
	}
	b = b[34:]
	sidLen := int(b[0])
	if len(b) < 1+sidLen+3 {
		return "", fmt.Errorf("short ServerHello")
	}
	b = b[1+sidLen+3:]
	if len(b) < 2 {
		return "", nil // no extensions block
	}
	extLen := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if extLen > len(b) {
		return "", fmt.Errorf("ServerHello extensions overflow")
	}
	b = b[:extLen]
	for len(b) >= 4 {
		id := binary.BigEndian.Uint16(b)
		n := int(binary.BigEndian.Uint16(b[2:]))
		if 4+n > len(b) {
			return "", fmt.Errorf("ServerHello extension %d overflows", id)
		}
		data := b[4 : 4+n]
		b = b[4+n:]
		if id != 16 {
			continue
		}
		if len(data) < 3 || int(data[2]) != len(data)-3 {
			return "", fmt.Errorf("malformed ServerHello ALPN extension")
		}
		return string(data[3:]), nil
	}
	return "", nil
}

func checkGREASEHelloNegotiatesH2(env *Env) (Verdict, string) {
	if env.TLSDialer == nil {
		return Skip, "no TLS endpoint configured"
	}
	hello := greaseClientHello(env.TLSServerName)
	nc, err := env.TLSDialer.Dial()
	if err != nil {
		return Skip, err.Error()
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(env.Timeout))
	if _, err := nc.Write(hello); err != nil {
		return Fail, fmt.Sprintf("writing GREASE hello: %v", err)
	}
	alpn, err := readServerHelloALPN(nc, env.Timeout)
	if err != nil {
		return Fail, fmt.Sprintf("GREASE hello rejected: %v", err)
	}
	if alpn != "h2" {
		return Fail, fmt.Sprintf("server negotiated %q, want h2", alpn)
	}
	return Pass, ""
}

// readServerHelloALPN bounds serverHelloALPN with a timeout, since
// simulated transports implement deadlines as no-ops.
func readServerHelloALPN(nc net.Conn, timeout time.Duration) (string, error) {
	type res struct {
		alpn string
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		alpn, err := serverHelloALPN(nc)
		ch <- res{alpn, err}
	}()
	select {
	case r := <-ch:
		return r.alpn, r.err
	case <-time.After(timeout):
		return "", fmt.Errorf("no ServerHello within %v", timeout)
	}
}
