package tlsutil

import (
	"crypto/tls"
	"fmt"
	"io"
	"net"
	"sync"

	"h2scope/internal/fingerprint"
)

// This file gives the testbed server sight of the ClientHello: a buffered
// net.Conn wrapper reads the raw TLS record(s) of the ClientHello before
// crypto/tls does, parses them with internal/fingerprint, then replays every
// byte so the handshake proceeds untouched (NewFingerprintListener). A
// regression test holds its JA3 to the one crypto/tls's own parse of the same
// hello yields; the pre-parse additionally sees GREASE values and exact
// extension bytes, which JA4 wants and ClientHelloInfo partially normalizes
// away.

// peek limits: a ClientHello larger than this is not a browser, and not
// worth buffering.
const (
	maxPeekRecords = 8
	maxPeekBytes   = 64 << 10
)

// peekConn wraps a raw accepted conn. On the first Read — which under
// tls.Server happens on the serving goroutine, keeping Accept loops
// non-blocking — it slurps the ClientHello record(s), parses them, and
// then replays the buffered bytes before resuming pass-through reads.
type peekConn struct {
	net.Conn
	once   sync.Once
	replay []byte

	mu    sync.Mutex
	hello *fingerprint.ClientHello
}

// Read performs the lazy peek, then drains the replay buffer before
// delegating to the underlying conn.
func (c *peekConn) Read(p []byte) (int, error) {
	c.once.Do(c.peek)
	if len(c.replay) > 0 {
		n := copy(p, c.replay)
		c.replay = c.replay[n:]
		return n, nil
	}
	return c.Conn.Read(p)
}

// Hello returns the pre-parsed ClientHello, nil until the peek has run
// or when the bytes did not parse as one.
func (c *peekConn) Hello() *fingerprint.ClientHello {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hello
}

// peek reads whole TLS records until the ClientHello parses, a bound
// trips, or the bytes stop looking like a TLS handshake. Every byte read
// lands in the replay buffer first, so a failed peek never corrupts the
// stream — crypto/tls just sees the same bytes and produces its own
// error (or proceeds, for handshakes we merely failed to fingerprint).
func (c *peekConn) peek() {
	var buf []byte
	for rec := 0; rec < maxPeekRecords && len(buf) < maxPeekBytes; rec++ {
		hdr := len(buf)
		buf = append(buf, 0, 0, 0, 0, 0)
		if n, err := io.ReadFull(c.Conn, buf[hdr:]); err != nil {
			c.replay = buf[:hdr+n] // keep partial reads: replay must be lossless
			return
		}
		if buf[hdr] != 0x16 {
			c.replay = buf
			return
		}
		n := int(buf[hdr+3])<<8 | int(buf[hdr+4])
		payload := len(buf)
		buf = append(buf, make([]byte, n)...)
		if rn, err := io.ReadFull(c.Conn, buf[payload:]); err != nil {
			c.replay = buf[:payload+rn]
			return
		}
		hello, err := fingerprint.ParseClientHello(buf)
		if err == nil {
			c.mu.Lock()
			c.hello = hello
			c.mu.Unlock()
			break
		}
		if err != fingerprint.ErrTruncated {
			break // structurally not a ClientHello; stop buffering
		}
	}
	c.replay = buf
}

// PeekClientHello wraps nc so that its TLS ClientHello is parsed on
// first read and every byte is replayed to the eventual reader. The
// returned accessor yields the hello once available (nil before the
// first read, or if parsing failed).
func PeekClientHello(nc net.Conn) (wrapped net.Conn, hello func() *fingerprint.ClientHello) {
	pc := &peekConn{Conn: nc}
	return pc, pc.Hello
}

// Conn is a fingerprint-aware TLS server connection.
type Conn struct {
	*tls.Conn
	hello func() *fingerprint.ClientHello
}

// ClientHello returns the connection's pre-parsed ClientHello, or nil if
// none was recoverable.
func (c *Conn) ClientHello() *fingerprint.ClientHello {
	if c.hello == nil {
		return nil
	}
	return c.hello()
}

// HelloConn is implemented by connections that can surface the TLS
// ClientHello they were opened with; the server type-asserts against it.
type HelloConn interface {
	ClientHello() *fingerprint.ClientHello
}

// fingerprintListener wraps Accept with the ClientHello pre-parse.
type fingerprintListener struct {
	net.Listener
	cfg *tls.Config
}

// NewFingerprintListener returns a TLS listener whose accepted
// connections implement HelloConn: each conn's ClientHello is pre-parsed
// (lazily, on the serving goroutine's first read) before crypto/tls
// consumes it. It is the fingerprinting replacement for tls.NewListener.
func NewFingerprintListener(l net.Listener, cfg *tls.Config) net.Listener {
	return &fingerprintListener{Listener: l, cfg: cfg}
}

// Accept wraps the raw conn with the peek layer and the TLS server.
func (l *fingerprintListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	wrapped, hello := PeekClientHello(nc)
	return &Conn{Conn: tls.Server(wrapped, l.cfg), hello: hello}, nil
}

// String renders the conn's fingerprint summary for logs.
func (c *Conn) String() string {
	if h := c.ClientHello(); h != nil {
		return fmt.Sprintf("tlsutil.Conn{%s}", h)
	}
	return "tlsutil.Conn{no hello}"
}
