package tlsutil

import (
	"bytes"
	"crypto/tls"
	"io"
	"slices"
	"testing"
	"time"

	"h2scope/internal/fingerprint"
	"h2scope/internal/netsim"
)

// fingerprintHandshake runs one full TLS handshake over a netsim pipe
// with the given server-side conn factory and returns the hello each
// path recovered.
func testCert(t *testing.T) tls.Certificate {
	t.Helper()
	cert, err := SelfSignedCert("testbed.example")
	if err != nil {
		t.Fatalf("cert: %v", err)
	}
	return cert
}

// TestPreParseAndCaptureYieldIdenticalJA3 holds the raw record pre-parse to
// an oracle: crypto/tls's own parse of the same live Go ClientHello, seen
// through GetConfigForClient, must fingerprint to the same JA3 (and JA4).
func TestPreParseAndCaptureYieldIdenticalJA3(t *testing.T) {
	cert := testCert(t)
	clientCfg := ClientConfig("testbed.example")

	// Path A: raw pre-parse via the peek wrapper.
	clientA, serverA := netsim.Pipe()
	wrapped, helloFn := PeekClientHello(serverA)
	doneA := make(chan error, 1)
	go func() {
		doneA <- tls.Server(wrapped, ServerConfig(cert, true)).Handshake()
	}()
	if err := tls.Client(clientA, clientCfg).Handshake(); err != nil {
		t.Fatalf("client A handshake: %v", err)
	}
	if err := <-doneA; err != nil {
		t.Fatalf("server A handshake: %v", err)
	}
	preParsed := helloFn()
	if preParsed == nil {
		t.Fatal("pre-parse path recovered no ClientHello")
	}

	// Path B: crypto/tls's own parse, taken from GetConfigForClient on an
	// unwrapped tls.Server.
	var captured *fingerprint.ClientHello
	capCfg := ServerConfig(cert, true)
	capCfg.GetConfigForClient = func(chi *tls.ClientHelloInfo) (*tls.Config, error) {
		captured = HelloFromInfo(chi)
		return nil, nil
	}
	clientB, serverB := netsim.Pipe()
	doneB := make(chan error, 1)
	go func() {
		doneB <- tls.Server(serverB, capCfg).Handshake()
	}()
	if err := tls.Client(clientB, clientCfg).Handshake(); err != nil {
		t.Fatalf("client B handshake: %v", err)
	}
	if err := <-doneB; err != nil {
		t.Fatalf("server B handshake: %v", err)
	}
	if captured == nil {
		t.Fatal("capture path recovered no ClientHello")
	}

	if a, b := preParsed.JA3(), captured.JA3(); a != b {
		t.Errorf("JA3 differs across paths\npre-parse: %s\ncapture:   %s", a, b)
	}
	if a, b := preParsed.JA3Hash(), captured.JA3Hash(); a != b {
		t.Errorf("JA3 hash differs across paths: %s vs %s", a, b)
	}
	if a, b := preParsed.JA4(), captured.JA4(); a != b {
		t.Errorf("JA4 differs across paths\npre-parse: %s\ncapture:   %s", a, b)
	}
	if preParsed.ServerName != "testbed.example" {
		t.Errorf("pre-parsed SNI = %q, want testbed.example", preParsed.ServerName)
	}
	if !slices.Contains(preParsed.ALPN, "h2") {
		t.Error("pre-parsed hello does not offer h2")
	}
}

// HelloFromInfo reconstructs a fingerprint.ClientHello from crypto/tls's
// ClientHelloInfo. The legacy_version field is not surfaced by
// crypto/tls; it is recovered as TLS 1.2 whenever the client negotiates
// TLS 1.2 or newer — exactly what RFC 8446 requires clients to send —
// so JA3 output matches the raw pre-parse for all modern hellos.
func HelloFromInfo(chi *tls.ClientHelloInfo) *fingerprint.ClientHello {
	hello := &fingerprint.ClientHello{
		Version:      0x0303,
		ServerName:   chi.ServerName,
		CipherSuites: append([]uint16(nil), chi.CipherSuites...),
		Extensions:   append([]uint16(nil), chi.Extensions...),
		PointFormats: append([]uint8(nil), chi.SupportedPoints...),
		ALPN:         append([]string(nil), chi.SupportedProtos...),
	}
	// crypto/tls synthesizes SupportedVersions from the legacy version
	// when the extension is absent; only a hello that really carried
	// extension 43 gets one here, and only then is the legacy version
	// pinned to TLS 1.2 (RFC 8446 legacy_version) rather than the max.
	hasVersionsExt := false
	for _, e := range chi.Extensions {
		if fingerprint.ExtensionID(e) == fingerprint.ExtSupportedVersions {
			hasVersionsExt = true
		}
	}
	if hasVersionsExt {
		hello.SupportedVersions = append([]uint16(nil), chi.SupportedVersions...)
	} else {
		for _, v := range chi.SupportedVersions {
			if v > hello.Version || len(chi.SupportedVersions) == 1 {
				hello.Version = v
			}
		}
	}
	for _, c := range chi.SupportedCurves {
		hello.Groups = append(hello.Groups, uint16(c))
	}
	for _, s := range chi.SignatureSchemes {
		hello.SignatureAlgorithms = append(hello.SignatureAlgorithms, uint16(s))
	}
	return hello
}

// TestFingerprintListenerServesHelloConn checks the listener wrapper
// end-to-end: accepted conns implement HelloConn, the handshake
// completes, and application bytes flow untouched.
func TestFingerprintListenerServesHelloConn(t *testing.T) {
	cert := testCert(t)
	inner := netsim.NewListener("fp-listener")
	l := NewFingerprintListener(inner, ServerConfig(cert, true))
	defer func() { _ = l.Close() }()

	serverDone := make(chan error, 1)
	var gotHello *fingerprint.ClientHello
	go func() {
		nc, err := l.Accept()
		if err != nil {
			serverDone <- err
			return
		}
		buf := make([]byte, 5)
		if _, err := io.ReadFull(nc, buf); err != nil {
			serverDone <- err
			return
		}
		gotHello = nc.(HelloConn).ClientHello()
		_, err = nc.Write(bytes.ToUpper(buf))
		serverDone <- err
	}()

	nc, err := inner.Dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	proto, tc, err := NegotiateALPN(nc, "testbed.example")
	if err != nil {
		t.Fatalf("negotiate: %v", err)
	}
	if proto != ProtoH2 {
		t.Fatalf("negotiated %q, want h2", proto)
	}
	if _, err := tc.Write([]byte("hello")); err != nil {
		t.Fatalf("write: %v", err)
	}
	reply := make([]byte, 5)
	if _, err := io.ReadFull(tc, reply); err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(reply) != "HELLO" {
		t.Fatalf("reply = %q, want HELLO", reply)
	}
	if err := <-serverDone; err != nil {
		t.Fatalf("server: %v", err)
	}
	if gotHello == nil {
		t.Fatal("accepted conn carried no ClientHello")
	}
	if gotHello.ServerName != "testbed.example" || !slices.Contains(gotHello.ALPN, "h2") {
		t.Errorf("hello = %v, want SNI testbed.example offering h2", gotHello)
	}
}

// TestPeekReplaysNonTLSBytes: a peeked conn carrying something other
// than TLS must deliver every byte unmodified to the reader.
func TestPeekReplaysNonTLSBytes(t *testing.T) {
	client, server := netsim.Pipe()
	payload := []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")
	go func() {
		_, _ = client.Write(payload)
		_ = client.Close()
	}()
	wrapped, hello := PeekClientHello(server)
	_ = server.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(wrapped)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("replayed %q, want %q", got, payload)
	}
	if hello() != nil {
		t.Error("non-TLS bytes produced a ClientHello")
	}
}

// TestPeekReplaysTruncatedHandshake: a client that opens a handshake
// record and hangs up mid-hello must still have its bytes replayed.
func TestPeekReplaysTruncatedHandshake(t *testing.T) {
	client, server := netsim.Pipe()
	partial := []byte{0x16, 0x03, 0x01, 0x00, 0x40, 0x01, 0x00, 0x00, 0x80, 0x03, 0x03}
	go func() {
		_, _ = client.Write(partial)
		_ = client.Close()
	}()
	wrapped, hello := PeekClientHello(server)
	_ = server.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(wrapped)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, partial) {
		t.Errorf("replayed % x, want % x", got, partial)
	}
	if hello() != nil {
		t.Error("truncated handshake produced a ClientHello")
	}
}
