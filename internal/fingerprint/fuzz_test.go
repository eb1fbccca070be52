package fingerprint

import (
	"bytes"
	"crypto/tls"
	"io"
	"net"
	"testing"
	"time"
)

// FuzzClientHelloParse throws arbitrary bytes at the pre-parser. The
// contract under fuzz: never panic, never mutate the input, and stay
// deterministic; on success the renderers must also hold up.
func FuzzClientHelloParse(f *testing.F) {
	for _, g := range golden {
		f.Add(loadHello(f, g.fixture))
	}
	f.Add([]byte{0x16, 0x03, 0x01, 0x00, 0x02, 0x01, 0x00})
	f.Add([]byte{0x01, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		orig := bytes.Clone(data)
		hello, err := ParseClientHello(data)
		if !bytes.Equal(data, orig) {
			t.Fatal("parser mutated its input")
		}
		if err != nil {
			return
		}
		// Renderers must tolerate whatever the parser accepted.
		_ = hello.JA3()
		_ = hello.JA3Hash()
		_ = hello.JA4()
		_ = hello.String()
		// Parsing is deterministic.
		again, err := ParseClientHello(data)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if again.JA3() != hello.JA3() || again.JA4() != hello.JA4() {
			t.Fatal("re-parse produced a different fingerprint")
		}
	})
}

// TestParserMatchesCryptoTLS captures a genuine crypto/tls ClientHello
// off the wire and checks the raw parser agrees with crypto/tls's own
// view of it (ciphers, SNI, ALPN, groups) — the "valid inputs" half of
// the fuzz contract, pinned with a real hello rather than fixtures.
func TestParserMatchesCryptoTLS(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	defer clientEnd.Close()
	defer serverEnd.Close()

	go func() {
		cfg := &tls.Config{
			ServerName: "cross.check.example",
			NextProtos: []string{"h2", "http/1.1"},
			MinVersion: tls.VersionTLS12,
		}
		c := tls.Client(clientEnd, cfg)
		_ = c.Handshake() // fails once the server side stops reading; irrelevant
	}()

	// Read the first TLS record raw.
	_ = serverEnd.SetReadDeadline(time.Now().Add(5 * time.Second))
	hdr := make([]byte, 5)
	if _, err := io.ReadFull(serverEnd, hdr); err != nil {
		t.Fatalf("read record header: %v", err)
	}
	n := int(hdr[3])<<8 | int(hdr[4])
	payload := make([]byte, n)
	if _, err := io.ReadFull(serverEnd, payload); err != nil {
		t.Fatalf("read record payload: %v", err)
	}
	record := append(hdr, payload...)

	hello, err := ParseClientHello(record)
	if err != nil {
		t.Fatalf("ParseClientHello on a real Go hello: %v", err)
	}
	// crypto/tls's view of the same bytes.
	info := captureClientHelloInfo(t, record)

	if len(hello.CipherSuites) != len(info.CipherSuites) {
		t.Errorf("cipher count %d != crypto/tls %d", len(hello.CipherSuites), len(info.CipherSuites))
	}
	for i := range hello.CipherSuites {
		if i < len(info.CipherSuites) && hello.CipherSuites[i] != info.CipherSuites[i] {
			t.Errorf("cipher[%d] = %#04x != crypto/tls %#04x", i, hello.CipherSuites[i], info.CipherSuites[i])
		}
	}
	if hello.ServerName != info.ServerName {
		t.Errorf("SNI %q != crypto/tls %q", hello.ServerName, info.ServerName)
	}
	if len(hello.ALPN) != len(info.SupportedProtos) {
		t.Errorf("ALPN %v != crypto/tls %v", hello.ALPN, info.SupportedProtos)
	}
	if len(hello.Groups) != len(info.SupportedCurves) {
		t.Errorf("group count %d != crypto/tls %d", len(hello.Groups), len(info.SupportedCurves))
	}
}

// captureClientHelloInfo replays a raw ClientHello record into a tls.Server
// whose GetConfigForClient snapshot gives crypto/tls's parse of it.
func captureClientHelloInfo(t *testing.T, record []byte) *tls.ClientHelloInfo {
	t.Helper()
	in, out := net.Pipe()
	defer in.Close()
	defer out.Close()
	infoCh := make(chan *tls.ClientHelloInfo, 1)
	go func() {
		cfg := &tls.Config{
			GetConfigForClient: func(chi *tls.ClientHelloInfo) (*tls.Config, error) {
				// Copy the slices we compare; chi aliases handshake state.
				cp := *chi
				infoCh <- &cp
				return nil, nil
			},
		}
		_ = tls.Server(out, cfg).Handshake() // fails after capture: no cert
	}()
	if _, err := in.Write(record); err != nil {
		t.Fatalf("replay hello: %v", err)
	}
	select {
	case info := <-infoCh:
		return info
	case <-time.After(5 * time.Second):
		t.Fatal("crypto/tls never surfaced the ClientHello")
		return nil
	}
}
