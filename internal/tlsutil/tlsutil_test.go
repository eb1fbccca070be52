package tlsutil

import (
	"crypto/tls"
	"net"
	"strings"
	"testing"

	"h2scope/internal/netsim"
)

func handshake(t *testing.T, serverCfg *tls.Config, protos ...string) string {
	t.Helper()
	clientNC, serverNC := netsim.Pipe()
	done := make(chan error, 1)
	var serverConn *tls.Conn
	go func() {
		serverConn = tls.Server(serverNC, serverCfg)
		done <- serverConn.Handshake()
	}()
	proto, tc, err := NegotiateALPN(clientNC, "testbed.example", protos...)
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("server handshake: %v", err)
	}
	t.Cleanup(func() {
		_ = tc.Close()
		_ = serverConn.Close()
	})
	return proto
}

func TestALPNSelectsH2(t *testing.T) {
	cert, err := SelfSignedCert("testbed.example")
	if err != nil {
		t.Fatalf("SelfSignedCert: %v", err)
	}
	proto := handshake(t, ServerConfig(cert, true))
	if proto != ProtoH2 {
		t.Fatalf("negotiated %q, want %q", proto, ProtoH2)
	}
}

func TestNoALPNWhenServerLacksSupport(t *testing.T) {
	cert, err := SelfSignedCert("testbed.example")
	if err != nil {
		t.Fatalf("SelfSignedCert: %v", err)
	}
	proto := handshake(t, ServerConfig(cert, false))
	if proto != "" {
		t.Fatalf("negotiated %q, want none", proto)
	}
}

func TestALPNFallbackToHTTP11(t *testing.T) {
	cert, err := SelfSignedCert("testbed.example")
	if err != nil {
		t.Fatalf("SelfSignedCert: %v", err)
	}
	// Client only offers http/1.1; an h2-capable server must pick it.
	proto := handshake(t, ServerConfig(cert, true), ProtoHTTP11)
	if proto != ProtoHTTP11 {
		t.Fatalf("negotiated %q, want %q", proto, ProtoHTTP11)
	}
}

func TestSelfSignedCertCoversHostsAndIPs(t *testing.T) {
	cert, err := SelfSignedCert("a.example", "127.0.0.1")
	if err != nil {
		t.Fatalf("SelfSignedCert: %v", err)
	}
	if len(cert.Certificate) != 1 {
		t.Fatalf("certificate chain length %d, want 1", len(cert.Certificate))
	}
}

// TestUpgradeH2 pins the one h2-over-TLS dial step the CLIs share: an h2
// selection yields the secured connection, anything else is an error naming
// the protocol and leaves the transport closed.
func TestUpgradeH2(t *testing.T) {
	cert, err := SelfSignedCert("testbed.example")
	if err != nil {
		t.Fatalf("SelfSignedCert: %v", err)
	}
	upgrade := func(protos ...string) (net.Conn, net.Conn, error) {
		clientNC, serverNC := netsim.Pipe()
		go func() {
			sc := tls.Server(serverNC, ServerConfig(cert, true))
			_ = sc.Handshake()
		}()
		c, err := UpgradeH2(clientNC, "testbed.example", protos...)
		return c, clientNC, err
	}
	c, _, err := upgrade()
	if err != nil {
		t.Fatalf("UpgradeH2: %v", err)
	}
	if tc, ok := c.(*tls.Conn); !ok || tc.ConnectionState().NegotiatedProtocol != ProtoH2 {
		t.Fatalf("UpgradeH2 returned %T, want a *tls.Conn on h2", c)
	}
	_ = c.Close()

	c, raw, err := upgrade(ProtoHTTP11)
	if err == nil || !strings.Contains(err.Error(), `negotiated "http/1.1", not h2`) {
		t.Fatalf("UpgradeH2 offering only http/1.1 = %v, %v; want a not-h2 error", c, err)
	}
	if _, werr := raw.Write([]byte("x")); werr == nil {
		t.Error("transport still open after a refused upgrade")
	}
}
