package server

import (
	"crypto/tls"
	"encoding/json"
	"testing"
	"time"

	"h2scope/internal/fingerprint"
	"h2scope/internal/h2conn"
	"h2scope/internal/netsim"
	"h2scope/internal/tlsutil"
)

// startFPServer serves profile p over a netsim listener and returns a
// connected impersonating client.
func startFPServer(t *testing.T, p Profile, imp *fingerprint.ClientProfile) (*Server, *h2conn.Conn) {
	t.Helper()
	srv := New(p, DefaultSite("fp.example"))
	l := netsim.NewListener("fp-" + p.Name)
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { srv.Close() })
	nc, err := l.Dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	opts := h2conn.DefaultOptions()
	opts.Impersonate = imp
	c, err := h2conn.Dial(nc, opts)
	if err != nil {
		t.Fatalf("h2 dial: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return srv, c
}

// fetchEcho GETs /fp and parses the echo document.
func fetchEcho(t *testing.T, c *h2conn.Conn) *fingerprint.Echo {
	t.Helper()
	res, err := c.FetchBody(h2conn.Request{Authority: "fp.example", Path: "/fp"}, 5*time.Second)
	if err != nil {
		t.Fatalf("fetch /fp: %v", err)
	}
	var echo fingerprint.Echo
	if err := json.Unmarshal(res.Body, &echo); err != nil {
		t.Fatalf("parse /fp echo %q: %v", res.Body, err)
	}
	return &echo
}

// TestFingerprintEchoImpersonation is the impersonation round trip: for
// each builtin client profile, a connection wearing it must be read back
// by the server as exactly that profile's akamai fingerprint.
func TestFingerprintEchoImpersonation(t *testing.T) {
	for _, imp := range fingerprint.BuiltinProfiles() {
		t.Run(imp.Name, func(t *testing.T) {
			_, c := startFPServer(t, ApacheProfile(), imp)
			echo := fetchEcho(t, c)
			if want := imp.ExpectedAkamai(); echo.H2 != want {
				t.Errorf("echoed h2 fingerprint\n got %s\nwant %s", echo.H2, want)
			}
			if echo.JA4H == "" {
				t.Error("echo carries no JA4H")
			}
			if echo.JA3 != "" || echo.JA4 != "" {
				t.Errorf("cleartext conn echoed TLS fingerprints: ja3=%q ja4=%q", echo.JA3, echo.JA4)
			}
		})
	}
}

// TestFingerprintEchoTLS drives the full TLS path: fingerprint listener,
// real handshake, h2 over it, and a /fp echo carrying JA3/JA4/SNI/ALPN.
func TestFingerprintEchoTLS(t *testing.T) {
	cert, err := tlsutil.SelfSignedCert("fp.example")
	if err != nil {
		t.Fatalf("cert: %v", err)
	}
	srv := New(ApacheProfile(), DefaultSite("fp.example"))
	inner := netsim.NewListener("fp-tls")
	l := tlsutil.NewFingerprintListener(inner, tlsutil.ServerConfig(cert, true))
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	nc, err := inner.Dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	tc := tls.Client(nc, tlsutil.ClientConfig("fp.example"))
	if err := tc.Handshake(); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	c, err := h2conn.Dial(tc, h2conn.DefaultOptions())
	if err != nil {
		t.Fatalf("h2 dial: %v", err)
	}
	defer c.Close()

	echo := fetchEcho(t, c)
	if echo.JA3 == "" || echo.JA3Hash == "" || echo.JA4 == "" {
		t.Errorf("TLS echo missing ClientHello fingerprints: %+v", echo)
	}
	if echo.SNI != "fp.example" {
		t.Errorf("echoed SNI = %q, want fp.example", echo.SNI)
	}
	if echo.ALPN != tlsutil.ProtoH2 {
		t.Errorf("echoed ALPN = %q, want h2", echo.ALPN)
	}
	if echo.H2 == "" {
		t.Error("TLS echo carries no h2 behavioral fingerprint")
	}
}

// TestFingerprintDisabled: DisableFingerprint keeps /fp answering but
// empty of behavioral data, so probes can tell the plane is off.
func TestFingerprintDisabled(t *testing.T) {
	p := ApacheProfile()
	srv := New(p, DefaultSite("fp.example"))
	srv.DisableFingerprint = true
	l := netsim.NewListener("fp-disabled")
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()
	nc, err := l.Dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c, err := h2conn.Dial(nc, h2conn.DefaultOptions())
	if err != nil {
		t.Fatalf("h2 dial: %v", err)
	}
	defer c.Close()
	echo := fetchEcho(t, c)
	if echo.H2 != "" {
		t.Errorf("disabled plane still echoed h2 fingerprint %q", echo.H2)
	}
	if echo.JA4H == "" {
		t.Error("disabled plane dropped JA4H (request-derived, should survive)")
	}
}

// BenchmarkFingerprintOverhead compares request latency with the
// fingerprint plane off and on; the delta is the fingerprint tax
// (target: under 5%; reported, not gated).
func BenchmarkFingerprintOverhead(b *testing.B) {
	run := func(b *testing.B, enabled bool) {
		srv := New(ApacheProfile(), DefaultSite("bench.example"))
		srv.DisableFingerprint = !enabled
		l := netsim.NewListener("bench-fp")
		go func() { _ = srv.Serve(l) }()
		defer srv.Close()
		nc, err := l.Dial()
		if err != nil {
			b.Fatalf("dial: %v", err)
		}
		opts := h2conn.DefaultOptions()
		if enabled {
			opts.Impersonate = fingerprint.ChromeProfile()
		}
		c, err := h2conn.Dial(nc, opts)
		if err != nil {
			b.Fatalf("h2 dial: %v", err)
		}
		defer func() { _ = c.Close() }()
		req := h2conn.Request{Authority: "bench.example", Path: "/about.html"}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.FetchBody(req, 5*time.Second); err != nil {
				b.Fatalf("fetch %d: %v", i, err)
			}
		}
	}
	b.Run("baseline", func(b *testing.B) { run(b, false) })
	b.Run("fingerprint", func(b *testing.B) { run(b, true) })
}
