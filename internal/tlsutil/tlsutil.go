// Package tlsutil provides the TLS layer of Section IV-A: self-signed
// certificate generation for testbed servers, and ALPN-based protocol
// negotiation for HTTP/2-over-TLS.
//
// The paper's H2Scope negotiates with both ALPN and NPN. NPN was a
// pre-standard TLS extension (used by SPDY) that crypto/tls has removed;
// for real TLS sockets this package offers ALPN only, while the simulated
// population emulates NPN at the metadata level through core.Negotiator —
// the same information H2Scope extracts, without the legacy extension.
package tlsutil

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"math/big"
	"net"
	"time"
)

// ProtoH2 is the ALPN identifier of HTTP/2 over TLS (RFC 7540 section 3.3).
const ProtoH2 = "h2"

// ProtoHTTP11 is the ALPN identifier of HTTP/1.1.
const ProtoHTTP11 = "http/1.1"

// SelfSignedCert generates an ECDSA P-256 certificate valid for the given
// hosts, suitable for testbed TLS listeners.
func SelfSignedCert(hosts ...string) (tls.Certificate, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("tlsutil: generating key: %w", err)
	}
	serial, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 128))
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("tlsutil: generating serial: %w", err)
	}
	tmpl := x509.Certificate{
		SerialNumber:          serial,
		Subject:               pkix.Name{Organization: []string{"h2scope testbed"}},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(24 * 365 * time.Hour),
		KeyUsage:              x509.KeyUsageKeyEncipherment | x509.KeyUsageDigitalSignature,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		BasicConstraintsValid: true,
	}
	for _, h := range hosts {
		if ip := net.ParseIP(h); ip != nil {
			tmpl.IPAddresses = append(tmpl.IPAddresses, ip)
		} else {
			tmpl.DNSNames = append(tmpl.DNSNames, h)
		}
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("tlsutil: creating certificate: %w", err)
	}
	return tls.Certificate{
		Certificate: [][]byte{der},
		PrivateKey:  key,
	}, nil
}

// ServerConfig returns a TLS config for a testbed HTTP/2 server.
// supportALPN mirrors the profile knob: without it the server negotiates no
// application protocol, as pre-ALPN deployments did.
func ServerConfig(cert tls.Certificate, supportALPN bool) *tls.Config {
	cfg := &tls.Config{
		Certificates: []tls.Certificate{cert},
		MinVersion:   tls.VersionTLS12,
	}
	if supportALPN {
		cfg.NextProtos = []string{ProtoH2, ProtoHTTP11}
	}
	return cfg
}

// ClientConfig returns a TLS config for probing a testbed server. The
// testbed uses self-signed certificates, so verification is disabled — the
// probe measures protocol behavior, not PKI hygiene.
func ClientConfig(serverName string, protos ...string) *tls.Config {
	if len(protos) == 0 {
		protos = []string{ProtoH2, ProtoHTTP11}
	}
	return &tls.Config{
		ServerName:         serverName,
		InsecureSkipVerify: true,
		NextProtos:         protos,
		MinVersion:         tls.VersionTLS12,
	}
}

// NegotiateALPN runs a TLS client handshake over nc and returns the
// negotiated application protocol and the secured connection.
func NegotiateALPN(nc net.Conn, serverName string, protos ...string) (string, *tls.Conn, error) {
	tc := tls.Client(nc, ClientConfig(serverName, protos...))
	if err := tc.Handshake(); err != nil {
		return "", nil, fmt.Errorf("tlsutil: handshake: %w", err)
	}
	return tc.ConnectionState().NegotiatedProtocol, tc, nil
}

// UpgradeH2 secures an established connection for HTTP/2: it runs the TLS
// client handshake over nc and returns the secured connection if the server
// selected h2 via ALPN. On any failure the connection is closed.
func UpgradeH2(nc net.Conn, serverName string, protos ...string) (net.Conn, error) {
	proto, tc, err := NegotiateALPN(nc, serverName, protos...)
	if err != nil {
		_ = nc.Close()
		return nil, err
	}
	if proto != ProtoH2 {
		_ = tc.Close()
		return nil, fmt.Errorf("server negotiated %q, not h2", proto)
	}
	return tc, nil
}
