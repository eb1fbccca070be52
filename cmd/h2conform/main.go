// Command h2conform runs the h2spec-style RFC 7540 conformance suite
// against an HTTP/2 server (see internal/conformance): named checks
// covering framing and frame-size validation, reserved-bit and flag
// handling, SETTINGS rules, PING, flow-control boundaries, and
// header-block rules.
//
// Usage:
//
//	h2conform -target 127.0.0.1:8443 -tls
//	h2conform -profile litespeed        # check a built-in profile in-process
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"h2scope"
	"h2scope/internal/conformance"
	"h2scope/internal/core"
	"h2scope/internal/netsim"
	"h2scope/internal/tlsutil"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "h2conform:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		target      = flag.String("target", "", "host:port of the HTTP/2 server")
		profileName = flag.String("profile", "", "check a built-in profile in-process instead of a remote target")
		authority   = flag.String("authority", "testbed.example", ":authority for requests")
		useTLS      = flag.Bool("tls", false, "connect with TLS and negotiate h2 via ALPN")
		timeout     = flag.Duration("timeout", 5*time.Second, "per-check timeout")
		adaptive    = flag.Bool("adaptive", false, "the target intentionally re-tunes SETTINGS per client fingerprint; exempt it from the stability check")
	)
	flag.Parse()

	env := &conformance.Env{Authority: *authority, Timeout: *timeout, FingerprintAdaptive: *adaptive}
	switch {
	case *profileName != "":
		var profile h2scope.Profile
		found := false
		for _, p := range h2scope.TestbedProfiles() {
			if strings.EqualFold(p.Family, *profileName) {
				profile, found = p, true
			}
		}
		if !found {
			return fmt.Errorf("unknown profile %q", *profileName)
		}
		srv := h2scope.NewServer(profile, h2scope.DefaultSite(*authority))
		l := netsim.NewListener("conform")
		go func() {
			_ = srv.Serve(l)
		}()
		// A TLS twin of the same server backs the record-layer checks.
		cert, err := tlsutil.SelfSignedCert(*authority)
		if err != nil {
			return fmt.Errorf("generating testbed certificate: %w", err)
		}
		tl := netsim.NewListener("conform-tls")
		go func() {
			_ = srv.Serve(tlsutil.NewFingerprintListener(tl, tlsutil.ServerConfig(cert, true)))
		}()
		defer srv.Close()
		env.Dialer = core.DialerFunc(func() (net.Conn, error) { return l.Dial() })
		env.TLSDialer = core.DialerFunc(func() (net.Conn, error) { return tl.Dial() })
		env.TLSServerName = *authority
	case *target != "":
		env.Dialer = core.DialerFunc(func() (net.Conn, error) {
			nc, err := net.DialTimeout("tcp", *target, *timeout)
			if err != nil {
				return nil, err
			}
			if !*useTLS {
				return nc, nil
			}
			return tlsutil.UpgradeH2(nc, *authority)
		})
		if *useTLS {
			// The record-layer checks write their own ClientHello, so
			// their dialer hands back the raw TCP connection.
			env.TLSDialer = core.DialerFunc(func() (net.Conn, error) {
				return net.DialTimeout("tcp", *target, *timeout)
			})
			env.TLSServerName = *authority
		}
	default:
		flag.Usage()
		return fmt.Errorf("need -target or -profile")
	}

	results := conformance.RunSuite(env)
	fmt.Print(conformance.Render(results))
	fmt.Println()
	fmt.Println(conformance.Summary(results))
	if len(conformance.Failures(results)) > 0 {
		os.Exit(2)
	}
	return nil
}
