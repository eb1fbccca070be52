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
	"crypto/tls"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"h2scope/internal/conformance"
	"h2scope/internal/core"
	"h2scope/internal/netsim"
	"h2scope/internal/server"
	"h2scope/internal/tlsutil"
)

// errChecksFailed is run's result when the suite ran and some check failed;
// the results are already on stdout.
var errChecksFailed = errors.New("checks failed")

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, errChecksFailed) || errors.Is(err, flag.ErrHelp) {
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "h2conform:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("h2conform", flag.ContinueOnError)
	var (
		target      = fs.String("target", "", "host:port of the HTTP/2 server")
		profileName = fs.String("profile", "", "check a built-in profile in-process instead of a remote target")
		authority   = fs.String("authority", "testbed.example", ":authority for requests")
		useTLS      = fs.Bool("tls", false, "connect with TLS and negotiate h2 via ALPN")
		timeout     = fs.Duration("timeout", 5*time.Second, "per-check timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	env := &conformance.Env{Authority: *authority, Timeout: *timeout}
	switch {
	case *profileName != "":
		profile, err := server.ProfileByName(*profileName)
		if err != nil {
			return err
		}
		srv := server.New(profile, server.DefaultSite(*authority))
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
			_ = srv.Serve(tls.NewListener(tl, tlsutil.ServerConfig(cert, true)))
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
		fs.Usage()
		return fmt.Errorf("need -target or -profile")
	}

	results := conformance.RunSuite(env)
	fmt.Fprint(stdout, conformance.Render(results))
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, conformance.Summary(results))
	if len(conformance.Failures(results)) > 0 {
		return errChecksFailed
	}
	return nil
}
