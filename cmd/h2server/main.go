// Command h2server serves the testbed document tree over HTTP/2 with one of
// the six emulated server profiles, over plain TCP (prior-knowledge h2c) or
// TLS with ALPN.
//
// Usage:
//
//	h2server -profile nginx -addr 127.0.0.1:8443 -tls
//	h2server -profile apache -addr 127.0.0.1:8080
//
// With -debug-addr the server also serves /metrics, the live dashboard and
// GET /trace.jsonl, its trace ring (the last trace.DefaultCapacity events)
// in the format h2trace reads:
//
//	h2server -profile apache -addr 127.0.0.1:8099 -debug-addr 127.0.0.1:8081
//	curl -s http://127.0.0.1:8081/trace.jsonl | h2trace /dev/stdin
//
// SIGINT or SIGTERM shuts the server down gracefully: every connection is
// sent GOAWAY(NO_ERROR), stragglers are closed after shutdownGrace, and the
// debug endpoint is closed before the process exits.
package main

import (
	"context"
	"crypto/tls"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"h2scope/internal/metrics"
	"h2scope/internal/obs"
	"h2scope/internal/server"
	"h2scope/internal/tlsutil"
	"h2scope/internal/trace"
)

// shutdownGrace is how long connections get to wind down after GOAWAY
// before a stop signal closes them.
const shutdownGrace = 5 * time.Second

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "h2server:", err)
		os.Exit(1)
	}
}

// run serves until ctx is cancelled, then shuts down gracefully and returns
// nil so the deferred closes (span monitor, debug endpoint) run.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("h2server", flag.ContinueOnError)
	var (
		profileName = fs.String("profile", "nginx", "server profile: nginx, litespeed, h2o, nghttpd, tengine, apache")
		profilePath = fs.String("profile-file", "", "load a custom behavior profile from a JSON file (overrides -profile)")
		dumpProfile = fs.Bool("dump-profile", false, "print the selected profile as JSON and exit")
		addr        = fs.String("addr", "127.0.0.1:8443", "listen address")
		domain      = fs.String("domain", "testbed.example", "site domain (:authority)")
		useTLS      = fs.Bool("tls", false, "serve HTTP/2 over TLS with a self-signed certificate and ALPN")
		debugAddr   = fs.String("debug-addr", "", "serve live /metrics, /dashboard, /trace.jsonl and pprof on this address (\":0\" picks a port) alongside the server")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	profile, err := server.ProfileByName(*profileName)
	if err != nil {
		return err
	}
	if *profilePath != "" {
		data, err := os.ReadFile(*profilePath)
		if err != nil {
			return fmt.Errorf("reading profile file: %w", err)
		}
		if profile, err = server.UnmarshalProfile(data); err != nil {
			return err
		}
	}
	if *dumpProfile {
		data, err := server.MarshalProfile(profile)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(data))
		return nil
	}
	srv := server.New(profile, server.DefaultSite(*domain))
	if *debugAddr != "" {
		// The observability layer watches the server's trace bus live: a span
		// monitor streams every connection into the per-phase histograms the
		// dashboard shows, and /trace.jsonl exports the ring itself.
		reg := metrics.NewRegistry()
		srv.Trace = trace.New(0)
		srv.Trace.ExportMetrics(reg)
		srv.Metrics = server.NewMetrics(reg)
		monitor := obs.NewMonitor(reg)
		stopWatch := monitor.Watch(srv.Trace, *domain)
		defer stopWatch()
		ds, err := metrics.StartDebug(*debugAddr, reg)
		if err != nil {
			return err
		}
		defer func() {
			_ = ds.Close()
		}()
		dash := obs.NewDashboard("h2server "+profile.Family, monitor, reg)
		ds.Handle("/dashboard", dash)
		ds.Handle("/dashboard.json", dash)
		ds.Handle("/trace.jsonl", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			// An error here is the client going away mid-body: nothing to do.
			_ = trace.Write(w, *domain, srv.Trace)
		}))
		fmt.Fprintf(stdout, "debug endpoint: http://%s/metrics (dashboard at /dashboard, trace at /trace.jsonl)\n", ds.Addr())
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	if *useTLS {
		cert, err := tlsutil.SelfSignedCert(*domain, "127.0.0.1", "localhost")
		if err != nil {
			return err
		}
		l = tls.NewListener(l, tlsutil.ServerConfig(cert, profile.SupportsALPN))
		fmt.Fprintf(stdout, "serving %s (profile %s) on https://%s (ALPN %v)\n",
			*domain, profile.Family, l.Addr(), profile.SupportsALPN)
	} else {
		fmt.Fprintf(stdout, "serving %s (profile %s) on h2c-prior-knowledge %s\n", *domain, profile.Family, l.Addr())
	}

	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
		fmt.Fprintf(stdout, "shutting down (grace %v)\n", shutdownGrace)
		srv.Shutdown(shutdownGrace)
		return nil
	}
}
