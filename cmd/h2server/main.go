// Command h2server serves the testbed document tree over HTTP/2 with one of
// the six emulated server profiles, over plain TCP (prior-knowledge h2c) or
// TLS with ALPN.
//
// Usage:
//
//	h2server -profile nginx -addr 127.0.0.1:8443 -tls
//	h2server -profile apache -addr 127.0.0.1:8080
//
// SIGINT or SIGTERM shuts the server down gracefully: every connection is
// sent GOAWAY(NO_ERROR), stragglers are closed after shutdownGrace, and the
// flight recorder's manifest is written before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
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
// nil so the deferred closes (flight recorder manifest, debug endpoint) run.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("h2server", flag.ContinueOnError)
	var (
		profileName = fs.String("profile", "nginx", "server profile: nginx, litespeed, h2o, nghttpd, tengine, apache")
		profilePath = fs.String("profile-file", "", "load a custom behavior profile from a JSON file (overrides -profile)")
		dumpProfile = fs.Bool("dump-profile", false, "print the selected profile as JSON and exit")
		addr        = fs.String("addr", "127.0.0.1:8443", "listen address")
		domain      = fs.String("domain", "testbed.example", "site domain (:authority)")
		useTLS      = fs.Bool("tls", false, "serve HTTP/2 over TLS with a self-signed certificate and ALPN")
		debugAddr   = fs.String("debug-addr", "", "serve live /metrics, /metrics.json, /dashboard, expvar, and pprof on this address (\":0\" picks a port) alongside the server")
		detector    = fs.Bool("detector", false, "arm the real-time attack detector with the profile's thresholds (detections surface on -debug-addr metrics)")
		flightRec   = fs.String("flightrec", "", "directory for anomaly flight-recorder dumps (detector hits, p99 blowouts) with bounded JSONL forensics")
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
	var reg *metrics.Registry
	if *debugAddr != "" || *detector || *flightRec != "" {
		reg = metrics.NewRegistry()
	}
	// The observability layer watches the server's trace bus live: a span
	// monitor streams every connection into the per-phase histograms, and the
	// flight recorder (when -flightrec is set) dumps bounded forensics on
	// anomalies — its own p99 blowouts plus every detector hit below.
	var monitor *obs.Monitor
	var recorder *obs.FlightRecorder
	if *debugAddr != "" || *flightRec != "" {
		if srv.Trace == nil {
			srv.Trace = trace.New(0)
		}
		srv.Trace.ExportMetrics(reg)
		mcfg := obs.MonitorConfig{Registry: reg}
		if *flightRec != "" {
			recorder, err = obs.NewFlightRecorder(obs.FlightRecorderConfig{Dir: *flightRec, Registry: reg})
			if err != nil {
				return err
			}
			defer func() {
				if cerr := recorder.Close(); cerr != nil {
					fmt.Fprintln(os.Stderr, "h2server: flightrec close:", cerr)
				}
			}()
			mcfg.OnAnomaly = func(a obs.Anomaly) {
				path, derr := recorder.Dump(a, srv.Trace.Snapshot())
				switch {
				case derr != nil:
					fmt.Fprintln(os.Stderr, "h2server: flight dump failed:", derr)
				case path != "":
					fmt.Fprintf(stdout, "anomaly %q -> %s\n", a.Reason, path)
				}
			}
			fmt.Fprintf(stdout, "flight recorder armed: %s\n", *flightRec)
		}
		monitor = obs.NewMonitor(mcfg)
		stopWatch := monitor.Watch(srv.Trace, *domain, 0)
		defer stopWatch()
	}
	if *debugAddr != "" {
		srv.Metrics = server.NewMetrics(reg)
		ds, err := metrics.StartDebug(*debugAddr, reg)
		if err != nil {
			return err
		}
		defer func() {
			_ = ds.Close()
		}()
		dash := obs.NewDashboard("h2server "+profile.Family, monitor, recorder, reg)
		ds.Handle("/dashboard", dash)
		ds.Handle("/dashboard.json", dash)
		fmt.Fprintf(stdout, "debug endpoint: http://%s/metrics (dashboard at /dashboard)\n", ds.Addr())
	}
	if *detector {
		dcfg := server.DetectorConfig{}
		if recorder != nil {
			dcfg.OnDetect = func(det server.Detection) {
				a := obs.Anomaly{Reason: "detector:" + string(det.Kind), Conn: det.Conn, At: det.At}
				path, derr := recorder.Dump(a, srv.Trace.Snapshot())
				switch {
				case derr != nil:
					fmt.Fprintln(os.Stderr, "h2server: flight dump failed:", derr)
				case path != "":
					fmt.Fprintf(stdout, "anomaly %q -> %s\n", a.Reason, path)
				}
			}
		}
		srv.StartDetector(dcfg, reg)
		fmt.Fprintf(stdout, "attack detector armed (profile %s thresholds)\n", profile.Family)
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
		// The fingerprinting listener peeks each ClientHello before the
		// handshake, so /fp can echo JA3/JA4 alongside the h2 fingerprint.
		l = tlsutil.NewFingerprintListener(l, tlsutil.ServerConfig(cert, profile.SupportsALPN))
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
