// Command h2load drives load against an HTTP/2 server with N connections
// striped across T driver threads and M concurrent streams per connection,
// in the spirit of nghttp2's h2load, and prints throughput and latency
// percentiles.
//
// Usage:
//
//	h2load -target 127.0.0.1:8443 -tls -n 1000 -conns 4 -streams 16 -path /about.html
//	h2load -profile h2o -n 5000                  # hammer a built-in profile in-process
//	h2load -profile nghttpd -n 100000 -out -     # JSONL summary on stdout, report on stderr
//
// With -out, the run's machine-readable summary is appended as one JSON
// line; "-out -" reserves stdout for that record and moves the
// human-readable report to stderr, following the census CLI convention.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"h2scope"
	"h2scope/internal/h2load"
	"h2scope/internal/metrics"
	"h2scope/internal/netsim"
	"h2scope/internal/tlsutil"
)

func main() {
	opts, err := parseFlags(os.Args[1:], os.Stderr)
	if err == flag.ErrHelp {
		os.Exit(2)
	}
	if err == nil {
		err = run(opts, os.Stdout, os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "h2load:", err)
		os.Exit(1)
	}
}

// options carries the parsed, validated command line.
type options struct {
	target      string
	profileName string
	authority   string
	path        string
	useTLS      bool
	requests    int
	conns       int
	threads     int
	streams     int
	timeout     time.Duration
	outPath     string
	debugAddr   string
}

// machineStdout reports whether stdout is reserved for the JSONL summary
// (-out -), pushing all human-readable output to stderr.
func (o *options) machineStdout() bool { return o.outPath == "-" }

// parseFlags parses args and validates flag combinations.
func parseFlags(args []string, errOut io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("h2load", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.StringVar(&o.target, "target", "", "host:port of the HTTP/2 server")
	fs.StringVar(&o.profileName, "profile", "", "hammer a built-in profile in-process instead of a remote target")
	fs.StringVar(&o.authority, "authority", "testbed.example", ":authority for requests")
	fs.StringVar(&o.path, "path", "/about.html", "request path")
	fs.BoolVar(&o.useTLS, "tls", false, "connect with TLS and negotiate h2 via ALPN")
	fs.IntVar(&o.requests, "n", 1000, "total number of requests")
	fs.IntVar(&o.conns, "conns", 2, "number of connections")
	fs.IntVar(&o.threads, "threads", 0, "driver goroutines the connections are striped across (0 = one per connection)")
	fs.IntVar(&o.streams, "streams", 8, "concurrent streams per connection (batch size)")
	fs.DurationVar(&o.timeout, "timeout", 10*time.Second, "per-batch drain timeout")
	fs.StringVar(&o.outPath, "out", "", "append the machine-readable run summary (one JSON line) to this file; \"-\" streams it to stdout and moves the report to stderr")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve live /metrics, /metrics.json, expvar, and pprof on this address (\":0\" picks a port) while the run is in flight")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if narg := fs.NArg(); narg > 0 {
		return nil, fmt.Errorf("unexpected positional arguments: %v", fs.Args())
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	return o, nil
}

// validate rejects out-of-range values and contradictory combinations.
func (o *options) validate() error {
	if o.target == "" && o.profileName == "" {
		return fmt.Errorf("need -target or -profile")
	}
	if o.target != "" && o.profileName != "" {
		return fmt.Errorf("-target and -profile are mutually exclusive")
	}
	if o.requests < 1 {
		return fmt.Errorf("-n must be >= 1; got %d", o.requests)
	}
	if o.conns < 1 {
		return fmt.Errorf("-conns must be >= 1; got %d", o.conns)
	}
	if o.threads < 0 {
		return fmt.Errorf("-threads must be >= 0; got %d", o.threads)
	}
	if o.streams < 1 {
		return fmt.Errorf("-streams must be >= 1; got %d", o.streams)
	}
	if o.timeout <= 0 {
		return fmt.Errorf("-timeout must be positive; got %v", o.timeout)
	}
	return nil
}

func run(o *options, stdout, stderr io.Writer) (err error) {
	// Human-readable output follows the census convention: stdout
	// normally, stderr when stdout carries the JSONL summary.
	human := stdout
	if o.machineStdout() {
		human = stderr
	}

	var reg *metrics.Registry
	if o.debugAddr != "" {
		reg = metrics.NewRegistry()
		ds, err := metrics.StartDebug(o.debugAddr, reg)
		if err != nil {
			return err
		}
		defer func() {
			_ = ds.Close()
		}()
		fmt.Fprintf(stderr, "h2load: debug endpoint: http://%s/metrics\n", ds.Addr())
	}

	var dial func() (net.Conn, error)
	switch {
	case o.profileName != "":
		var profile h2scope.Profile
		found := false
		for _, p := range h2scope.TestbedProfiles() {
			if strings.EqualFold(p.Family, o.profileName) {
				profile, found = p, true
			}
		}
		if !found {
			return fmt.Errorf("unknown profile %q", o.profileName)
		}
		srv := h2scope.NewServer(profile, h2scope.DefaultSite(o.authority))
		l := netsim.NewListener("h2load")
		go func() {
			_ = srv.Serve(l)
		}()
		defer srv.Close()
		dial = func() (net.Conn, error) { return l.Dial() }
	default:
		dial = func() (net.Conn, error) {
			nc, err := net.DialTimeout("tcp", o.target, o.timeout)
			if err != nil {
				return nil, err
			}
			if !o.useTLS {
				return nc, nil
			}
			proto, tc, err := tlsutil.NegotiateALPN(nc, o.authority)
			if err != nil {
				_ = nc.Close()
				return nil, err
			}
			if proto != tlsutil.ProtoH2 {
				_ = tc.Close()
				return nil, fmt.Errorf("server negotiated %q, not h2", proto)
			}
			return tc, nil
		}
	}

	threads := o.threads
	if threads == 0 || threads > o.conns {
		threads = o.conns
	}
	fmt.Fprintf(human, "h2load: %d requests, %d connections x %d streams on %d threads, %s%s\n",
		o.requests, o.conns, o.streams, threads, o.authority, o.path)
	res, err := h2load.Run(dial, h2load.Options{
		Connections:    o.conns,
		Threads:        o.threads,
		StreamsPerConn: o.streams,
		Requests:       o.requests,
		Authority:      o.authority,
		Path:           o.path,
		Timeout:        o.timeout,
		Metrics:        reg,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(human, res)

	if o.outPath != "" {
		w := stdout
		if !o.machineStdout() {
			f, err := os.OpenFile(o.outPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return err
			}
			defer func() {
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}()
			w = f
		}
		if err := res.Summary().WriteJSONL(w); err != nil {
			return err
		}
		if !o.machineStdout() {
			fmt.Fprintf(human, "wrote summary record to %s\n", o.outPath)
		}
	}
	return err
}
