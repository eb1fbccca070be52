// Command h2fp works the fingerprinting plane from the command line, in
// both directions: offline, it reduces exported frame traces to behavioral
// client sketches; live, it dials a server wearing a builtin client
// profile and reads the server's /fp fingerprint echo back.
//
// Offline mode (per-connection sketches with a client-family guess):
//
//	h2fp -trace traces/site-000001.example.jsonl
//
// Live mode (dial, impersonate, fetch /fp, print both sides):
//
//	h2fp -target 127.0.0.1:8443 -impersonate chrome
//	h2fp -target 127.0.0.1:8080 -plain -impersonate firefox
//
// Profile listing:
//
//	h2fp -profiles
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"h2scope/internal/fingerprint"
	"h2scope/internal/h2conn"
	"h2scope/internal/tlsutil"
	"h2scope/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	tracePath   string
	target      string
	impersonate string
	sni         string
	plain       bool
	profiles    bool
	timeout     time.Duration
}

func run(args []string, stdout, stderr io.Writer) int {
	o := &options{}
	fs := flag.NewFlagSet("h2fp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.tracePath, "trace", "", "offline mode: sketch client behavior from this exported trace (JSONL)")
	fs.StringVar(&o.target, "target", "", "live mode: dial this host:port and fetch its /fp echo")
	fs.StringVar(&o.impersonate, "impersonate", "", "builtin client profile to wear when dialing (curl, chrome, firefox, go)")
	fs.StringVar(&o.sni, "sni", "", "TLS server name; defaults to the target's host")
	fs.BoolVar(&o.plain, "plain", false, "dial cleartext prior-knowledge h2 instead of TLS")
	fs.BoolVar(&o.profiles, "profiles", false, "list the builtin impersonation profiles and exit")
	fs.DurationVar(&o.timeout, "timeout", 5*time.Second, "per-fetch wait in live mode")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: h2fp -trace <trace.jsonl>\n")
		fmt.Fprintf(stderr, "       h2fp -target <host:port> [-impersonate name] [-plain] [-sni name]\n")
		fmt.Fprintf(stderr, "       h2fp -profiles\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "h2fp: unexpected positional arguments: %v\n", fs.Args())
		return 2
	}
	modes := 0
	for _, on := range []bool{o.tracePath != "", o.target != "", o.profiles} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		fs.Usage()
		return 2
	}
	var err error
	switch {
	case o.profiles:
		err = listProfiles(stdout)
	case o.tracePath != "":
		err = sketchTrace(o.tracePath, stdout)
	default:
		err = liveEcho(o, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "h2fp: %v\n", err)
		return 1
	}
	return 0
}

// listProfiles prints each builtin profile with the HTTP/2 fingerprint a
// faithful impersonation produces.
func listProfiles(out io.Writer) error {
	for _, p := range fingerprint.BuiltinProfiles() {
		fmt.Fprintf(out, "%-8s %s\n", p.Name, p.ExpectedAkamai())
	}
	return nil
}

// sketchTrace renders per-connection behavioral sketches from an exported
// trace file.
func sketchTrace(path string, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	data, err := trace.Read(f)
	if err != nil {
		return fmt.Errorf("reading trace %s: %w", path, err)
	}
	sketches := fingerprint.Sketches(data)
	if len(sketches) == 0 {
		return fmt.Errorf("trace %s holds no frame events", path)
	}
	for _, s := range sketches {
		fmt.Fprintln(out, s.String())
	}
	return nil
}

// liveEcho dials the target, optionally impersonating a builtin profile,
// fetches /fp, and prints the server's echo next to the client's own
// expectation.
func liveEcho(o *options, out io.Writer) error {
	var profile *fingerprint.ClientProfile
	if o.impersonate != "" {
		var err error
		if profile, err = fingerprint.ProfileByName(o.impersonate); err != nil {
			return fmt.Errorf("unknown profile %q; try -profiles", o.impersonate)
		}
	}
	host, _, err := net.SplitHostPort(o.target)
	if err != nil {
		return fmt.Errorf("-target must be host:port: %w", err)
	}
	sni := o.sni
	if sni == "" {
		sni = host
	}
	nc, err := net.DialTimeout("tcp", o.target, o.timeout)
	if err != nil {
		return fmt.Errorf("dial %s: %w", o.target, err)
	}
	if !o.plain {
		if nc, err = tlsutil.UpgradeH2(nc, sni, tlsutil.ProtoH2); err != nil {
			return fmt.Errorf("TLS to %s: %w", o.target, err)
		}
	}
	defer nc.Close()
	opts := h2conn.DefaultOptions()
	opts.Impersonate = profile
	c, err := h2conn.Dial(nc, opts)
	if err != nil {
		return fmt.Errorf("h2 dial: %w", err)
	}
	defer c.Close()
	resp, err := c.FetchBody(h2conn.Request{Authority: sni, Path: "/fp"}, o.timeout)
	if err != nil {
		return fmt.Errorf("fetch /fp: %w", err)
	}
	if resp.Status() != "200" {
		return fmt.Errorf("%s answered /fp with status %q; no fingerprint echo", o.target, resp.Status())
	}
	var echo fingerprint.Echo
	if err := json.Unmarshal(resp.Body, &echo); err != nil {
		return fmt.Errorf("parsing /fp echo: %w", err)
	}
	printEcho(out, &echo, profile)
	return nil
}

// printEcho renders the server's echo, and — when impersonating — whether
// the round trip reproduced the profile's expected HTTP/2 fingerprint.
func printEcho(out io.Writer, echo *fingerprint.Echo, profile *fingerprint.ClientProfile) {
	if echo.JA3 != "" {
		fmt.Fprintf(out, "ja3:      %s\n", echo.JA3)
		fmt.Fprintf(out, "ja3_hash: %s\n", echo.JA3Hash)
	}
	if echo.JA4 != "" {
		fmt.Fprintf(out, "ja4:      %s\n", echo.JA4)
	}
	if echo.SNI != "" {
		fmt.Fprintf(out, "sni:      %s\n", echo.SNI)
	}
	if echo.ALPN != "" {
		fmt.Fprintf(out, "alpn:     %s\n", echo.ALPN)
	}
	fmt.Fprintf(out, "ja4h:     %s\n", echo.JA4H)
	fmt.Fprintf(out, "h2:       %s\n", echo.H2)
	if profile != nil {
		want := profile.ExpectedAkamai()
		verdict := "match"
		if echo.H2 != want {
			verdict = fmt.Sprintf("MISMATCH (want %s)", want)
		}
		fmt.Fprintf(out, "impersonation: %s -> %s\n", profile.Name, verdict)
	}
}
