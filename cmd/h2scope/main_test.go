package main

import (
	"encoding/json"
	"net"
	"regexp"
	"strings"
	"testing"

	"h2scope/internal/core"
	"h2scope/internal/server"
)

// TestProbeOverTCPPrintsTableIIIColumn drives the CLI against an nghttpd-like
// server on TCP loopback and holds the printed column to the paper's Table
// III; a cleartext target has no ALPN or NPN to show.
func TestProbeOverTCPPrintsTableIIIColumn(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-target", serveNghttpd(t), "-quiet", "20ms"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := make(map[string]string)
	columns := regexp.MustCompile(`\s{2,}`)
	for _, line := range strings.Split(out.String(), "\n") {
		if cells := columns.Split(strings.TrimSpace(line), -1); len(cells) == 2 {
			got[cells[0]] = cells[1]
		}
	}
	nghttpd := []string{"n/a", "n/a", "support", "yes", "no", "GOAWAY", "GOAWAY", "GOAWAY",
		"RST_STREAM", "yes", "pass", "GOAWAY", "support", "support"}
	for i, check := range core.TableIIIRowNames {
		if got[check] != nghttpd[i] {
			t.Errorf("%s = %q, want %q", check, got[check], nghttpd[i])
		}
	}
	if t.Failed() {
		t.Logf("output:\n%s", out.String())
	}
}

// TestJSONHoldsTheReportAlone pins the -json document to the battery's report
// when no other probe is asked for.
func TestJSONHoldsTheReportAlone(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-target", serveNghttpd(t), "-quiet", "20ms", "-json"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	var doc struct {
		Report json.RawMessage `json:"report"`
	}
	dec := json.NewDecoder(strings.NewReader(out.String()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil || doc.Report == nil {
		t.Errorf("-json output: %v, report %d bytes; want a report and no other key", err, len(doc.Report))
	}
}

// serveNghttpd serves the nghttpd testbed profile on TCP loopback for the
// test's lifetime and returns its address.
func serveNghttpd(t *testing.T) string {
	t.Helper()
	srv := server.New(server.NghttpdProfile(), server.DefaultSite("testbed.example"))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_ = srv.Serve(l)
	}()
	t.Cleanup(srv.Close)
	return l.Addr().String()
}

func TestFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "missing -target"},
		{[]string{"-target", "127.0.0.1:1", "-retries", "-1"}, "-retries must be >= 0"},
		{[]string{"-target", "127.0.0.1:1", "-timeout", "0"}, "-timeout must be positive"},
		// The beyond-paper checks run in h2conform's suite, not here.
		{[]string{"-target", "127.0.0.1:1", "-extensions"}, "flag provided but not defined: -extensions"},
	} {
		if err := run(tc.args, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}
