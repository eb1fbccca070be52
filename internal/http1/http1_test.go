package http1_test

import (
	"bufio"
	"io"
	"strings"
	"testing"
	"time"

	"h2scope/internal/h2conn"
	"h2scope/internal/http1"
	"h2scope/internal/netsim"
	"h2scope/internal/server"
)

func startHTTP1(t *testing.T, h *http1.Handler) *netsim.Listener {
	t.Helper()
	l := netsim.NewListener("http1")
	go func() {
		for {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			go func() { _ = h.ServeConn(nc) }()
		}
	}()
	t.Cleanup(func() {
		_ = l.Close()
	})
	return l
}

func TestGETRoundTrip(t *testing.T) {
	h := &http1.Handler{Site: server.DefaultSite("h1.example"), ServerName: "h1repro/1.0"}
	l := startHTTP1(t, h)
	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = nc.Close()
	}()
	if _, err := io.WriteString(nc, "GET /about.html HTTP/1.1\r\nHost: h1.example\r\nConnection: close\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(nc)
	if err != nil {
		t.Fatal(err)
	}
	resp := string(raw)
	if !strings.HasPrefix(resp, "HTTP/1.1 200 OK\r\n") {
		t.Errorf("response start = %q", resp[:40])
	}
	if !strings.Contains(resp, "Server: h1repro/1.0\r\n") {
		t.Error("missing Server header")
	}
	if !strings.Contains(resp, "About h1.example") {
		t.Error("missing body content")
	}
}

func Test404(t *testing.T) {
	h := &http1.Handler{Site: server.DefaultSite("h1.example"), ServerName: "h1repro/1.0"}
	l := startHTTP1(t, h)
	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = nc.Close()
	}()
	if _, err := io.WriteString(nc, "GET /nope HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, "404") {
		t.Errorf("status line = %q, want 404", line)
	}
}

func TestKeepAliveServesTwoRequests(t *testing.T) {
	h := &http1.Handler{Site: server.DefaultSite("h1.example"), ServerName: "h1repro/1.0"}
	l := startHTTP1(t, h)
	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = nc.Close()
	}()
	br := bufio.NewReader(nc)
	for i := 0; i < 2; i++ {
		if _, err := io.WriteString(nc, "GET /about.html HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		status, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("request %d: %v", i+1, err)
		}
		if !strings.Contains(status, "200") {
			t.Fatalf("request %d status %q", i+1, status)
		}
		// Read headers, find content-length, consume body.
		length := 0
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			line = strings.TrimRight(line, "\r\n")
			if line == "" {
				break
			}
			if v, ok := strings.CutPrefix(line, "Content-Length: "); ok {
				length = atoi(t, v)
			}
		}
		if _, err := io.CopyN(io.Discard, br, int64(length)); err != nil {
			t.Fatal(err)
		}
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			t.Fatalf("bad integer %q", s)
		}
		n = n*10 + int(r-'0')
	}
	return n
}

func TestRequestRTTIncludesProcessingDelay(t *testing.T) {
	// Fig. 6's observation: HTTP/1.1-based RTT estimates exceed the network
	// RTT by the server's processing time.
	const delay = 30 * time.Millisecond
	h := &http1.Handler{
		Site:            server.DefaultSite("h1.example"),
		ServerName:      "h1repro/1.0",
		ProcessingDelay: delay,
	}
	l := startHTTP1(t, h)
	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = nc.Close()
	}()
	rtt, err := http1.RequestRTT(nc, "h1.example", "/about.html")
	if err != nil {
		t.Fatalf("RequestRTT: %v", err)
	}
	if rtt < delay {
		t.Errorf("rtt = %v, want >= %v (processing delay)", rtt, delay)
	}
}

func TestH2CUpgrade(t *testing.T) {
	// Section IV-A: 101 Switching Protocols hands the connection to HTTP/2.
	site := server.DefaultSite("h2c.example")
	h2 := server.New(server.NginxProfile(), site)
	h := &http1.Handler{Site: site, ServerName: "h1repro/1.0", H2C: h2}
	l := startHTTP1(t, h)
	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if err := http1.UpgradeH2C(nc, "h2c.example"); err != nil {
		t.Fatalf("UpgradeH2C: %v", err)
	}
	c, err := h2conn.Dial(nc, h2conn.DefaultOptions())
	if err != nil {
		t.Fatalf("h2 dial after upgrade: %v", err)
	}
	defer func() {
		_ = c.Close()
	}()
	resp, err := c.FetchBody(h2conn.Request{Authority: "h2c.example", Path: "/about.html", Scheme: "http"}, 5*time.Second)
	if err != nil {
		t.Fatalf("FetchBody over h2c: %v", err)
	}
	if resp.Status() != "200" {
		t.Errorf("status = %q, want 200", resp.Status())
	}
}

func TestUpgradeRefusedWithoutH2C(t *testing.T) {
	h := &http1.Handler{Site: server.DefaultSite("h1.example"), ServerName: "h1repro/1.0"}
	l := startHTTP1(t, h)
	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = nc.Close()
	}()
	if err := http1.UpgradeH2C(nc, "h1.example"); err == nil {
		t.Fatal("upgrade accepted by server without h2c support")
	}
}
