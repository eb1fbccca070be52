package server

import (
	"bytes"
	"crypto/tls"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"h2scope/internal/tlsutil"
)

// The interop oracle, first slice: the standard library's HTTP/2 client — an
// implementation that shares no code and no reading of RFC 7540 with this
// repository — against every testbed profile over TLS on TCP loopback. Go's
// client reports what it takes for a peer's protocol violation on the std
// logger, so anything logged fails the test.

// syncBuffer is a log sink the client's goroutines may write concurrently.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestInteropNetHTTP(t *testing.T) {
	const domain = "interop.example"
	cert, err := tlsutil.SelfSignedCert(domain, "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range TestbedProfiles() {
		t.Run(p.Family, func(t *testing.T) {
			var logged syncBuffer
			prev := log.Writer()
			log.SetOutput(&logged)
			t.Cleanup(func() { log.SetOutput(prev) })

			site := DefaultSite(domain)
			srv := New(p, site)
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				_ = srv.Serve(tls.NewListener(l, tlsutil.ServerConfig(cert, p.SupportsALPN)))
			}()
			t.Cleanup(srv.Close)
			tr := &http.Transport{
				ForceAttemptHTTP2: true,
				TLSClientConfig:   tlsutil.ClientConfig(domain),
			}
			t.Cleanup(tr.CloseIdleConnections)
			client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
			base := "https://" + l.Addr().String()

			// do sends one request, with a body when reqBody is not empty, and
			// returns the response with its body read.
			do := func(method, path, reqBody string, trailer http.Header) (*http.Response, []byte, error) {
				var rd io.Reader
				if reqBody != "" {
					rd = strings.NewReader(reqBody)
				}
				req, err := http.NewRequest(method, base+path, rd)
				if err != nil {
					return nil, nil, err
				}
				req.Host = domain
				req.Trailer = trailer
				resp, err := client.Do(req)
				if err != nil {
					return nil, nil, err
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				return resp, body, err
			}

			// Six 96 KiB bodies at once: multiplexing and both flow-control
			// windows, byte for byte.
			var wg sync.WaitGroup
			for i := 1; i <= 6; i++ {
				wg.Add(1)
				go func(path string) {
					defer wg.Done()
					resp, body, err := do("GET", path, "", nil)
					if err != nil {
						t.Errorf("GET %s: %v", path, err)
						return
					}
					want, _ := site.Lookup(path)
					if resp.StatusCode != 200 || resp.ProtoMajor != 2 || !bytes.Equal(body, want.Body) {
						t.Errorf("GET %s: status %d, HTTP/%d, %d body bytes (want 200, 2, the site's %d)",
							path, resp.StatusCode, resp.ProtoMajor, len(body), len(want.Body))
					}
				}("/large/" + strconv.Itoa(i))
			}
			wg.Wait()

			if resp, _, err := do("GET", "/no-such-object", "", nil); err != nil || resp.StatusCode != 404 {
				t.Errorf("GET of a missing object: %v, %v; want 404", resp, err)
			}

			// RFC 7540 section 8.1 with RFC 7231 section 4.3.2: the header
			// block a GET would draw, content-length included, and no DATA.
			resp, body, err := do("HEAD", "/large/1", "", nil)
			if err != nil {
				t.Fatalf("HEAD: %v", err)
			}
			if resp.StatusCode != 200 || resp.ContentLength != 96*1024 || len(body) != 0 {
				t.Errorf("HEAD /large/1: status %d, content-length %d, %d body bytes; want 200, 98304, 0",
					resp.StatusCode, resp.ContentLength, len(body))
			}
			if resp, _, err := do("GET", "/about.html", "", nil); err != nil || resp.StatusCode != 200 {
				t.Errorf("GET after HEAD on the same connection: %v, %v", resp, err)
			}

			// A POST with a body, then one whose body is followed by a trailer
			// block (RFC 7540 section 8.1): both are answered with the object
			// the request named.
			about, _ := site.Lookup("/about.html")
			for _, trailer := range []http.Header{nil, {"X-Checksum": {"f00d"}}} {
				resp, body, err := do("POST", "/about.html", "form=1", trailer)
				if err != nil || resp.StatusCode != 200 || !bytes.Equal(body, about.Body) {
					t.Errorf("POST /about.html with trailers %v: %v, %d body bytes; want 200 and the site's %d",
						trailer, err, len(body), len(about.Body))
				}
			}

			// Graceful shutdown with the connection idle: GOAWAY(NO_ERROR) is
			// not an error to the client, and the next request finds no server.
			done := make(chan struct{})
			go func() {
				srv.Shutdown(200 * time.Millisecond)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Shutdown did not return")
			}
			if resp, _, err := do("GET", "/about.html", "", nil); err == nil {
				t.Errorf("GET after Shutdown: status %d, want a dial error", resp.StatusCode)
			}
			if out := logged.String(); out != "" {
				t.Errorf("net/http's client logged:\n%s", out)
			}
		})
	}
}
