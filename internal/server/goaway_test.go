package server

import (
	"net"
	"testing"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/hpack"
	"h2scope/internal/metrics"
	"h2scope/internal/netsim"
)

// TestShutdownUnderMultiplexedLoad shuts the server down while four
// connections keep 32 streams each in flight. Shutdown announces GOAWAY from
// its own goroutine, so whatever it reads of a connection must not be the
// serve goroutine's alone: under -race this fails if the last-stream-id is
// taken from c.streams, which the serve goroutine is inserting into and
// deleting from the whole time.
func TestShutdownUnderMultiplexedLoad(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := New(NghttpdProfile(), DefaultSite("load.example"))
	srv.Metrics = NewMetrics(reg)
	l := netsim.NewListener("shutdown-load")
	go func() {
		_ = srv.Serve(l)
	}()

	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		// The quota is out of reach on purpose: GOAWAY and the closed
		// listener end the run, and how many requests got through is not
		// what is being tested.
		_, _, _ = runLoad(func() (net.Conn, error) { return l.Dial() }, loadSpec{
			conns:     4,
			streams:   32,
			requests:  1 << 30,
			authority: "load.example",
			path:      "/about.html",
			timeout:   2 * time.Second,
		})
	}()
	waitFor(t, 10*time.Second, func() bool {
		return snapshotValue(reg, "h2_server_streams_opened_total") > 2000
	}, "the load to ramp up")

	srv.Shutdown(200 * time.Millisecond)
	select {
	case <-loadDone:
	case <-time.After(15 * time.Second):
		t.Fatal("load generator still running after Shutdown returned")
	}
}

// TestGoAwayCarriesHighestStreamActedOn checks the GOAWAY last-stream-id
// (RFC 7540 section 6.8) after streams 1, 3 and 5 have been answered in
// full and closed: it names stream 5, the highest stream the server acted
// on, not the highest one still open (none, so 0) — and a later request on one
// of those IDs is a connection error, not a second response.
func TestGoAwayCarriesHighestStreamActedOn(t *testing.T) {
	cases := []struct {
		name string
		code frame.ErrCode
		// provoke makes the server send GOAWAY on the connection.
		provoke func(t *testing.T, srv *Server, fr *frame.Framer)
	}{
		{"shutdown", frame.ErrCodeNo, func(t *testing.T, srv *Server, fr *frame.Framer) {
			go srv.Shutdown(5 * time.Second)
		}},
		{"connection error", frame.ErrCodeProtocol, func(t *testing.T, srv *Server, fr *frame.Framer) {
			// An even client stream ID is a connection error.
			if err := fr.WriteHeaders(frame.HeadersParams{StreamID: 2, EndStream: true, EndHeaders: true}); err != nil {
				t.Fatal(err)
			}
			if err := fr.Flush(); err != nil {
				t.Fatal(err)
			}
		}},
		{"stream ID not increasing", frame.ErrCodeProtocol, func(t *testing.T, srv *Server, fr *frame.Framer) {
			// RFC 7540 section 5.1.1. PRIORITY may name any stream, used or
			// not, so the PING behind it is answered; a request on stream 3
			// after stream 5 is not a request.
			if err := fr.WritePriority(3, frame.PriorityParam{StreamDep: 9, Weight: 7}); err != nil {
				t.Fatal(err)
			}
			if err := fr.WritePing(false, [8]byte{5, 1, 1}); err != nil {
				t.Fatal(err)
			}
			if err := fr.Flush(); err != nil {
				t.Fatal(err)
			}
			if f, err := fr.ReadFrame(); err != nil || f.Header().Type != frame.TypePing {
				t.Fatalf("after PRIORITY on a closed stream: %v, %v; want the PING ACK", f, err)
			}
			if err := fr.WriteRawBytes(encodeRequest(t, hpack.NewEncoder(hpack.PolicyNoDynamicInsert), 3, "/about.html")); err != nil {
				t.Fatal(err)
			}
			if err := fr.Flush(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(NghttpdProfile(), DefaultSite("testbed.example"))
			l := netsim.NewListener("goaway-last-stream")
			go func() {
				_ = srv.Serve(l)
			}()
			t.Cleanup(srv.Close)
			nc, err := l.Dial()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = nc.Close() })

			fr := frame.NewFramer(nc, nc)
			if err := fr.WriteRawBytes([]byte(frame.ClientPreface)); err != nil {
				t.Fatal(err)
			}
			if err := fr.WriteSettings(); err != nil {
				t.Fatal(err)
			}
			enc := hpack.NewEncoder(hpack.PolicyNoDynamicInsert)
			for _, id := range []uint32{1, 3, 5} {
				if err := fr.WriteRawBytes(encodeRequest(t, enc, id, "/about.html")); err != nil {
					t.Fatal(err)
				}
			}
			if err := fr.Flush(); err != nil {
				t.Fatal(err)
			}
			for ended := 0; ended < 3; {
				f, err := fr.ReadFrame()
				if err != nil {
					t.Fatalf("reading responses: %v", err)
				}
				if d, ok := f.(*frame.DataFrame); ok && d.StreamEnded() {
					ended++
				}
			}

			tc.provoke(t, srv, fr)
			for {
				f, err := fr.ReadFrame()
				if err != nil {
					t.Fatalf("connection ended before GOAWAY: %v", err)
				}
				ga, ok := f.(*frame.GoAwayFrame)
				if !ok {
					continue
				}
				if ga.Code != tc.code {
					t.Errorf("GOAWAY code = %v, want %v", ga.Code, tc.code)
				}
				if ga.LastStreamID != 5 {
					t.Errorf("GOAWAY last-stream-id = %d, want 5", ga.LastStreamID)
				}
				return
			}
		})
	}
}

// TestNoGoAwayBeforeServerPreface: SETTINGS is the first frame a server sends
// (RFC 7540 section 3.5), so a connection that Shutdown finds still waiting
// for the client preface is closed, not told GOAWAY. net/http's client logs a
// protocol error for the GOAWAY the parent sent here (the interop test under
// -race, where a spare TLS dial is still mid-handshake at shutdown).
func TestNoGoAwayBeforeServerPreface(t *testing.T) {
	srv := New(NghttpdProfile(), DefaultSite("early.example"))
	clientNC, serverNC := netsim.Pipe()
	defer func() { _ = clientNC.Close() }()
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.ServeConn(serverNC)
	}()
	waitFor(t, 5*time.Second, func() bool { return tableSize(srv) == 1 }, "the connection to be tracked")

	start := time.Now()
	go srv.Shutdown(5 * time.Second)
	_ = clientNC.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := clientNC.Read(make([]byte, 64)); n != 0 || err == nil {
		t.Errorf("read %d octets (%v) from a server that has not seen the client preface, want a bare close", n, err)
	}
	<-served
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("connection closed after %v, want at once", took)
	}
}
