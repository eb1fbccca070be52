package h2scope_test

import (
	"context"
	"fmt"
	"net"
	"strings"
	"time"

	"h2scope"
	"h2scope/internal/core"
	"h2scope/internal/h2conn"
	"h2scope/internal/netsim"
	"h2scope/internal/population"
	"h2scope/internal/server"
)

// Example starts an emulated HTTP/2 server in-process, fetches a page over a
// raw-frame client connection, then runs one H2Scope probe against it.
func Example() {
	// 1. An H2O-like server (push-capable, priority-scheduling) serving the
	// default testbed document tree, over an in-memory listener. Swap in
	// net.Listen("tcp", ...) for a real socket.
	srv := server.New(server.H2OProfile(), server.DefaultSite("quickstart.example"))
	l := netsim.NewListener("quickstart")
	go func() {
		_ = srv.Serve(l)
	}()
	defer srv.Close()

	// 2. Fetch the front page with the raw-frame client.
	nc, err := l.Dial()
	if err != nil {
		fmt.Println(err)
		return
	}
	c, err := h2conn.Dial(nc, h2conn.DefaultOptions())
	if err != nil {
		fmt.Println(err)
		return
	}
	defer func() {
		_ = c.Close()
	}()
	resp, err := c.FetchBody(h2conn.Request{Authority: "quickstart.example", Path: "/"}, 5*time.Second)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("GET / -> %s, %d body bytes, server %q\n",
		resp.Status(), len(resp.Body), resp.Header("server"))

	// The server pushed the page's subresources: list the promises.
	for _, e := range c.Events() {
		if e.PromiseID != 0 {
			for _, hf := range e.Headers {
				if hf.Name == ":path" {
					fmt.Printf("pushed: %s (stream %d)\n", hf.Value, e.PromiseID)
				}
			}
		}
	}

	// 3. Run one probe from the paper's battery: the HPACK compression
	// ratio (Section III-E).
	prober := core.NewProber(
		core.DialerFunc(func() (net.Conn, error) { return l.Dial() }),
		core.DefaultConfig("quickstart.example"))
	hp, err := prober.ProbeHPACK(context.Background())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("HPACK ratio over %d identical requests: r = %.3f (block sizes %v)\n",
		hp.Requests, hp.Ratio, hp.BlockSizes)
	// Output:
	// GET / -> 200, 259 body bytes, server "h2o/1.6.2"
	// pushed: /static/style.css (stream 2)
	// pushed: /static/app.js (stream 4)
	// HPACK ratio over 8 identical requests: r = 0.195 (block sizes [112 9 9 9 9 9 9 9])
}

// ExampleRunTestbed re-measures the paper's Table III — the full H2Scope
// battery against the six emulated server implementations — and prints the
// matrix, then the RFC 7540 deviations the paper calls out.
func ExampleRunTestbed() {
	res, err := h2scope.RunTestbed()
	if err != nil {
		fmt.Println(err)
		return
	}
	// Line by line without the last column's padding, which an Output
	// comment cannot hold.
	for _, line := range strings.Split(res.String(), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}

	fmt.Println("Notable deviations from RFC 7540:")
	for i, report := range res.Reports {
		family := res.Families[i]
		if report.FlowControlOnHeaders() {
			fmt.Printf("  %s applies flow control to HEADERS frames (RFC 7540 covers DATA only)\n", family)
		}
		if report.ZeroWU != nil && report.ZeroWU.Stream == core.ObserveIgnore {
			fmt.Printf("  %s ignores zero WINDOW_UPDATE on streams (RFC calls for RST_STREAM)\n", family)
		}
		if report.ZeroWU != nil && report.ZeroWU.Stream == core.ObserveGoAway {
			fmt.Printf("  %s escalates a stream-level zero WINDOW_UPDATE to GOAWAY\n", family)
		}
		if report.SelfDep != nil && report.SelfDep.Reaction != core.ObserveRSTStream {
			fmt.Printf("  %s answers self-dependent streams with %v (RFC calls for RST_STREAM)\n",
				family, report.SelfDep.Reaction)
		}
		if report.HeaderCompressionVerdict() == "support*" {
			fmt.Printf("  %s never indexes response headers (HPACK ratio r = %.2f)\n",
				family, report.HPACK.Ratio)
		}
	}
	// Output:
	// Check                                     nginx       litespeed   h2o         nghttpd     tengine     apache
	// ----------------------------------------  ----------  ----------  ----------  ----------  ----------  ----------
	// ALPN                                      support     support     support     support     support     support
	// NPN                                       support     support     support     support     support     no support
	// Request Multiplexing                      support     support     support     support     support     support
	// Flow Control on DATA Frames               yes         yes         yes         yes         yes         yes
	// Flow Control on HEADERS Frames            no          yes         no          no          no          no
	// Zero Window Update on stream              ignore      RST_STREAM  RST_STREAM  GOAWAY      ignore      GOAWAY
	// Zero Window Update on connection          ignore      GOAWAY      GOAWAY      GOAWAY      ignore      GOAWAY
	// Large Window Update (Connection)          GOAWAY      GOAWAY      GOAWAY      GOAWAY      GOAWAY      GOAWAY
	// Large Window Update (Stream)              RST_STREAM  RST_STREAM  RST_STREAM  RST_STREAM  RST_STREAM  RST_STREAM
	// Server Push                               no          no          yes         yes         no          yes
	// Priority Mechanism Testing (Algorithm 1)  fail        fail        pass        pass        fail        pass
	// Self-dependent Stream                     RST_STREAM  ignore      GOAWAY      GOAWAY      RST_STREAM  GOAWAY
	// Header Compression                        support*    support     support     support     support*    support
	// HTTP/2 PING                               support     support     support     support     support     support
	//
	// Notable deviations from RFC 7540:
	//   nginx ignores zero WINDOW_UPDATE on streams (RFC calls for RST_STREAM)
	//   nginx never indexes response headers (HPACK ratio r = 1.00)
	//   litespeed applies flow control to HEADERS frames (RFC 7540 covers DATA only)
	//   litespeed answers self-dependent streams with ignore (RFC calls for RST_STREAM)
	//   h2o answers self-dependent streams with GOAWAY (RFC calls for RST_STREAM)
	//   nghttpd escalates a stream-level zero WINDOW_UPDATE to GOAWAY
	//   nghttpd answers self-dependent streams with GOAWAY (RFC calls for RST_STREAM)
	//   tengine ignores zero WINDOW_UPDATE on streams (RFC calls for RST_STREAM)
	//   tengine never indexes response headers (HPACK ratio r = 1.00)
	//   apache escalates a stream-level zero WINDOW_UPDATE to GOAWAY
	//   apache answers self-dependent streams with GOAWAY (RFC calls for RST_STREAM)
}

// ExampleNewCensus regenerates two of the paper's published counts from the
// synthetic Jan 2017 universe.
func ExampleNewCensus() {
	t := h2scope.NewCensus(population.EpochJan2017, 1.0, 42).Tally
	fmt.Println(t.NPN, t.ALPN, t.GotHeaders)
	fmt.Println(t.PriorityLast, t.PriorityFirst, t.PriorityBoth)
	// Output:
	// 78714 70859 64299
	// 2187 117 111
}
