package h2scope_test

import (
	"fmt"
	"net"
	"time"

	"h2scope"
	"h2scope/internal/netsim"
)

// ExampleNewServer shows the minimal serve-and-fetch loop through the
// public API.
func ExampleNewServer() {
	srv := h2scope.NewServer(h2scope.ApacheProfile(), h2scope.DefaultSite("doc.example"))
	l := netsim.NewListener("example-server")
	go func() {
		_ = srv.Serve(l)
	}()
	defer srv.Close()

	nc, _ := l.Dial()
	c, _ := h2scope.DialClient(nc, h2scope.DefaultClientOptions())
	defer func() {
		_ = c.Close()
	}()
	resp, _ := c.FetchBody(h2scope.Request{Authority: "doc.example", Path: "/about.html"}, 5*time.Second)
	fmt.Println(resp.Status(), resp.Header("server"))
	// Output: 200 Apache/2.4.23
}

// ExampleProbe runs one H2Scope probe battery and prints two Table III
// verdicts.
func ExampleProbe() {
	srv := h2scope.NewServer(h2scope.LiteSpeedProfile(), h2scope.DefaultSite("doc.example"))
	l := netsim.NewListener("example-probe")
	go func() {
		_ = srv.Serve(l)
	}()
	defer srv.Close()

	cfg := h2scope.DefaultProbeConfig("doc.example")
	cfg.QuietWindow = 20 * time.Millisecond
	report, err := h2scope.Probe(
		h2scope.DialerFunc(func() (net.Conn, error) { return l.Dial() }), cfg)
	if err != nil {
		fmt.Println("probe failed:", err)
		return
	}
	fmt.Println("flow control on HEADERS:", report.FlowControlOnHeaders())
	fmt.Println("priority:", report.PriorityVerdict())
	// Output:
	// flow control on HEADERS: true
	// priority: fail
}

// ExampleGeneratePopulation regenerates two of the paper's published
// counts from the synthetic Jan 2017 universe.
func ExampleGeneratePopulation() {
	pop := h2scope.GeneratePopulation(h2scope.EpochJan2017, 1.0, 42)
	t := pop.Tally()
	fmt.Println(t.NPN, t.ALPN, t.GotHeaders)
	fmt.Println(t.PriorityLast, t.PriorityFirst, t.PriorityBoth)
	// Output:
	// 78714 70859 64299
	// 2187 117 111
}
