// Transcript: dump a frame-level transcript of an HTTP/2 exchange — the
// reproduction's equivalent of the wire captures used to validate H2Scope
// against open-source servers (Section V-A). The exchange shown is a
// push-enabled page fetch followed by a deliberately illegal zero
// WINDOW_UPDATE, so both normal traffic and an error reaction appear.
//
//	go run ./examples/transcript
package main

import (
	"fmt"
	"os"
	"time"

	"h2scope"
	"h2scope/internal/h2conn"
	"h2scope/internal/netsim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "transcript:", err)
		os.Exit(1)
	}
}

func run() error {
	srv := h2scope.NewServer(h2scope.NghttpdProfile(), h2scope.DefaultSite("wire.example"))
	l := netsim.NewListener("transcript")
	go func() {
		_ = srv.Serve(l)
	}()
	defer srv.Close()

	nc, err := l.Dial()
	if err != nil {
		return err
	}
	c, err := h2scope.DialClient(nc, h2scope.DefaultClientOptions())
	if err != nil {
		return err
	}
	defer func() {
		_ = c.Close()
	}()

	if _, err := c.FetchBody(h2scope.Request{Authority: "wire.example", Path: "/"}, 5*time.Second); err != nil {
		return err
	}
	// Provoke the server: nghttpd answers a zero WINDOW_UPDATE with GOAWAY.
	id := c.NextStreamID()
	if err := c.OpenStreamID(id, h2scope.Request{Authority: "wire.example", Path: "/about.html"}); err != nil {
		return err
	}
	if err := c.WriteWindowUpdate(id, 0); err != nil {
		return err
	}
	var events []h2conn.Event
	c.WaitQuiet(0, 30*time.Millisecond, 2*time.Second, func(e h2conn.Event) { events = append(events, e) })

	fmt.Println("frame transcript (server → client):")
	fmt.Print(h2conn.FormatEvents(events))
	return nil
}
