// Dosprobe: demonstrates the two denial-of-service angles the paper's
// Discussion section raises, against an emulated server:
//
//  1. A malicious receiver pins server memory by advertising a 1-byte
//     stream window and requesting large objects: the server must hold the
//     queued response bytes while trickling 1-byte DATA frames (the HTTP/2
//     analogue of the misbehaving-TCP-receiver attack the paper cites).
//
//  2. Reprioritization churn: a client can force the server to rebuild its
//     dependency tree with a stream of PRIORITY frames (an algorithmic-
//     complexity attack surface); the server must stay responsive.
//
//     go run ./examples/dosprobe
package main

import (
	"fmt"
	"os"
	"time"

	"h2scope"
	"h2scope/internal/frame"
	"h2scope/internal/h2conn"
	"h2scope/internal/netsim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dosprobe:", err)
		os.Exit(1)
	}
}

func run() error {
	srv := h2scope.NewServer(h2scope.ApacheProfile(), h2scope.DefaultSite("victim.example"))
	l := netsim.NewListener("dosprobe")
	go func() {
		_ = srv.Serve(l)
	}()
	defer srv.Close()

	if err := tinyWindowPin(l); err != nil {
		return err
	}
	return priorityChurn(l)
}

// tinyWindowPin requests N large objects under a 1-byte window and reports
// how many response bytes the server is forced to keep queued.
func tinyWindowPin(l *netsim.Listener) error {
	nc, err := l.Dial()
	if err != nil {
		return err
	}
	opts := h2scope.ClientOptions{
		Settings:        []frame.Setting{{ID: frame.SettingInitialWindowSize, Val: 1}},
		AutoSettingsAck: true,
		AutoPingAck:     true,
	}
	c, err := h2scope.DialClient(nc, opts)
	if err != nil {
		return err
	}
	defer func() {
		_ = c.Close()
	}()

	const (
		streams    = 8
		objectSize = 96 * 1024
	)
	for i := 1; i <= streams; i++ {
		path := fmt.Sprintf("/large/%d", i)
		if _, err := c.OpenStream(h2scope.Request{Authority: "victim.example", Path: path}); err != nil {
			return err
		}
	}
	received := 0
	c.WaitQuiet(0, 50*time.Millisecond, 2*time.Second, func(e h2conn.Event) { received += len(e.Data) })
	pinned := streams*objectSize - received
	fmt.Println("-- DoS angle 1: 1-byte window, large objects --")
	fmt.Printf("requested %d objects (%d KiB total), received %d bytes of DATA\n",
		streams, streams*objectSize/1024, received)
	fmt.Printf("=> the server is holding ~%d KiB of queued response data for one\n", pinned/1024)
	fmt.Println("   connection; a few thousand such connections exhaust its memory.")
	fmt.Println("   (Paper: Section V-D.1 / Discussion, the malicious-receiver attack.)")
	fmt.Println()
	return nil
}

// priorityChurn fires PRIORITY frames that keep reshaping the dependency
// tree, then checks the server still answers PING promptly.
func priorityChurn(l *netsim.Listener) error {
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

	const frames = 5000
	start := time.Now()
	for i := 0; i < frames; i++ {
		id := uint32(2*(i%64) + 1)
		dep := uint32(2*((i+13)%64) + 1)
		if dep == id {
			dep = 0
		}
		if err := c.WritePriority(id, frame.PriorityParam{
			StreamDep: dep,
			Exclusive: i%2 == 0,
			Weight:    uint8(i),
		}); err != nil {
			return err
		}
	}
	churn := time.Since(start)
	rtt, err := c.Ping([8]byte{'d', 'o', 's'}, 5*time.Second)
	if err != nil {
		return fmt.Errorf("server unresponsive after churn: %w", err)
	}
	fmt.Println("-- DoS angle 2: reprioritization churn --")
	fmt.Printf("sent %d PRIORITY frames (tree rebuilt each time) in %v\n", frames, churn)
	fmt.Printf("server still answers PING in %v — the tree operations are cheap here,\n", rtt)
	fmt.Println("   but the paper notes RFC 7540 puts no bound on this work.")
	return nil
}
