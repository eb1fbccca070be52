package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/h2conn"
	"h2scope/internal/netsim"
)

// loadSpec describes a closed-loop load for the lifecycle tests: conns
// connections, each keeping streams GETs of path in flight per batch, until
// requests have been claimed or every connection has ended.
type loadSpec struct {
	conns, streams, requests int
	authority, path          string
	// timeout bounds one batch; a connection that does not finish a batch
	// in time is abandoned and the batch's open requests count as failed.
	timeout time.Duration
}

// runLoad drives spec over h2conn and reports how many requests got a
// complete 200 response and how many did not. Every connection it opened is
// closed by the time it returns, on the error paths too.
func runLoad(dial func() (net.Conn, error), spec loadSpec) (ok, failed int64, err error) {
	clients := make([]*h2conn.Conn, 0, spec.conns)
	defer func() {
		for _, c := range clients {
			_ = c.Close()
		}
	}()
	opts := h2conn.DefaultOptions()
	for i := 0; i < spec.conns; i++ {
		nc, err := dial()
		if err != nil {
			return 0, 0, fmt.Errorf("load: dial %d: %w", i, err)
		}
		c, err := h2conn.Dial(nc, opts) // closes nc when it fails
		if err != nil {
			return 0, 0, fmt.Errorf("load: conn %d: %w", i, err)
		}
		clients = append(clients, c)
	}

	reqs := make([]h2conn.Request, spec.streams)
	for i := range reqs {
		reqs[i] = h2conn.Request{Authority: spec.authority, Path: spec.path}
	}
	var claimed, okN, failedN atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *h2conn.Conn) {
			defer wg.Done()
			for {
				n := int64(spec.streams)
				if over := claimed.Add(n) - int64(spec.requests); over > 0 {
					n -= over
				}
				if n <= 0 {
					return
				}
				good, alive := loadBatch(c, reqs[:n], spec.timeout)
				okN.Add(good)
				failedN.Add(n - good)
				if !alive {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return okN.Load(), failedN.Load(), nil
}

// loadBatch opens one stream per request, waits until each has ended (or the
// connection has: GOAWAY, close, timeout) and counts the complete 200
// responses. alive is false once the connection can take no further batch.
func loadBatch(c *h2conn.Conn, reqs []h2conn.Request, timeout time.Duration) (good int64, alive bool) {
	from := c.Mark()
	resps := make(map[uint32]*h2conn.Response, len(reqs))
	for _, req := range reqs {
		id, err := c.OpenStream(req)
		if err != nil {
			return 0, false
		}
		resps[id] = h2conn.NewResponse(id)
	}
	goAway, pending := false, len(resps)
	_, err := c.Wait(from, timeout, func(e h2conn.Event) bool {
		if e.Type == frame.TypeGoAway {
			goAway = true
			return true
		}
		// Anything else is the control stream or a pushed stream.
		if r := resps[e.StreamID]; r != nil && !r.Done() {
			if r.Add(e); r.Done() {
				pending--
			}
		}
		return pending == 0
	})
	for _, r := range resps {
		if r.Status() == "200" && r.EndStream && r.Reset == nil {
			good++
		}
	}
	return good, err == nil && !goAway
}

// closeRecorder notes when the client end of a connection is closed.
type closeRecorder struct {
	net.Conn
	closed atomic.Bool
}

func (c *closeRecorder) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

// TestRunLoadClosesConnsOnDialFailure fails the third dial of a
// four-connection load: runLoad reports the error and leaves neither of the
// two connections it had opened behind, on the client or in the server's
// table.
func TestRunLoadClosesConnsOnDialFailure(t *testing.T) {
	srv := New(NghttpdProfile(), DefaultSite("load.example"))
	l := netsim.NewListener("load-dial-failure")
	go func() {
		_ = srv.Serve(l)
	}()
	defer srv.Close()

	errRefused := errors.New("refused")
	var opened []*closeRecorder
	dial := func() (net.Conn, error) {
		if len(opened) == 2 {
			return nil, errRefused
		}
		nc, err := l.Dial()
		if err != nil {
			return nil, err
		}
		rec := &closeRecorder{Conn: nc}
		opened = append(opened, rec)
		return rec, nil
	}
	_, _, err := runLoad(dial, loadSpec{conns: 4, streams: 4, requests: 100, authority: "load.example", path: "/about.html", timeout: time.Second})
	if !errors.Is(err, errRefused) {
		t.Fatalf("runLoad = %v, want the dial error", err)
	}
	if len(opened) != 2 {
		t.Fatalf("%d connections opened before the failing dial, want 2", len(opened))
	}
	for i, rec := range opened {
		if !rec.closed.Load() {
			t.Errorf("connection %d still open after runLoad returned", i)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return tableSize(srv) == 0 }, "the server to drop both connections")
}

// TestRunLoadCountsOnlyComplete200s keeps the hammer's "400 ok / 0 failed"
// from passing vacuously: a 404 is a failed request, and the quota is met
// exactly even when it is not a multiple of the batch depth.
func TestRunLoadCountsOnlyComplete200s(t *testing.T) {
	srv := New(NghttpdProfile(), DefaultSite("load.example"))
	l := netsim.NewListener("load-counts")
	go func() {
		_ = srv.Serve(l)
	}()
	defer srv.Close()

	for _, tc := range []struct {
		path       string
		ok, failed int64
	}{{"/about.html", 50, 0}, {"/no-such-object", 0, 50}} {
		ok, failed, err := runLoad(func() (net.Conn, error) { return l.Dial() },
			loadSpec{conns: 2, streams: 8, requests: 50, authority: "load.example", path: tc.path, timeout: 5 * time.Second})
		if err != nil {
			t.Fatalf("%s: runLoad: %v", tc.path, err)
		}
		if ok != tc.ok || failed != tc.failed {
			t.Errorf("%s: %d ok / %d failed, want %d / %d", tc.path, ok, failed, tc.ok, tc.failed)
		}
	}
}
