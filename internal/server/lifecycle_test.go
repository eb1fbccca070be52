package server

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/metrics"
	"h2scope/internal/netsim"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// snapshotValue reads one instrument from the registry (0 if absent).
func snapshotValue(r *metrics.Registry, name string) int64 {
	for _, m := range r.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// tableSize is the number of connections in the server's table.
func tableSize(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// rawClient is a client that has sent its preface and SETTINGS and then
// does only what a test tells it to.
type rawClient struct {
	nc net.Conn
	fr *frame.Framer
}

func openRaw(t *testing.T, nc net.Conn) *rawClient {
	t.Helper()
	fr := frame.NewFramer(nc, nc)
	if err := fr.WriteRawBytes([]byte(frame.ClientPreface)); err != nil {
		t.Fatal(err)
	}
	if err := fr.WriteSettings(); err != nil {
		t.Fatal(err)
	}
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	return &rawClient{nc: nc, fr: fr}
}

// serveConnClient hands the server one end of an in-memory pipe through
// ServeConn and returns the client end; served is closed when ServeConn
// returns.
func serveConnClient(t *testing.T, srv *Server) (cl *rawClient, served <-chan struct{}) {
	t.Helper()
	clientNC, serverNC := netsim.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.ServeConn(serverNC)
	}()
	return openRaw(t, clientNC), done
}

// awaitGoAway reads cl until GOAWAY and reports its code.
func awaitGoAway(cl *rawClient) (frame.ErrCode, error) {
	for {
		f, err := cl.fr.ReadFrame()
		if err != nil {
			return 0, err
		}
		if ga, ok := f.(*frame.GoAwayFrame); ok {
			return ga.Code, nil
		}
	}
}

// TestConnTracking holds TCP-accepted and ServeConn-served connections open
// side by side and checks the one table and the gauges it feeds account for
// every one of them, follow them down as they close, and settle to zero.
func TestConnTracking(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := New(NghttpdProfile(), DefaultSite("track.example"))
	srv.Metrics = NewMetrics(reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_ = srv.Serve(l)
	}()
	defer srv.Close()

	const accepted, handed = 5, 3
	var clients []*rawClient
	for i := 0; i < accepted; i++ {
		nc, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, openRaw(t, nc))
	}
	for i := 0; i < handed; i++ {
		cl, _ := serveConnClient(t, srv)
		clients = append(clients, cl)
	}
	live := func(want int) func() bool {
		return func() bool {
			return snapshotValue(reg, "h2_server_active_conns") == int64(want) && tableSize(srv) == want
		}
	}
	waitFor(t, 5*time.Second, live(accepted+handed), "gauge and table to count all connections")

	// Close one of each kind first, then the rest.
	for _, cl := range []*rawClient{clients[0], clients[accepted]} {
		_ = cl.nc.Close()
	}
	waitFor(t, 5*time.Second, live(accepted+handed-2), "gauge and table to follow two closes")
	for _, cl := range clients {
		_ = cl.nc.Close()
	}
	waitFor(t, 5*time.Second, live(0), "gauge and table to settle to zero")
	if got := snapshotValue(reg, "h2_server_conns_accepted_total"); got != accepted+handed {
		t.Errorf("conns accepted = %d, want %d", got, accepted+handed)
	}
	for _, m := range reg.Snapshot() {
		if strings.Contains(m.Name, "shard") {
			t.Errorf("registry still exports %s", m.Name)
		}
	}
}

// TestServeRaceHammer saturates the server from 8 accepted connections on 4
// driver threads while two more goroutines churn short ServeConn-served
// connections, then calls Shutdown with the churn still running. Under
// -race this exercises the table, the waitgroup, the egress gauges and the
// framer metrics concurrently; in any mode it proves the accept path serves
// a full quota without errors, that Shutdown turns the churn away, and that
// every gauge settles.
func TestServeRaceHammer(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := New(NghttpdProfile(), DefaultSite("race.example"))
	srv.Metrics = NewMetrics(reg)
	l := netsim.NewListener("hammer")
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- srv.Serve(l)
	}()

	var churned atomic.Int64
	var churn sync.WaitGroup
	for i := 0; i < 2; i++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for {
				clientNC, serverNC := netsim.Pipe()
				served := make(chan error, 1)
				go func() { served <- srv.ServeConn(serverNC) }()
				fr := frame.NewFramer(clientNC, clientNC)
				_ = fr.WriteRawBytes([]byte(frame.ClientPreface))
				_ = fr.WriteSettings()
				_ = fr.Flush()
				_, _ = fr.ReadFrame()
				_ = clientNC.Close()
				if err := <-served; errors.Is(err, errClosed) {
					return
				}
				churned.Add(1)
			}
		}()
	}

	// The churn is under way before the load starts: 400 requests take a few
	// milliseconds, less than a goroutine may need to be scheduled at all.
	waitFor(t, 5*time.Second, func() bool { return churned.Load() > 0 }, "a first churned connection")
	ok, failed, err := runLoad(func() (net.Conn, error) { return l.Dial() }, loadSpec{
		conns:     8,
		streams:   4,
		requests:  400,
		authority: "race.example",
		path:      "/about.html",
		timeout:   10 * time.Second,
	})
	if err != nil {
		t.Fatalf("runLoad: %v", err)
	}
	if ok != 400 || failed != 0 {
		t.Fatalf("requests=%d errors=%d, want 400/0", ok, failed)
	}

	srv.Shutdown(2 * time.Second)
	if err := <-serveDone; err != nil {
		t.Errorf("Serve = %v after Shutdown, want nil", err)
	}
	churn.Wait()
	if n := tableSize(srv); n != 0 {
		t.Errorf("connection table holds %d entries after Shutdown, want 0", n)
	}
	for _, name := range []string{"h2_server_active_conns", "h2_server_active_streams", "h2_egress_queue_depth"} {
		if got := snapshotValue(reg, name); got != 0 {
			t.Errorf("%s = %d after Shutdown, want 0", name, got)
		}
	}
	if got, want := snapshotValue(reg, "h2_server_conns_accepted_total"), 8+churned.Load(); got != want {
		t.Errorf("conns accepted = %d, want %d (8 accepted + %d churned)", got, want, churned.Load())
	}
}

// TestShutdownDrainsActiveConns opens 16 connections, accepted and
// ServeConn-served, then checks Shutdown announces GOAWAY(NO_ERROR) to each
// of them, keeps waiting while they stay open, and returns once the clients
// hang up — the graceful-drain contract.
func TestShutdownDrainsActiveConns(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := New(NghttpdProfile(), DefaultSite("drain.example"))
	srv.Metrics = NewMetrics(reg)
	l := netsim.NewListener("drain")
	go func() {
		_ = srv.Serve(l)
	}()

	const conns = 16
	clients := make([]*rawClient, 0, conns)
	for i := 0; i < conns; i++ {
		if i%4 == 3 {
			cl, _ := serveConnClient(t, srv)
			clients = append(clients, cl)
			continue
		}
		nc, err := l.Dial()
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, openRaw(t, nc))
	}
	waitFor(t, 5*time.Second, func() bool {
		return snapshotValue(reg, "h2_server_active_conns") == conns
	}, "server to track all connections")

	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		srv.Shutdown(10 * time.Second)
	}()

	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *rawClient) {
			defer wg.Done()
			code, err := awaitGoAway(cl)
			if err != nil {
				t.Errorf("connection closed before GOAWAY: %v", err)
			} else if code != frame.ErrCodeNo {
				t.Errorf("GOAWAY code = %v, want NO_ERROR", code)
			}
		}(cl)
	}
	wg.Wait()

	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned with every connection still open and the grace not over")
	case <-time.After(50 * time.Millisecond):
	}
	for _, cl := range clients {
		_ = cl.nc.Close()
	}
	select {
	case <-shutdownDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after clients hung up")
	}
	if got := snapshotValue(reg, "h2_server_active_conns"); got != 0 {
		t.Errorf("active conns = %d after Shutdown, want 0", got)
	}
}

// TestShutdownForcesServeConnConnection pins the fix for connections handed
// to ServeConn (the h2c upgrade and internal/rtt path): they hold a
// waitgroup slot like accepted ones, so a peer that ignores GOAWAY is
// waited for through the whole grace and then closed, and the connection is
// out of the table by the time Shutdown returns. Before, Shutdown returned at
// once and the connection was served on. ServeConn itself returns just after
// the table slot is released, so the test waits for it with a bound.
func TestShutdownForcesServeConnConnection(t *testing.T) {
	srv := New(NghttpdProfile(), DefaultSite("handed.example"))
	cl, served := serveConnClient(t, srv)
	defer func() { _ = cl.nc.Close() }()
	waitFor(t, 5*time.Second, func() bool { return tableSize(srv) == 1 }, "the connection to be tracked")

	gotGoAway := make(chan error, 1)
	closedAfter := make(chan error, 1)
	go func() {
		code, err := awaitGoAway(cl)
		if err == nil && code != frame.ErrCodeNo {
			err = errors.New("GOAWAY code " + code.String())
		}
		gotGoAway <- err
		// Ignore the GOAWAY: keep the connection and keep reading.
		for err == nil {
			_, err = cl.fr.ReadFrame()
		}
		closedAfter <- err
	}()

	const grace = 300 * time.Millisecond
	start := time.Now()
	srv.Shutdown(grace)
	if took := time.Since(start); took < grace {
		t.Errorf("Shutdown returned after %v with the connection still open, want the full %v grace", took, grace)
	}
	if n := tableSize(srv); n != 0 {
		t.Errorf("%d connection(s) still tracked after Shutdown returned", n)
	}
	select {
	case <-served:
	case <-time.After(time.Second):
		t.Error("ServeConn still running 1s after Shutdown returned")
	}
	if err := <-gotGoAway; err != nil {
		t.Errorf("no GOAWAY(NO_ERROR) before the close: %v", err)
	}
	select {
	case <-closedAfter:
	case <-time.After(5 * time.Second):
		t.Error("connection still open to the client after the grace")
	}
}

// TestCloseStopsEveryListener serves two listeners from one server (the
// h2conform plain+TLS shape); one Close ends both accept loops.
func TestCloseStopsEveryListener(t *testing.T) {
	srv := New(NghttpdProfile(), DefaultSite("two.example"))
	ls := []*netsim.Listener{netsim.NewListener("plain"), netsim.NewListener("tls")}
	served := make(chan error, len(ls))
	for _, l := range ls {
		go func(l *netsim.Listener) { served <- srv.Serve(l) }(l)
	}
	for _, l := range ls {
		nc, err := l.Dial()
		if err != nil {
			t.Fatalf("dial %v: %v", l.Addr(), err)
		}
		cl := openRaw(t, nc)
		if _, err := cl.fr.ReadFrame(); err != nil {
			t.Fatalf("%v not served: %v", l.Addr(), err)
		}
		_ = nc.Close()
	}
	srv.Close()
	for range ls {
		select {
		case err := <-served:
			if err != nil {
				t.Errorf("Serve = %v after Close, want nil", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a Serve loop outlived Close")
		}
	}
	for _, l := range ls {
		if _, err := l.Dial(); err == nil {
			t.Errorf("listener %v still open after Close", l.Addr())
		}
	}
}

// TestServeAfterClose: a closed server takes no new work on either entry.
func TestServeAfterClose(t *testing.T) {
	srv := New(NghttpdProfile(), DefaultSite("closed.example"))
	srv.Close()
	if err := srv.Serve(netsim.NewListener("late")); !errors.Is(err, errClosed) {
		t.Errorf("Serve after Close = %v, want %v", err, errClosed)
	}
	clientNC, serverNC := netsim.Pipe()
	if err := srv.ServeConn(serverNC); !errors.Is(err, errClosed) {
		t.Errorf("ServeConn after Close = %v, want %v", err, errClosed)
	}
	if _, err := clientNC.Read(make([]byte, 1)); err == nil {
		t.Error("ServeConn after Close left the connection open")
	}
}

// acceptCounter counts the goroutines blocked in Accept.
type acceptCounter struct {
	net.Listener
	blocked atomic.Int32
	most    atomic.Int32
}

func (l *acceptCounter) Accept() (net.Conn, error) {
	n := l.blocked.Add(1)
	for {
		most := l.most.Load()
		if n <= most || l.most.CompareAndSwap(most, n) {
			break
		}
	}
	defer l.blocked.Add(-1)
	return l.Listener.Accept()
}

// TestOneAcceptGoroutinePerListener: however many cores there are, exactly
// one goroutine per listener blocks in Accept.
func TestOneAcceptGoroutinePerListener(t *testing.T) {
	srv := New(NghttpdProfile(), DefaultSite("accept.example"))
	inner := netsim.NewListener("accept")
	l := &acceptCounter{Listener: inner}
	go func() {
		_ = srv.Serve(l)
	}()
	for i := 0; i < 4; i++ {
		nc, err := inner.Dial()
		if err != nil {
			t.Fatal(err)
		}
		cl := openRaw(t, nc)
		if _, err := cl.fr.ReadFrame(); err != nil {
			t.Fatal(err)
		}
		_ = nc.Close()
	}
	waitFor(t, 5*time.Second, func() bool { return l.blocked.Load() == 1 }, "the accept loop to block again")
	srv.Close()
	if most := l.most.Load(); most != 1 {
		t.Errorf("%d goroutines were in Accept at once, want 1", most)
	}
}

// writeSignal reports the first Write on a server-side conn.
type writeSignal struct {
	net.Conn
	once    sync.Once
	writing chan struct{}
}

func (c *writeSignal) Write(p []byte) (int, error) {
	c.once.Do(func() { close(c.writing) })
	return c.Conn.Write(p)
}

// stalledWriter serves one connection whose peer sends the preface and then
// never reads: over the synchronous net.Pipe the serve goroutine parks in
// the Write of its SETTINGS, holding the framer's write lock. It returns once
// that Write has begun.
func stalledWriter(t *testing.T, srv *Server) (served <-chan struct{}) {
	t.Helper()
	clientNC, serverNC := net.Pipe()
	t.Cleanup(func() { _ = clientNC.Close() })
	sig := &writeSignal{Conn: serverNC, writing: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.ServeConn(sig)
	}()
	if _, err := clientNC.Write([]byte(frame.ClientPreface)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sig.writing:
	case <-time.After(5 * time.Second):
		t.Fatal("the server never wrote its SETTINGS")
	}
	return done
}

// TestShutdownBoundedWithStalledWriter: a peer that stopped reading costs
// Shutdown its grace and no more, and does not keep a healthy neighbour from
// its GOAWAY(NO_ERROR). Before, Shutdown took the stalled connection's write
// lock ahead of arming the grace timer and never returned.
func TestShutdownBoundedWithStalledWriter(t *testing.T) {
	srv := New(NghttpdProfile(), DefaultSite("stall.example"))
	stalledServed := stalledWriter(t, srv)
	healthy, healthyServed := serveConnClient(t, srv)
	defer func() { _ = healthy.nc.Close() }()
	waitFor(t, 5*time.Second, func() bool { return tableSize(srv) == 2 }, "both connections to be tracked")

	const grace = 300 * time.Millisecond
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		srv.Shutdown(grace)
	}()
	gotGoAway := make(chan error, 1)
	go func() {
		code, err := awaitGoAway(healthy)
		if err == nil && code != frame.ErrCodeNo {
			err = errors.New("GOAWAY code " + code.String())
		}
		gotGoAway <- err
	}()
	select {
	case <-shutdownDone:
	case <-time.After(grace + time.Second):
		t.Fatalf("Shutdown(%v) still blocked %v later behind the stalled writer", grace, grace+time.Second)
	}
	if err := <-gotGoAway; err != nil {
		t.Errorf("healthy connection got no GOAWAY(NO_ERROR): %v", err)
	}
	for name, served := range map[string]<-chan struct{}{"stalled": stalledServed, "healthy": healthyServed} {
		select {
		case <-served:
		default:
			t.Errorf("ServeConn of the %s connection still running after Shutdown returned", name)
		}
	}
}
