package main

import (
	"net"
	"sync"
	"time"
)

// captureLimit is how much of each direction of a connection the traced
// pass keeps for replay.
const captureLimit = 4 << 20

// ioEvent is one Read or Write return on the server side of a captured
// connection, in the order they happened: the chunk sizes the transport
// floor replays and the burst boundaries the in-memory server replay feeds.
type ioEvent struct {
	write bool
	n     int
}

// capture is the first captureLimit bytes each way of one server-side
// connection, with the chunking they crossed the socket in and the requests
// the driver made on it, so every layer can be replayed in isolation.
type capture struct {
	ingress []byte
	egress  []byte
	events  []ioEvent
	// reqs are the object indices the driver requested on this conn, in
	// order (attached by the driver when the conn ends).
	reqs []int32
}

// ioStamp is one Read or Write return with its wall-clock time, kept in a
// small ring so a sampled op can find the server-busy intervals inside its
// own lifetime.
type ioStamp struct {
	write bool
	start time.Time
	end   time.Time
}

// tracedConn wraps a server-side net.Conn and accounts for every Read and
// Write from outside the server: counts, bytes, time blocked, accept-to-
// first-write latency, and (for the first few conns) a byte capture.
type tracedConn struct {
	net.Conn
	hub        *traceHub
	acceptedAt time.Time

	mu         sync.Mutex
	reads      int64
	writes     int64
	bytesIn    int64
	bytesOut   int64
	readNS     int64
	writeNS    int64
	firstWrite time.Time
	cap        *capture
	capOpen    bool
	ring       []ioStamp
	ringN      int
	closed     bool
}

func (c *tracedConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(p)
	end := time.Now()
	c.mu.Lock()
	c.reads++
	c.bytesIn += int64(n)
	c.readNS += int64(end.Sub(start))
	if n > 0 {
		c.stamp(false, start, end)
		if c.capOpen {
			c.cap.ingress = append(c.cap.ingress, p[:n]...)
			c.cap.events = append(c.cap.events, ioEvent{false, n})
			c.capOpen = len(c.cap.ingress) < captureLimit
		}
	}
	c.mu.Unlock()
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	end := time.Now()
	c.mu.Lock()
	c.writes++
	c.bytesOut += int64(n)
	c.writeNS += int64(end.Sub(start))
	if c.firstWrite.IsZero() {
		c.firstWrite = end
	}
	if n > 0 {
		c.stamp(true, start, end)
		if c.capOpen {
			c.cap.egress = append(c.cap.egress, p[:n]...)
			c.cap.events = append(c.cap.events, ioEvent{true, n})
			c.capOpen = len(c.cap.egress) < captureLimit
		}
	}
	c.mu.Unlock()
	return n, err
}

// stamp appends to the ring, which grows to ringSize before it wraps: a
// conn_churn connection makes a dozen I/O calls and should not pay for a
// long-lived connection's ring. The caller holds c.mu.
func (c *tracedConn) stamp(write bool, start, end time.Time) {
	s := ioStamp{write, start, end}
	if len(c.ring) < c.hub.ringSize {
		c.ring = append(c.ring, s)
	} else {
		c.ring[c.ringN%len(c.ring)] = s
	}
	c.ringN++
}

// Close folds the connection's counters into the hub, once.
func (c *tracedConn) Close() error {
	err := c.Conn.Close()
	now := time.Now()
	c.mu.Lock()
	already := c.closed
	c.closed = true
	c.capOpen = false
	c.mu.Unlock()
	if !already {
		c.hub.fold(c, now)
	}
	return err
}

// busyIntervals returns the server's Read-return → Write-return intervals
// that fall inside [from, to]: the time the connection goroutine spent
// computing between receiving input and handing output to the kernel.
func (c *tracedConn) busyIntervals(from, to time.Time) [][2]time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.ring)
	var out [][2]time.Time
	var readEnd time.Time
	for i := c.ringN - n; i < c.ringN; i++ {
		s := c.ring[i%len(c.ring)]
		if s.end.Before(from) || s.start.After(to) {
			continue
		}
		if !s.write {
			readEnd = s.end
			continue
		}
		if !readEnd.IsZero() {
			out = append(out, [2]time.Time{readEnd, s.end})
			// Later writes of the same burst extend from the previous
			// write's return.
			readEnd = s.end
		}
	}
	return out
}

// traceHub is the traced pass's server-side collector: it wraps accepted
// connections, lets the driver find the server half of its own connection
// by TCP port, and keeps the totals of closed connections.
type traceHub struct {
	ringSize    int
	maxCaptures int

	mu       sync.Mutex
	byPort   map[int]*tracedConn
	active   int
	captures []*tracedConn
	tot      hubTotals
}

// hubTotals are sums over closed connections.
type hubTotals struct {
	conns      int64
	reads      int64
	writes     int64
	bytesIn    int64
	bytesOut   int64
	readNS     int64
	writeNS    int64
	lifeNS     int64
	setupNS    int64
	setupConns int64
	// dialAcceptNS sums client dial start → server accept return, reported
	// by the driver, which is the only party that knows when it dialed.
	dialAcceptNS    int64
	dialAcceptConns int64
}

func newTraceHub(ringSize, maxCaptures int) *traceHub {
	return &traceHub{ringSize: ringSize, maxCaptures: maxCaptures, byPort: make(map[int]*tracedConn)}
}

func (h *traceHub) wrap(nc net.Conn, acceptedAt time.Time) *tracedConn {
	tc := &tracedConn{Conn: nc, hub: h, acceptedAt: acceptedAt}
	h.mu.Lock()
	if len(h.captures) < h.maxCaptures {
		tc.cap = &capture{}
		tc.capOpen = true
		h.captures = append(h.captures, tc)
	}
	if a, ok := nc.RemoteAddr().(*net.TCPAddr); ok {
		h.byPort[a.Port] = tc
	}
	h.active++
	h.mu.Unlock()
	return tc
}

// lookup returns the server half of the connection whose client side is
// bound to port, or nil if it has not been accepted yet.
func (h *traceHub) lookup(port int) *tracedConn {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.byPort[port]
}

func (h *traceHub) fold(c *tracedConn, closedAt time.Time) {
	// Never hold both locks: captured() takes them in the other order.
	c.mu.Lock()
	reads, writes := c.reads, c.writes
	bytesIn, bytesOut := c.bytesIn, c.bytesOut
	readNS, writeNS := c.readNS, c.writeNS
	firstWrite := c.firstWrite
	c.mu.Unlock()

	h.mu.Lock()
	defer h.mu.Unlock()
	h.tot.conns++
	h.tot.reads += reads
	h.tot.writes += writes
	h.tot.bytesIn += bytesIn
	h.tot.bytesOut += bytesOut
	h.tot.readNS += readNS
	h.tot.writeNS += writeNS
	h.tot.lifeNS += int64(closedAt.Sub(c.acceptedAt))
	if !firstWrite.IsZero() {
		h.tot.setupNS += int64(firstWrite.Sub(c.acceptedAt))
		h.tot.setupConns++
	}
	if a, ok := c.Conn.RemoteAddr().(*net.TCPAddr); ok && h.byPort[a.Port] == c {
		delete(h.byPort, a.Port)
	}
	h.active--
}

func (h *traceHub) noteDialAccept(d time.Duration) {
	h.mu.Lock()
	h.tot.dialAcceptNS += int64(d)
	h.tot.dialAcceptConns++
	h.mu.Unlock()
}

// quiesce waits until every accepted connection has been closed by the
// server, so the totals are complete; it reports whether that happened
// within the timeout.
func (h *traceHub) quiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		h.mu.Lock()
		n := h.active
		h.mu.Unlock()
		if n == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

func (h *traceHub) totals() hubTotals {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.tot
}

// captured returns the non-empty captures. Call it after quiesce: a capture
// is only stable once its connection has closed.
func (h *traceHub) captured() []*capture {
	h.mu.Lock()
	conns := append([]*tracedConn(nil), h.captures...)
	h.mu.Unlock()
	out := make([]*capture, 0, len(conns))
	for _, tc := range conns {
		tc.mu.Lock()
		if len(tc.cap.ingress) > 0 {
			out = append(out, tc.cap)
		}
		tc.mu.Unlock()
	}
	return out
}

// tracedListener hands every accepted connection to the hub before the
// server sees it.
type tracedListener struct {
	net.Listener
	hub *traceHub
}

func (l *tracedListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.hub.wrap(nc, time.Now()), nil
}
