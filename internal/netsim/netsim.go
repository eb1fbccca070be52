// Package netsim provides in-process network plumbing for the reproduction:
// buffered full-duplex pipes (unlike net.Pipe, writes do not rendezvous with
// reads, so protocol endpoints cannot deadlock on simultaneous writes),
// optional one-way-delay shaping for latency experiments, and an in-memory
// listener for serving many virtual sites without OS sockets.
//
// The paper measures real Internet paths; we substitute seeded, shaped
// paths so the RTT experiment (Fig. 6) runs the same estimator code over a
// known ground-truth delay.
package netsim

import (
	"errors"
	"io"
	"math/bits"
	"net"
	"sync"
	"time"
)

// chunk is one write's worth of bytes with its earliest delivery time.
type chunk struct {
	data []byte
	// buf is the pooled array data lies in, nil when the write was too
	// large (or empty) to pool; it goes back once the reader drains data.
	buf     *[]byte
	readyAt time.Time
}

// Chunk arrays are pooled in power-of-two size classes from 512 B to
// 64 KiB; a larger write gets an array of its own.
const (
	minPooledShift = 9 // 512 B
	maxPooledShift = 16
	maxPooledChunk = 1 << maxPooledShift
)

var chunkPools [maxPooledShift - minPooledShift + 1]sync.Pool

// chunkClass returns the pool index of the smallest class holding n > 0
// bytes, n <= maxPooledChunk.
func chunkClass(n int) int {
	return max(bits.Len(uint(n-1))-minPooledShift, 0)
}

// newChunk copies p into a pooled array when one fits.
func newChunk(p []byte, readyAt time.Time) chunk {
	if len(p) == 0 || len(p) > maxPooledChunk {
		return chunk{data: append([]byte(nil), p...), readyAt: readyAt}
	}
	c := chunkClass(len(p))
	buf, _ := chunkPools[c].Get().(*[]byte)
	if buf == nil {
		b := make([]byte, 1<<(c+minPooledShift))
		buf = &b
	}
	return chunk{data: (*buf)[:copy(*buf, p)], buf: buf, readyAt: readyAt}
}

// release hands a drained chunk's array back to its pool.
func (c *chunk) release() {
	if c.buf != nil {
		chunkPools[chunkClass(len(*c.buf))].Put(c.buf)
	}
	*c = chunk{}
}

// dirBuf is one direction of a pipe: an unbounded FIFO of chunks.
type dirBuf struct {
	mu     sync.Mutex
	cond   *sync.Cond
	chunks []chunk
	// delay is added to every chunk's delivery time.
	delay time.Duration
	// closed means no further writes will arrive.
	closed bool
	// rdClosed means the reader abandoned the buffer.
	rdClosed bool
}

func newDirBuf(delay time.Duration) *dirBuf {
	b := &dirBuf{delay: delay}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *dirBuf) write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || b.rdClosed {
		return 0, io.ErrClosedPipe
	}
	b.chunks = append(b.chunks, newChunk(p, time.Now().Add(b.delay)))
	b.cond.Broadcast()
	return len(p), nil
}

func (b *dirBuf) read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if len(b.chunks) > 0 {
			head := &b.chunks[0]
			if wait := time.Until(head.readyAt); wait > 0 {
				// Latency shaping: release the lock while the chunk is in
				// flight, then re-check (new chunks never jump the queue).
				b.mu.Unlock()
				time.Sleep(wait)
				b.mu.Lock()
				continue
			}
			n := copy(p, head.data)
			head.data = head.data[n:]
			if len(head.data) == 0 {
				head.release()
				if len(b.chunks) == 1 {
					// Keep the FIFO's array: the queue is usually one deep.
					b.chunks = b.chunks[:0]
				} else {
					b.chunks = b.chunks[1:]
				}
			}
			return n, nil
		}
		if b.closed {
			return 0, io.EOF
		}
		if b.rdClosed {
			return 0, io.ErrClosedPipe
		}
		b.cond.Wait()
	}
}

func (b *dirBuf) closeWrite() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.cond.Broadcast()
}

func (b *dirBuf) closeRead() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rdClosed = true
	b.cond.Broadcast()
}

// addr is a trivial net.Addr.
type addr string

func (a addr) Network() string { return "netsim" }
func (a addr) String() string  { return string(a) }

// Conn is one end of an in-process buffered pipe.
type Conn struct {
	rd, wr     *dirBuf
	local      addr
	remote     addr
	closeOnce  sync.Once
	closeExtra func()
}

var _ net.Conn = (*Conn)(nil)

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) { return c.rd.read(p) }

// Write implements net.Conn.
func (c *Conn) Write(p []byte) (int, error) { return c.wr.write(p) }

// Close implements net.Conn; it terminates both directions.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.wr.closeWrite()
		c.rd.closeRead()
		if c.closeExtra != nil {
			c.closeExtra()
		}
	})
	return nil
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn as a no-op (the reproduction bounds waits
// at the protocol layer instead).
func (c *Conn) SetDeadline(time.Time) error { return nil }

// SetReadDeadline implements net.Conn as a no-op.
func (c *Conn) SetReadDeadline(time.Time) error { return nil }

// SetWriteDeadline implements net.Conn as a no-op.
func (c *Conn) SetWriteDeadline(time.Time) error { return nil }

// Pipe returns a connected pair of buffered in-process connections with no
// added latency.
func Pipe() (client, server *Conn) {
	return LatencyPipe(0, 0)
}

// LatencyPipe returns a connected pair whose directions add the given
// one-way delays (client→server and server→client respectively).
func LatencyPipe(owdClientToServer, owdServerToClient time.Duration) (client, server *Conn) {
	c2s := newDirBuf(owdClientToServer)
	s2c := newDirBuf(owdServerToClient)
	client = &Conn{rd: s2c, wr: c2s, local: "client", remote: "server"}
	server = &Conn{rd: c2s, wr: s2c, local: "server", remote: "client"}
	return client, server
}

// Listener is an in-memory net.Listener whose Dial hands the peer half of a
// fresh pipe to Accept.
type Listener struct {
	name addr
	ch   chan net.Conn

	mu     sync.Mutex
	closed bool
	done   chan struct{}
}

var _ net.Listener = (*Listener)(nil)

// NewListener returns a listener identified by name.
func NewListener(name string) *Listener {
	return &Listener{
		name: addr(name),
		ch:   make(chan net.Conn),
		done: make(chan struct{}),
	}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close implements net.Listener.
func (l *Listener) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		close(l.done)
	}
	return nil
}

// Addr implements net.Listener.
func (l *Listener) Addr() net.Addr { return l.name }

// Dial connects to the listener with no added latency.
func (l *Listener) Dial() (net.Conn, error) {
	return l.DialLatency(0, 0)
}

// DialLatency connects with the given one-way delays.
func (l *Listener) DialLatency(owdUp, owdDown time.Duration) (net.Conn, error) {
	client, server := LatencyPipe(owdUp, owdDown)
	select {
	case l.ch <- server:
		return client, nil
	case <-l.done:
		_ = client.Close()
		_ = server.Close()
		return nil, net.ErrClosed
	case <-time.After(5 * time.Second):
		_ = client.Close()
		_ = server.Close()
		return nil, errors.New("netsim: dial timeout: listener not accepting")
	}
}
