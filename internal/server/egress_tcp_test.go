package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/hpack"
	"h2scope/internal/metrics"
)

// On a *net.TCPConn the framer sends DATA payloads of 8 KiB and more by
// reference, one vectored write per egress pass; on every other conn it copies
// them and writes at 16 KiB. This file holds what needs a real socket to
// show: the two paths put the same octets on the wire for every testbed
// profile, a second goroutine may flush references the serve goroutine left
// pending, and what the reference path saves per pass.

// tcpPair returns both ends of one loopback TCP connection.
func tcpPair(tb testing.TB) (client, server net.Conn) {
	tb.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer l.Close()
	client, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	server, err = l.Accept()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
	})
	return client, server
}

// hiddenTCP hides the *net.TCPConn from the framer, the way TLS and tracing
// wrappers do, which selects the copy path on the same socket; it counts the
// writes that path makes.
type hiddenTCP struct {
	net.Conn
	writes atomic.Int64
}

func (c *hiddenTCP) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// egressRig steps a server conn over a real loopback socket from the
// caller's goroutine. One round is one client Write — GETs of a 96 KiB
// object on fresh streams plus the connection-window refill — and one serve
// step per frame in it, so the whole round is answered by a single egress
// pass; a second goroutine drains what the server sends.
type egressRig struct {
	c      *conn
	client net.Conn
	hidden *hiddenTCP // nil when the server holds the bare *net.TCPConn
	batch  []byte
	idAt   []int // offsets of the stream-ID fields in batch
	nextID uint32
}

const rigObject = 96 << 10

func newEgressRig(tb testing.TB, streams int, hide bool) *egressRig {
	tb.Helper()
	srv := New(NghttpdProfile(), DefaultSite("testbed.example"))
	srv.Metrics = NewMetrics(metrics.NewRegistry())
	client, serverNC := tcpPair(tb)
	r := &egressRig{client: client, nextID: 1}
	if hide {
		r.hidden = &hiddenTCP{Conn: serverNC}
		serverNC = r.hidden
	}
	r.c = newConn(srv, serverNC)

	hello := clientFrames(tb, func(fr *frame.Framer) {
		_ = fr.WriteRawBytes([]byte(frame.ClientPreface))
		_ = fr.WriteSettings(frame.Setting{ID: frame.SettingInitialWindowSize, Val: 1 << 30})
		_ = fr.WriteWindowUpdate(0, 1<<30)
	})
	if _, err := client.Write(hello); err != nil {
		tb.Fatal(err)
	}
	if err := r.c.readPreface(); err != nil {
		tb.Fatal(err)
	}
	if err := r.c.fr.WriteSettings(srv.profile.settings()...); err != nil {
		tb.Fatal(err)
	}
	if err := r.c.fr.Flush(); err != nil {
		tb.Fatal(err)
	}
	stepOK(tb, r.c)
	stepOK(tb, r.c)
	go func() {
		buf := make([]byte, 256<<10)
		for {
			if _, err := client.Read(buf); err != nil {
				return
			}
		}
	}()

	enc := hpack.NewEncoder(hpack.PolicyNoDynamicInsert)
	for i := 0; i < streams; i++ {
		r.idAt = append(r.idAt, len(r.batch)+5)
		r.batch = append(r.batch, encodeRequest(tb, enc, 1, "/large/1")...)
	}
	r.batch = append(r.batch, clientFrames(tb, func(fr *frame.Framer) {
		_ = fr.WriteWindowUpdate(0, uint32(streams*rigObject))
	})...)
	return r
}

func (r *egressRig) round(tb testing.TB) {
	for _, at := range r.idAt {
		binary.BigEndian.PutUint32(r.batch[at:], r.nextID)
		r.nextID += 2
	}
	if _, err := r.client.Write(r.batch); err != nil {
		tb.Fatal(err)
	}
	for range len(r.idAt) + 1 {
		stepOK(tb, r.c)
	}
	if len(r.c.streams) != 0 {
		tb.Fatalf("%d streams still open after the round's egress pass", len(r.c.streams))
	}
}

// BenchmarkEgressLoopback is the layer evidence for the reference path: the
// same eight 96 KiB responses per pass over the same loopback socket, once
// written by reference in one writev (tcp) and once copied through the
// framer's buffer at one write per 16 KiB quantum (wrapped).
func BenchmarkEgressLoopback(b *testing.B) {
	const streams = 8
	for _, tc := range []struct {
		name string
		hide bool
	}{{"tcp", false}, {"wrapped", true}} {
		b.Run(tc.name, func(b *testing.B) {
			rig := newEgressRig(b, streams, tc.hide)
			rig.round(b)
			b.SetBytes(streams * rigObject)
			b.ReportAllocs()
			var before int64
			if tc.hide {
				before = rig.hidden.writes.Load()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rig.round(b)
			}
			b.StopTimer()
			if tc.hide {
				b.ReportMetric(float64(rig.hidden.writes.Load()-before)/float64(b.N), "writes/op")
			}
		})
	}
}

// scriptedClient speaks to one server connection in lock step: every step is
// a single Write that ends in a PING, and the next step is not sent before
// that PING's ACK has been read. The server cannot see step N+1 while it
// handles step N, so any two runs of one script give it the same input
// batches — and its output, kept whole in got, may then differ only if the
// write path changes it.
type scriptedClient struct {
	t      *testing.T
	nc     net.Conn
	rd     *frame.Framer
	got    bytes.Buffer
	steps  byte
	bodies map[uint32][]byte
	sizes  map[uint32][]int
	ended  map[uint32]bool
}

func newScriptedClient(t *testing.T, nc net.Conn) *scriptedClient {
	c := &scriptedClient{t: t, nc: nc, bodies: map[uint32][]byte{}, sizes: map[uint32][]int{}, ended: map[uint32]bool{}}
	c.rd = frame.NewFramer(nil, io.TeeReader(nc, &c.got))
	return c
}

// read returns the next frame, having noted what it carries of a response.
func (c *scriptedClient) read() (frame.Frame, error) {
	f, err := c.rd.ReadFrame()
	if err != nil {
		return nil, err
	}
	id := f.Header().StreamID
	switch f := f.(type) {
	case *frame.DataFrame:
		c.bodies[id] = append(c.bodies[id], f.Data...)
		c.sizes[id] = append(c.sizes[id], len(f.Data))
		c.ended[id] = f.StreamEnded()
	case *frame.HeadersFrame:
		c.ended[id] = f.StreamEnded()
	}
	return f, nil
}

func (c *scriptedClient) step(build func(fr *frame.Framer)) {
	c.t.Helper()
	c.steps++
	mark := [8]byte{7: c.steps}
	chunk := clientFrames(c.t, func(fr *frame.Framer) {
		build(fr)
		_ = fr.WritePing(false, mark)
	})
	if _, err := c.nc.Write(chunk); err != nil {
		c.t.Fatalf("step %d: %v", c.steps, err)
	}
	for {
		f, err := c.read()
		if err != nil {
			c.t.Fatalf("step %d: waiting for the PING ACK: %v", c.steps, err)
		}
		if p, ok := f.(*frame.PingFrame); ok && p.IsAck() && p.Data == mark {
			return
		}
	}
}

// finish reads until every stream in ids has ended, says GOAWAY and reads on
// to the server's close.
func (c *scriptedClient) finish(ids ...uint32) {
	c.t.Helper()
	allEnded := func() bool {
		for _, id := range ids {
			if !c.ended[id] {
				return false
			}
		}
		return true
	}
	for !allEnded() {
		if _, err := c.read(); err != nil {
			c.t.Fatalf("waiting for the responses to end: %v", err)
		}
	}
	if _, err := c.nc.Write(clientFrames(c.t, func(fr *frame.Framer) {
		_ = fr.WriteGoAway(0, frame.ErrCodeNo, nil)
	})); err != nil {
		c.t.Fatal(err)
	}
	for {
		if _, err := c.read(); err != nil {
			if err != io.EOF {
				c.t.Fatalf("reading to the server's close: %v", err)
			}
			return
		}
	}
}

// TestVectoredWireIdenticalToCopyPath runs one script against each testbed
// profile twice over loopback TCP — the server handed the *net.TCPConn, then
// the same kind of socket hidden in a struct — and requires the client to
// have read the same octets both times. The script fetches a 96 KiB, a
// 10 KiB, a 3 KiB and an empty object at once and opens their windows to 1,
// then 20,000, then 9,000 more octets, so flow control cuts DATA frames of
// odd sizes on both sides of the framer's 8 KiB reference cutoff, with a
// SETTINGS change and the PINGs landing mid-response.
func TestVectoredWireIdenticalToCopyPath(t *testing.T) {
	site := NewSite("testbed.example").
		AddObject("/o/96k", 96<<10).AddObject("/o/10k", 10<<10).AddObject("/o/3k", 3<<10).AddObject("/o/empty", 0)
	paths := map[uint32]string{1: "/o/96k", 3: "/o/10k", 5: "/o/3k", 7: "/o/empty"}

	run := func(t *testing.T, p Profile, hide bool) *scriptedClient {
		srv := New(p, site)
		clientNC, serverNC := tcpPair(t)
		var hidden *hiddenTCP
		if hide {
			hidden = &hiddenTCP{Conn: serverNC}
			serverNC = hidden
		}
		served := make(chan struct{})
		go func() {
			defer close(served)
			_ = srv.ServeConn(serverNC)
		}()
		_ = clientNC.SetDeadline(time.Now().Add(20 * time.Second))

		c := newScriptedClient(t, clientNC)
		c.step(func(fr *frame.Framer) {
			_ = fr.WriteRawBytes([]byte(frame.ClientPreface))
			_ = fr.WriteSettings(frame.Setting{ID: frame.SettingInitialWindowSize, Val: 1})
			_ = fr.WriteWindowUpdate(0, 1<<30)
		})
		c.step(func(fr *frame.Framer) {
			enc := hpack.NewEncoder(hpack.PolicyNoDynamicInsert)
			for _, id := range []uint32{1, 3, 5, 7} {
				_ = fr.WriteRawBytes(encodeRequest(t, enc, id, paths[id]))
			}
		})
		c.step(func(fr *frame.Framer) {
			_ = fr.WriteSettings(frame.Setting{ID: frame.SettingInitialWindowSize, Val: 20000})
		})
		c.step(func(fr *frame.Framer) { _ = fr.WriteWindowUpdate(1, 20000) })
		c.step(func(fr *frame.Framer) { _ = fr.WriteWindowUpdate(1, 9000) })
		c.step(func(fr *frame.Framer) { _ = fr.WriteWindowUpdate(1, 1<<20) })
		c.finish(1, 3, 5, 7)
		<-served
		if hide {
			t.Logf("copy path: %d octets in %d writes", c.got.Len(), hidden.writes.Load())
		}
		return c
	}

	for _, p := range TestbedProfiles() {
		t.Run(p.Family, func(t *testing.T) {
			tcp, wrapped := run(t, p, false), run(t, p, true)
			if !bytes.Equal(tcp.got.Bytes(), wrapped.got.Bytes()) {
				t.Fatalf("server output differs: %d octets over the bare *net.TCPConn, %d over the wrapped one",
					tcp.got.Len(), wrapped.got.Len())
			}
			for id, path := range paths {
				res, _ := site.Lookup(path)
				if !bytes.Equal(tcp.bodies[id], res.Body) {
					t.Errorf("stream %d: body of %d octets, want the %d of %s", id, len(tcp.bodies[id]), len(res.Body), path)
				}
			}
			// All six testbed servers size DATA exactly to the window.
			want := []int{1, 16384, 3615, 16384, 3616, 9000, 16384, 16384, 16384, 152}
			if !reflect.DeepEqual(tcp.sizes[1], want) {
				t.Errorf("96 KiB response cut into DATA frames of %v, want %v", tcp.sizes[1], want)
			}
		})
	}
}

// TestShutdownWhileReferencesPending: Shutdown writes and flushes its GOAWAY
// from its own goroutine, which on TCP may carry out DATA the serve goroutine
// queued by reference and has not flushed yet. Clients check every payload
// octet, so a reference flushed twice, dropped or torn shows as a wrong body;
// -race covers the framer's reference scratch.
func TestShutdownWhileReferencesPending(t *testing.T) {
	site := DefaultSite("testbed.example")
	body := func() []byte { res, _ := site.Lookup("/large/1"); return res.Body }()
	const streams = 8

	// client fetches /large/1 on eight streams at a time until the server
	// says GOAWAY, then lets the batch in flight finish and hangs up.
	client := func(addr string, fetched *atomic.Int64) error {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		defer nc.Close()
		_ = nc.SetDeadline(time.Now().Add(20 * time.Second))
		if _, err := nc.Write(clientFrames(t, func(fr *frame.Framer) {
			_ = fr.WriteRawBytes([]byte(frame.ClientPreface))
			_ = fr.WriteSettings(frame.Setting{ID: frame.SettingInitialWindowSize, Val: 1 << 30})
			_ = fr.WriteWindowUpdate(0, 1<<30)
		})); err != nil {
			return err
		}
		rd := frame.NewFramer(nil, nc)
		enc := hpack.NewEncoder(hpack.PolicyNoDynamicInsert)
		for first, goAway := uint32(1), false; !goAway; first += 2 * streams {
			batch := clientFrames(t, func(fr *frame.Framer) {
				for i := uint32(0); i < streams; i++ {
					_ = fr.WriteRawBytes(encodeRequest(t, enc, first+2*i, "/large/1"))
				}
				_ = fr.WriteWindowUpdate(0, uint32(streams*len(body)))
			})
			if _, err := nc.Write(batch); err != nil {
				return err
			}
			got := map[uint32]int{}
			for ended := 0; ended < streams; {
				f, err := rd.ReadFrame()
				if err != nil {
					return err
				}
				switch f := f.(type) {
				case *frame.GoAwayFrame:
					if f.Code != frame.ErrCodeNo {
						return errors.New("GOAWAY " + f.Code.String())
					}
					goAway = true
				case *frame.DataFrame:
					id := f.Header().StreamID
					if at := got[id]; at+len(f.Data) > len(body) || !bytes.Equal(f.Data, body[at:at+len(f.Data)]) {
						return errors.New("DATA payload is not the object's next octets")
					}
					got[id] += len(f.Data)
					if f.StreamEnded() {
						if got[id] != len(body) {
							return errors.New("response ended short")
						}
						ended++
						fetched.Add(1)
					}
				}
			}
		}
		return nil
	}

	for round := 0; round < 5; round++ {
		srv := New(NghttpdProfile(), site)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			_ = srv.Serve(l)
		}()
		var fetched atomic.Int64
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		for i := 0; i < cap(errs); i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- client(l.Addr().String(), &fetched)
			}()
		}
		waitFor(t, 10*time.Second, func() bool { return fetched.Load() > 20*streams }, "the load to ramp up")
		const grace = 10 * time.Second
		start := time.Now()
		srv.Shutdown(grace)
		if took := time.Since(start); took >= grace {
			t.Errorf("round %d: Shutdown took the whole %v grace: a client never saw GOAWAY", round, took)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Errorf("round %d: client: %v", round, err)
			}
		}
	}
}
