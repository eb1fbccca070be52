package server

import (
	"bytes"
	"net"
	"testing"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/hpack"
	"h2scope/internal/metrics"
)

// This file is the dynamic half of the server's zero-alloc gate: the static
// half is the hotalloc analyzer over the //h2:hotpath roots (dispatchRequest,
// flushEgress, the route-table lookup). TestServerHotPathAllocs drives a full
// request/response round — HEADERS in, route dispatch, HEADERS+DATA out,
// stream close and recycle — through the real serve-step machinery and pins
// it at 0 allocs/op steady state.

// replayConn is a scripted net.Conn: Read serves the queued chunks one call
// at a time (so the serve loop's buffered reader sees exactly one frame per
// step), Write counts and discards.
type replayConn struct {
	pending      [][]byte
	head         int
	writtenBytes int
	writeCalls   int
}

func (r *replayConn) Read(p []byte) (int, error) {
	if r.head >= len(r.pending) {
		return 0, net.ErrClosed
	}
	chunk := r.pending[r.head]
	n := copy(p, chunk)
	if n == len(chunk) {
		r.head++
		if r.head == len(r.pending) {
			// Reset in place so the backing array (and its capacity) is
			// reused: the steady-state alloc gate must not be tripped by
			// the scripted conn's own queue growing.
			r.pending = r.pending[:0]
			r.head = 0
		}
	} else {
		r.pending[r.head] = chunk[n:]
	}
	return n, nil
}

func (r *replayConn) Write(p []byte) (int, error) {
	r.writtenBytes += len(p)
	r.writeCalls++
	return len(p), nil
}

func (r *replayConn) push(chunks ...[]byte) { r.pending = append(r.pending, chunks...) }

func (r *replayConn) Close() error                       { return nil }
func (r *replayConn) LocalAddr() net.Addr                { return replayAddr{} }
func (r *replayConn) RemoteAddr() net.Addr               { return replayAddr{} }
func (r *replayConn) SetDeadline(t time.Time) error      { return nil }
func (r *replayConn) SetReadDeadline(t time.Time) error  { return nil }
func (r *replayConn) SetWriteDeadline(t time.Time) error { return nil }

type replayAddr struct{}

func (replayAddr) Network() string { return "replay" }
func (replayAddr) String() string  { return "replay" }

// clientFrames builds raw client-side frame bytes with an independent framer.
func clientFrames(t testing.TB, build func(fr *frame.Framer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	fr := frame.NewFramer(&buf, nil)
	build(fr)
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), buf.Bytes()...)
}

// encodeRequest builds one HEADERS frame (END_STREAM|END_HEADERS) for a GET.
// The encoder never touches the dynamic table, so every replayed block is
// decodable independently.
func encodeRequest(t testing.TB, enc *hpack.Encoder, streamID uint32, path string) []byte {
	t.Helper()
	fields := []hpack.HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "testbed.example"},
		{Name: ":path", Value: path},
		{Name: "user-agent", Value: "alloc-gate/1.0"},
	}
	block := enc.AppendBlock(nil, fields)
	return clientFrames(t, func(fr *frame.Framer) {
		if err := fr.WriteHeaders(frame.HeadersParams{
			StreamID:   streamID,
			Fragment:   block,
			EndStream:  true,
			EndHeaders: true,
		}); err != nil {
			t.Fatal(err)
		}
	})
}

// stepOK drives one serve-loop step and fails the test on error or stop.
func stepOK(t testing.TB, c *conn) {
	t.Helper()
	stop, err := c.step()
	if err != nil {
		t.Fatalf("step: %v", err)
	}
	if stop {
		t.Fatal("step: unexpected stop")
	}
}

// TestServerHotPathAllocs pins the full server request path at 0 allocs/op:
// HEADERS dispatch through the compiled route table, response HEADERS+DATA
// egress through the priority scheduler, stream close into the pool, plus
// the WINDOW_UPDATE replenishing the connection window. Instrumented
// (Metrics attached) to prove the gauges and histograms are clean too.
func TestServerHotPathAllocs(t *testing.T) {
	site := DefaultSite("testbed.example")
	srv := New(NghttpdProfile(), site)
	srv.Metrics = NewMetrics(metrics.NewRegistry())

	nc := &replayConn{}
	c := newConn(srv, nc)
	c.fr.SetMetrics(srv.Metrics.framer)
	c.fpInit(nc)
	c.dec.SetMaxHeaderListSize(defaultMaxHeaderListBytes)

	// Handshake: preface + client SETTINGS, server SETTINGS + ack.
	nc.push([]byte(frame.ClientPreface))
	if err := c.readPreface(); err != nil {
		t.Fatal(err)
	}
	if err := c.fr.WriteSettings(srv.profile.settings()...); err != nil {
		t.Fatal(err)
	}
	if err := c.fr.Flush(); err != nil {
		t.Fatal(err)
	}
	nc.push(clientFrames(t, func(fr *frame.Framer) {
		if err := fr.WriteSettings(); err != nil {
			t.Fatal(err)
		}
	}))
	stepOK(t, c)

	const path = "/about.html"
	res, ok := site.Lookup(path)
	if !ok {
		t.Fatalf("missing %s", path)
	}
	bodyLen := uint32(len(res.Body))

	enc := hpack.NewEncoder(hpack.PolicyNoDynamicInsert)
	// Pregenerate all request frames: client-side encoding must not count
	// against the server's alloc budget. AllocsPerRun runs once extra as
	// warm-up; add explicit warm-up rounds for the stream pool, the decode
	// scratch, and the HPACK interning tables on top.
	const warmup, runs = 32, 400
	streamID := uint32(1)
	var requests [][]byte
	var updates [][]byte
	for i := 0; i < warmup+runs+1; i++ {
		requests = append(requests, encodeRequest(t, enc, streamID, path))
		updates = append(updates, clientFrames(t, func(fr *frame.Framer) {
			if err := fr.WriteWindowUpdate(0, bodyLen); err != nil {
				t.Fatal(err)
			}
		}))
		streamID += 2
	}

	i := 0
	round := func() {
		nc.push(requests[i])
		stepOK(t, c)
		nc.push(updates[i])
		stepOK(t, c)
		i++
	}
	for w := 0; w < warmup; w++ {
		round()
	}
	if len(c.streams) != 0 {
		t.Fatalf("streams not drained after warmup: %d open", len(c.streams))
	}
	written := nc.writtenBytes
	if written == 0 {
		t.Fatal("no response bytes written during warmup")
	}

	allocs := testing.AllocsPerRun(runs, round)
	if allocs != 0 {
		t.Fatalf("request/response round allocates %.2f times per op, want 0", allocs)
	}
	if nc.writtenBytes <= written {
		t.Fatal("no response bytes written during measured runs")
	}

	// The same gate on the framer's reference path, which only a real
	// *net.TCPConn selects: one 96 KiB GET in, HEADERS + six 16 KiB DATA
	// frames out in one vectored write.
	t.Run("tcp", func(t *testing.T) {
		rig := newEgressRig(t, 1, false)
		for w := 0; w < warmup; w++ {
			rig.round(t)
		}
		if allocs := testing.AllocsPerRun(runs, func() { rig.round(t) }); allocs != 0 {
			t.Fatalf("request/response round over loopback TCP allocates %.2f times per op, want 0", allocs)
		}
	})
}

// TestServeStepCoalescesBatchedInput checks the flush-deferral read path: a
// burst of pipelined requests arriving in one read is answered with one
// egress pass and one wire write, not one write per request.
func TestServeStepCoalescesBatchedInput(t *testing.T) {
	site := DefaultSite("testbed.example")
	srv := New(NghttpdProfile(), site)

	nc := &replayConn{}
	c := newConn(srv, nc)
	c.fpInit(nc)

	nc.push([]byte(frame.ClientPreface))
	if err := c.readPreface(); err != nil {
		t.Fatal(err)
	}
	if err := c.fr.WriteSettings(srv.profile.settings()...); err != nil {
		t.Fatal(err)
	}
	if err := c.fr.Flush(); err != nil {
		t.Fatal(err)
	}
	nc.push(clientFrames(t, func(fr *frame.Framer) {
		if err := fr.WriteSettings(); err != nil {
			t.Fatal(err)
		}
	}))
	stepOK(t, c)

	// Three pipelined GETs delivered as ONE chunk: the buffered reader sees
	// them together, so steps 1 and 2 must defer egress and the final step
	// flushes everything in a single write.
	enc := hpack.NewEncoder(hpack.PolicyNoDynamicInsert)
	var burst []byte
	for _, id := range []uint32{1, 3, 5} {
		burst = append(burst, encodeRequest(t, enc, id, "/about.html")...)
	}
	nc.push(burst)

	before := nc.writeCalls
	stepOK(t, c)
	stepOK(t, c)
	if nc.writeCalls != before {
		t.Fatalf("egress flushed while input frames were still buffered (%d writes)", nc.writeCalls-before)
	}
	stepOK(t, c)
	if got := nc.writeCalls - before; got != 1 {
		t.Fatalf("batched requests produced %d wire writes, want 1", got)
	}
	if len(c.streams) != 0 {
		t.Fatalf("streams not drained: %d open", len(c.streams))
	}
}
