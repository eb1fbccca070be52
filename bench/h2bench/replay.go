package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"

	"h2scope/internal/flowcontrol"
	"h2scope/internal/frame"
	"h2scope/internal/hpack"
	"h2scope/internal/priority"
	"h2scope/internal/server"
)

// This file is method (b) of the per-layer budget: the bytes a traced
// connection actually carried are replayed through each layer's public
// functions on their own, so a layer's cost is measured on the workload's
// real frames and header blocks, not on a synthetic microbenchmark input.

// rawFrame is one frame of a captured byte stream; payload aliases the
// capture.
type rawFrame struct {
	hdr     frame.Header
	payload []byte
	// end is the offset just past the frame in the stream it came from.
	end int
}

// splitFrames cuts b into frames and stops at the first incomplete one.
func splitFrames(b []byte) []rawFrame {
	var out []rawFrame
	off := 0
	for len(b)-off >= frame.HeaderLen {
		h := b[off : off+frame.HeaderLen]
		length := int(h[0])<<16 | int(h[1])<<8 | int(h[2])
		if len(b)-off-frame.HeaderLen < length {
			break
		}
		hdr := frame.Header{
			Length:   uint32(length),
			Type:     frame.Type(h[3]),
			Flags:    frame.Flags(h[4]),
			StreamID: (uint32(h[5])<<24 | uint32(h[6])<<16 | uint32(h[7])<<8 | uint32(h[8])) & (1<<31 - 1),
		}
		off += frame.HeaderLen
		out = append(out, rawFrame{hdr: hdr, payload: b[off : off+length], end: off + length})
		off += length
	}
	return out
}

// headerFragment strips the optional padding and priority fields of a
// HEADERS payload, leaving the header block fragment.
func headerFragment(f rawFrame) []byte {
	p := f.payload
	pad := 0
	if f.hdr.Flags.Has(frame.FlagPadded) && len(p) > 0 {
		pad = int(p[0])
		p = p[1:]
	}
	if f.hdr.Flags.Has(frame.FlagPriority) && len(p) >= 5 {
		p = p[5:]
	}
	if pad <= len(p) {
		p = p[:len(p)-pad]
	}
	return p
}

// connReplay is one captured connection prepared for replay.
type connReplay struct {
	cap      *capture
	ingress  []rawFrame // after the client preface
	egress   []rawFrame
	inBytes  int // preface + complete ingress frames
	outBytes int // complete egress frames
	// reqs and resps count request header blocks sent and streams the
	// server ended.
	reqs, resps int
	// complete reports that the client's GOAWAY is in the capture: the
	// whole connection was captured, not a 4 MiB prefix.
	complete   bool
	dataFrames int
	dataBytes  int64
	reqBlocks  [][]byte
	respBlocks [][]byte
	// flushAfter marks the egress frames the server's Write boundaries
	// fell behind.
	flushAfter []bool
	// bursts are the ingress chunks the server's Reads returned.
	bursts [][]byte
}

func prepareReplay(c *capture) (*connReplay, error) {
	pre := len(frame.ClientPreface)
	if len(c.ingress) < pre || string(c.ingress[:pre]) != frame.ClientPreface {
		return nil, errors.New("capture does not start with the client preface")
	}
	r := &connReplay{cap: c}
	r.ingress = splitFrames(c.ingress[pre:])
	r.egress = splitFrames(c.egress)
	r.inBytes = pre
	if n := len(r.ingress); n > 0 {
		r.inBytes += r.ingress[n-1].end
	}
	if n := len(r.egress); n > 0 {
		r.outBytes = r.egress[n-1].end
	}
	for _, f := range r.ingress {
		switch f.hdr.Type {
		case frame.TypeHeaders:
			r.reqs++
			r.reqBlocks = append(r.reqBlocks, headerFragment(f))
		case frame.TypeGoAway:
			r.complete = true
		}
	}
	writeEnds := make(map[int]bool)
	off := 0
	for _, ev := range c.events {
		if ev.write {
			off += ev.n
			writeEnds[off] = true
		}
	}
	for _, f := range r.egress {
		switch f.hdr.Type {
		case frame.TypeHeaders:
			r.respBlocks = append(r.respBlocks, headerFragment(f))
		case frame.TypeData:
			r.dataFrames++
			r.dataBytes += int64(len(f.payload))
		}
		if (f.hdr.Type == frame.TypeHeaders || f.hdr.Type == frame.TypeData) && f.hdr.Flags.Has(frame.FlagEndStream) {
			r.resps++
		}
		r.flushAfter = append(r.flushAfter, writeEnds[f.end])
	}
	off = 0
	for _, ev := range c.events {
		if !ev.write {
			r.bursts = append(r.bursts, c.ingress[off:off+ev.n])
			off += ev.n
		}
	}
	return r, nil
}

// ops is how many of the workload's ops the capture holds: connections on
// conn_churn, answered requests otherwise.
func (r *connReplay) ops(wl workloadDef) int {
	if wl.Name == wlConnChurn {
		if r.complete {
			return 1
		}
		return 0
	}
	return r.resps
}

// timeReps calls fn until at least minReps calls and minTotal have gone by
// and returns the duration of a call in nanoseconds, read off the calls the
// way a run's cost is read off its sub-windows (quietLow), so that a layer
// alone and the run it is a share of are measured on the same footing.
func timeReps(minTotal time.Duration, minReps int, fn func()) float64 {
	var ds []float64
	start := time.Now()
	for len(ds) < minReps || time.Since(start) < minTotal {
		t := time.Now()
		fn()
		ds = append(ds, float64(time.Since(t)))
		if len(ds) >= 10000 {
			break
		}
	}
	return quietLow(ds)
}

// replayBudgetFor is how long each layer replay measures for: a twentieth
// of the traced window, at most 250 ms. With less the first, cold
// repetitions dominate and the layers read dearer alone than they are inside
// a saturated run (60 ms overshot small_get's budget by 20 %).
func replayBudgetFor(window time.Duration) time.Duration {
	return min(250*time.Millisecond, max(10*time.Millisecond, window/20))
}

// frameReadNS times Framer.ReadFrame over the captured ingress of every
// replay, through the same 8 KiB buffered reader the server uses.
func frameReadNS(rs []*connReplay, budget time.Duration) float64 {
	pre := len(frame.ClientPreface)
	return timeReps(budget, 3, func() {
		for _, r := range rs {
			br := bufio.NewReaderSize(bytes.NewReader(r.cap.ingress[pre:r.inBytes]), 8<<10)
			fr := frame.NewFramer(io.Discard, br)
			for {
				if _, err := fr.ReadFrame(); err != nil {
					break
				}
			}
		}
	})
}

// frameWriteNS times writing the captured egress frame shapes into a
// discarding, write-coalescing framer, flushing where the server flushed.
func frameWriteNS(rs []*connReplay, budget time.Duration) float64 {
	return timeReps(budget, 3, func() {
		for _, r := range rs {
			fr := frame.NewFramer(io.Discard, nil)
			fr.SetWriteBuffering(0)
			for i, f := range r.egress {
				// A discard writer cannot fail and the shapes are frames
				// the framer itself produced, so errors cannot occur here.
				switch f.hdr.Type {
				case frame.TypeData:
					_ = fr.WriteData(f.hdr.StreamID, f.hdr.Flags.Has(frame.FlagEndStream), f.payload)
				case frame.TypeHeaders:
					_ = fr.WriteHeaders(frame.HeadersParams{
						StreamID:   f.hdr.StreamID,
						Fragment:   f.payload,
						EndStream:  f.hdr.Flags.Has(frame.FlagEndStream),
						EndHeaders: f.hdr.Flags.Has(frame.FlagEndHeaders),
					})
				default:
					_ = fr.WriteRawFrame(f.hdr.Type, f.hdr.Flags, f.hdr.StreamID, f.payload)
				}
				if r.flushAfter[i] {
					_ = fr.Flush()
				}
			}
			_ = fr.Flush()
		}
	})
}

// hpackDecodeNS times decoding every captured request block, a fresh
// decoder per connection as on the server.
func hpackDecodeNS(rs []*connReplay, budget time.Duration) float64 {
	var fields []hpack.HeaderField
	return timeReps(budget, 3, func() {
		for _, r := range rs {
			dec := hpack.NewDecoder(hpack.DefaultDynamicTableSize)
			for _, blk := range r.reqBlocks {
				// Captured blocks decoded on the server; they decode here.
				fields, _ = dec.DecodeAppend(fields[:0], blk)
			}
		}
	})
}

// responseLists decodes the captured response blocks back into header
// lists, the input the server's encoder saw.
func responseLists(r *connReplay) ([][]hpack.HeaderField, error) {
	dec := hpack.NewDecoder(hpack.DefaultDynamicTableSize)
	lists := make([][]hpack.HeaderField, 0, len(r.respBlocks))
	for _, blk := range r.respBlocks {
		fields, err := dec.DecodeAppend(nil, blk)
		if err != nil {
			return nil, fmt.Errorf("captured response block: %w", err)
		}
		lists = append(lists, fields)
	}
	return lists, nil
}

// hpackEncodeNS times re-encoding the response header lists with the
// profile's encoder policy, a fresh encoder per connection.
func hpackEncodeNS(rs []*connReplay, policy hpack.IndexingPolicy, budget time.Duration) (float64, error) {
	all := make([][][]hpack.HeaderField, len(rs))
	for i, r := range rs {
		lists, err := responseLists(r)
		if err != nil {
			return 0, err
		}
		all[i] = lists
	}
	var buf []byte
	return timeReps(budget, 3, func() {
		for _, lists := range all {
			enc := hpack.NewEncoder(policy)
			for _, fields := range lists {
				buf = enc.AppendBlock(buf[:0], fields)
			}
		}
	}), nil
}

// blockStats counts the representations of one HPACK block: header fields,
// and those sent as a bare index into the dynamic table (RFC 7541 §6.1
// with an index past the 61 static entries).
func blockStats(b []byte) (fields, dynIndexed int) {
	readInt := func(prefix uint) uint64 {
		mask := byte(1<<prefix - 1)
		v := uint64(b[0] & mask)
		b = b[1:]
		if v < uint64(mask) {
			return v
		}
		var shift uint
		for len(b) > 0 {
			c := b[0]
			b = b[1:]
			v += uint64(c&0x7f) << shift
			shift += 7
			if c&0x80 == 0 {
				break
			}
		}
		return v
	}
	skipString := func() {
		if len(b) == 0 {
			return
		}
		n := readInt(7)
		if n > uint64(len(b)) {
			n = uint64(len(b))
		}
		b = b[n:]
	}
	for len(b) > 0 {
		switch c := b[0]; {
		case c&0x80 != 0: // indexed header field
			if readInt(7) > 61 {
				dynIndexed++
			}
			fields++
		case c&0xe0 == 0x20: // dynamic table size update: not a field
			readInt(5)
		default: // literal, with (6-bit prefix) or without (4-bit) indexing
			prefix := uint(4)
			if c&0xc0 == 0x40 {
				prefix = 6
			}
			if readInt(prefix) == 0 {
				skipString()
			}
			skipString()
			fields++
		}
	}
	return fields, dynIndexed
}

// flowControlNS times the window arithmetic the server does per DATA
// frame: clamp and consume on the stream and the connection window, and an
// increase whenever the window runs low.
func flowControlNS(budget time.Duration) float64 {
	const frames = 1 << 16
	stream := flowcontrol.New(frame.DefaultInitialWindowSize)
	conn := flowcontrol.New(frame.DefaultInitialWindowSize)
	perCall := timeReps(budget, 3, func() {
		for i := 0; i < frames; i++ {
			n := stream.ClampTake(frame.DefaultMaxFrameSize)
			n = conn.ClampTake(n)
			// n was clamped to both windows, so neither call can fail.
			_ = stream.Consume(n)
			_ = conn.Consume(n)
			if stream.Available() < frame.DefaultMaxFrameSize {
				_ = stream.Increase(uint32(frame.DefaultInitialWindowSize - stream.Available()))
				_ = conn.Increase(uint32(frame.DefaultInitialWindowSize - conn.Available()))
			}
		}
	})
	return perCall / frames
}

// priorityPickNS times the scheduler the way a closed-loop batch uses it:
// ready default-weight streams enter the tree together, every Pick sends one
// quantum, and a stream leaves the tree after quanta of them — so the
// eligible set shrinks from ready to nothing, as it does on the server. It
// returns the cost per pick, tree insert and removal included.
func priorityPickNS(ready, quanta int, budget time.Duration) float64 {
	const rounds = 64
	tree := priority.NewTree()
	sched := priority.NewScheduler(tree)
	left := make(map[uint32]int, ready)
	isReady := func(id uint32) bool { return left[id] > 0 }
	next := uint32(1)
	perCall := timeReps(budget, 3, func() {
		for r := 0; r < rounds; r++ {
			for i := 0; i < ready; i++ {
				// Fresh odd IDs with default parameters always insert.
				_ = tree.Add(next, priority.Param{Weight: priority.DefaultWeight})
				left[next] = quanta
				next += 2
			}
			for {
				id, ok := sched.Pick(isReady)
				if !ok {
					break
				}
				if left[id]--; left[id] == 0 {
					delete(left, id)
					tree.Remove(id)
					sched.Forget(id)
				}
			}
		}
	})
	return perCall / float64(rounds*ready*quanta)
}

// replayConn feeds a server the captured ingress of one connection from
// memory and scans what it writes. The server calls Read only when it has
// nothing left to do, so handing it the next captured burst on every Read
// reproduces the closed loop without a second goroutine.
type replayConn struct {
	bursts [][]byte
	off    int
	// endStreams counts END_STREAM flags in the frames the server wrote.
	endStreams int
	// keep retains the egress for the capture-replay equivalence check.
	keep   bool
	egress []byte
}

type replayAddr struct{}

func (replayAddr) Network() string { return "replay" }
func (replayAddr) String() string  { return "replay" }

func (c *replayConn) Read(p []byte) (int, error) {
	for len(c.bursts) > 0 && c.off == len(c.bursts[0]) {
		c.bursts, c.off = c.bursts[1:], 0
	}
	if len(c.bursts) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.bursts[0][c.off:])
	c.off += n
	return n, nil
}

// Write scans p, which always holds whole frames: the server's framer
// flushes its coalescing buffer only at frame boundaries. The scan reads the
// nine header bytes in place, so the instrument adds no allocation to the
// server time it measures.
func (c *replayConn) Write(p []byte) (int, error) {
	for off := 0; len(p)-off >= frame.HeaderLen; {
		h := p[off : off+frame.HeaderLen]
		typ, flags := frame.Type(h[3]), frame.Flags(h[4])
		if (typ == frame.TypeHeaders || typ == frame.TypeData) && flags.Has(frame.FlagEndStream) {
			c.endStreams++
		}
		off += frame.HeaderLen + (int(h[0])<<16 | int(h[1])<<8 | int(h[2]))
	}
	if c.keep {
		c.egress = append(c.egress, p...)
	}
	return len(p), nil
}

func (c *replayConn) Close() error                     { return nil }
func (c *replayConn) LocalAddr() net.Addr              { return replayAddr{} }
func (c *replayConn) RemoteAddr() net.Addr             { return replayAddr{} }
func (c *replayConn) SetDeadline(time.Time) error      { return nil }
func (c *replayConn) SetReadDeadline(time.Time) error  { return nil }
func (c *replayConn) SetWriteDeadline(time.Time) error { return nil }

// serveReplay runs one captured connection through srv.ServeConn from
// memory and returns how many streams the server ended and, if keep is set,
// every byte it wrote.
func serveReplay(srv *server.Server, r *connReplay, keep bool) (endStreams int, egress []byte) {
	rc := &replayConn{bursts: slices.Clone(r.bursts), keep: keep}
	// The ingress ends without a clean close or mid-frame when the capture
	// was cut at its limit; the error that ends ServeConn is expected.
	_ = srv.ServeConn(rc)
	return rc.endStreams, rc.egress
}

// pipeNS times ServeConn over the in-memory replay of every capture: the
// whole server-side cost of the captured traffic with no transport under
// it. It also returns how many ops the replays answered.
func pipeNS(site *server.Site, rs []*connReplay, wl workloadDef, budget time.Duration) (ns float64, ops int) {
	srv := server.New(server.NghttpdProfile(), site)
	for _, r := range rs {
		ended, _ := serveReplay(srv, r, false)
		if wl.Name == wlConnChurn {
			ops += r.ops(wl)
		} else {
			ops += ended
		}
	}
	ns = timeReps(budget, 3, func() {
		for _, r := range rs {
			serveReplay(srv, r, false)
		}
	})
	return ns, ops
}

// connAllocKB is the heap one replayed connection allocates on the server
// side, from newConn to teardown.
func connAllocKB(site *server.Site, r *connReplay) float64 {
	srv := server.New(server.NghttpdProfile(), site)
	serveReplay(srv, r, false) // let one-time initialisation happen first
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	serveReplay(srv, r, false)
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1024
}

// memConn is the driver's side of a replay: reads come from the captured
// egress, writes vanish.
type memConn struct{ r *bytes.Reader }

func (m *memConn) Read(p []byte) (int, error)  { return m.r.Read(p) }
func (m *memConn) Write(p []byte) (int, error) { return len(p), nil }
func (m *memConn) Close() error                { return nil }

// clientNS times the load generator on its own: the driver is fed the
// captured egress from memory and issues the captured request sequence, so
// what remains is encode, frame write, frame read, decode and verify.
func clientNS(rs []*connReplay, wl workloadDef, objects []object, budget time.Duration) (ns float64, ops int, err error) {
	run := func() (int, error) {
		total := 0
		for _, r := range rs {
			n, err := replayClient(r, wl, objects)
			if err != nil {
				return total, err
			}
			total += n
		}
		return total, nil
	}
	if ops, err = run(); err != nil {
		return 0, 0, err
	}
	ns = timeReps(budget, 3, func() { _, _ = run() })
	return ns, ops, nil
}

// replayClient runs the driver over one capture and returns the ops it
// completed.
func replayClient(r *connReplay, wl workloadDef, objects []object) (int, error) {
	reqs := r.cap.reqs
	pos := 0
	d := &driver{
		objects:     objects,
		next:        func() int { pos++; return int(reqs[pos-1]) },
		timeout:     batchTimeout,
		perRequest:  wl.Name != wlConnChurn,
		verifyEvery: timedVerifyEvery,
		// No read buffer: over TCP the buffer is where the kernel copies
		// to, and that copy is in the transport floor already; reading the
		// capture through one would count it twice.
		readBuf: 0,
		sink:    &opSink{},
		dial: func() (io.ReadWriteCloser, error) {
			return &memConn{r: bytes.NewReader(r.cap.egress[:r.outBytes])}, nil
		},
	}
	c, _, err := d.connect()
	if err != nil {
		return 0, fmt.Errorf("client replay: %w", err)
	}
	if wl.Name == wlConnChurn {
		if !r.complete || len(reqs) < churnRequests {
			c.close()
			return 0, nil
		}
		for i := 0; i < churnRequests; i++ {
			d.runBatch(c, 1)
		}
		if err := c.goAwayAndClose(); err != nil {
			return 0, fmt.Errorf("client replay: %w", err)
		}
		if d.sink.allFailed > 0 || c.dead {
			return 0, fmt.Errorf("client replay: captured responses did not verify: %w", c.err)
		}
		return 1, nil
	}
	defer c.close()
	batches := min(r.resps, len(reqs)) / wl.Batch
	for i := 0; i < batches; i++ {
		d.runBatch(c, wl.Batch)
		if c.dead {
			return 0, fmt.Errorf("client replay: %w", c.err)
		}
	}
	if d.sink.allFailed > 0 {
		return 0, errors.New("client replay: captured responses did not verify")
	}
	return batches * wl.Batch, nil
}

// transportFloorNS replays the chunk sizes of the captured connections
// over bare TCP loopback — same reads, same writes, no HTTP/2 — and returns
// the process CPU time one op's worth of transport costs: the floor under
// cpu_us_per_op that no change above the socket can remove. It runs workers
// connections side by side, as the workload does: with fewer, idle cores
// spin looking for work and the floor reads higher than the run it is a
// floor for.
func transportFloorNS(rs []*connReplay, wl workloadDef, workers int, minWall time.Duration) (float64, error) {
	workers = min(workers, len(rs))
	ops := 0
	for _, r := range rs {
		ops += r.ops(wl)
	}
	if ops == 0 {
		return 0, errors.New("transport floor: no complete op captured")
	}
	// A listener per worker, so a worker accepts what it dialed.
	lns := make([]net.Listener, workers)
	bufs := make([]*floorBufs, workers)
	for w := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, fmt.Errorf("transport floor: %w", err)
		}
		defer ln.Close()
		lns[w], bufs[w] = ln, newFloorBufs(rs)
	}
	// One round plays every capture once, the workers' shares side by side;
	// the floor is read off the rounds as a run's cost is off its sub-windows.
	var costs []float64
	errs := make([]error, workers)
	for start := time.Now(); len(costs) < 3 || time.Since(start) < minWall; {
		cpu0 := cpuNow()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(rs) && errs[w] == nil; i += workers {
					errs[w] = floorConn(lns[w], rs[i], bufs[w])
				}
			}(w)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return 0, fmt.Errorf("transport floor: %w", err)
		}
		costs = append(costs, float64(cpuNow()-cpu0)/float64(ops))
	}
	return quietLow(costs), nil
}

// floorBufs are one floor worker's scratch buffers, reused across
// connections so the floor does not pay for allocating them.
type floorBufs struct{ srvIn, srvOut, cli []byte }

func newFloorBufs(rs []*connReplay) *floorBufs {
	n := 64 << 10
	for _, r := range rs {
		for _, ev := range r.cap.events {
			n = max(n, ev.n)
		}
	}
	return &floorBufs{make([]byte, n), make([]byte, n), make([]byte, n)}
}

// floorConn plays one capture's I/O pattern over a fresh TCP connection:
// the server side reads and writes exactly the captured chunk sizes, the
// client side writes each ingress burst whole and reads until the egress
// that followed it has arrived.
func floorConn(ln net.Listener, r *connReplay, bufs *floorBufs) error {
	events := r.cap.events
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		nc, err := ln.Accept()
		if err != nil {
			srvErr = err
			return
		}
		defer nc.Close()
		for _, ev := range events {
			if ev.write {
				_, err = nc.Write(bufs.srvOut[:ev.n])
			} else {
				_, err = io.ReadFull(nc, bufs.srvIn[:ev.n])
			}
			if err != nil {
				srvErr = err
				return
			}
		}
		// Wait for the client's close, as the server does after GOAWAY.
		_, _ = nc.Read(bufs.srvIn[:1])
	}()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		wg.Wait()
		return err
	}
	buf := bufs.cli
	var cliErr error
	for i := 0; i < len(events) && cliErr == nil; {
		send := 0
		for ; i < len(events) && !events[i].write; i++ {
			send += events[i].n
		}
		recv := 0
		for ; i < len(events) && events[i].write; i++ {
			recv += events[i].n
		}
		for send > 0 && cliErr == nil {
			n := min(send, len(buf))
			_, cliErr = nc.Write(buf[:n])
			send -= n
		}
		for recv > 0 && cliErr == nil {
			var n int
			n, cliErr = nc.Read(buf[:min(recv, len(buf))])
			recv -= n
		}
	}
	_ = nc.Close()
	wg.Wait()
	if cliErr != nil {
		return cliErr
	}
	return srvErr
}
