package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/hpack"
)

// Client flow-control windows: large enough that neither workload stalls on
// the client, small enough that large_get has to replenish the connection
// window (a client that never sends WINDOW_UPDATE cannot move more than
// 2 GiB per connection, well under one second of /large/*).
const (
	clientStreamWindow = 6 << 20
	clientConnWindow   = 15 << 20
	connWindowRefill   = clientConnWindow / 2
	// timedVerifyEvery is how often a timed op's body is byte-compared;
	// status and length are checked on every op.
	timedVerifyEvery = 256
)

// opSink is one worker's result buffer: per-sub-window op and byte counts
// and exact latency samples, all restricted to the measured window [t0, t1).
// The zero value has an empty window and only counts (allOps, allFailed,
// allBytes), which is all the gate and the replays need.
type opSink struct {
	t0, t1 time.Time
	subLen time.Duration
	// subOps and subBytes count the verified ops that ended in each
	// subLen-long part of the window and their body bytes.
	subOps   []int64
	subBytes []int64

	attempted int64 // ops that ended inside the window, ok or not
	failed    int64
	bodyBytes int64 // verified body bytes of ok ops inside the window

	// lat holds the latency of every verified op in nanoseconds, in the
	// order the ops ended, preallocated; subEnd[i] is how many of them
	// ended in sub-windows 0..i. A run that outgrows the buffer keeps what
	// fits: the samples stay exact, and the report says how many there are.
	lat    []int32
	subEnd []int32

	// allOps and allFailed count every op, warm-up included: the
	// denominator for counters that accumulate from connection start.
	allOps    int64
	allFailed int64
	allBytes  int64
}

func newOpSink(t0 time.Time, window time.Duration, sampleCap int) *opSink {
	n, subLen := subWindowsOf(window)
	return &opSink{
		t0: t0, t1: t0.Add(window), subLen: subLen,
		subOps:   make([]int64, n),
		subBytes: make([]int64, n),
		subEnd:   make([]int32, n),
		lat:      make([]int32, 0, sampleCap),
	}
}

func (s *opSink) record(end time.Time, lat time.Duration, ok bool, body int) {
	s.allOps++
	if ok {
		s.allBytes += int64(body)
	} else {
		s.allFailed++
	}
	if end.Before(s.t0) || !end.Before(s.t1) {
		return
	}
	s.attempted++
	if !ok {
		s.failed++
		return
	}
	s.bodyBytes += int64(body)
	i := int(end.Sub(s.t0) / s.subLen)
	if i >= len(s.subOps) {
		return // the window's last, partial sub-window
	}
	s.subOps[i]++
	s.subBytes[i] += int64(body)
	if len(s.lat) == cap(s.lat) {
		return
	}
	s.lat = append(s.lat, int32(min(int64(lat), math.MaxInt32)))
	s.subEnd[i] = int32(len(s.lat))
}

// subSamples returns the samples of sub-window i.
func (s *opSink) subSamples(i int) []int32 {
	// subEnd is only written where an op ended; an empty sub-window ends
	// where the one before it did.
	end := func(i int) int32 {
		for ; i >= 0; i-- {
			if s.subEnd[i] > 0 {
				return s.subEnd[i]
			}
		}
		return 0
	}
	return s.lat[end(i-1):end(i)]
}

// timedReader stamps the return of every Read, so a sampled op knows when
// the bytes that completed it reached the client (traced pass only).
type timedReader struct {
	r        io.Reader
	lastRead time.Time
}

func (t *timedReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	t.lastRead = time.Now()
	return n, err
}

// batch is the in-flight closed-loop batch, reused across batches.
type batch struct {
	base   uint32
	n      int
	done   int
	t0     time.Time
	obj    []int32
	got    []int32
	status []uint8 // 0 no response headers yet, 1 status 200, 2 anything else
	ended  []bool
	// vslot is the slot whose body is byte-compared (-1: none); its DATA
	// payloads accumulate in the driver's vbuf.
	vslot int
	// okOps and okBytes total the batch for per-connection ops.
	okOps   int
	okBytes int
	// sampled marks a batch whose first request records spans.
	sampled  bool
	flushEnd time.Time
}

func (b *batch) reset(base uint32, n int) {
	b.base, b.n, b.done = base, n, 0
	b.obj = append(b.obj[:0], make([]int32, n)...)
	b.got = append(b.got[:0], make([]int32, n)...)
	b.status = append(b.status[:0], make([]uint8, n)...)
	b.ended = append(b.ended[:0], make([]bool, n)...)
	b.vslot = -1
	b.okOps, b.okBytes = 0, 0
	b.sampled = false
}

// slot maps a stream ID into the batch, or -1.
func (b *batch) slot(id uint32) int {
	if id < b.base || (id-b.base)%2 != 0 {
		return -1
	}
	i := int(id-b.base) / 2
	if i >= b.n {
		return -1
	}
	return i
}

// clientConn is one raw HTTP/2 connection of the driver: a framer and the
// per-connection HPACK contexts over the public frame/hpack APIs.
type clientConn struct {
	nc  io.ReadWriteCloser
	fr  *frame.Framer
	enc *hpack.Encoder
	dec *hpack.Decoder
	req []hpack.HeaderField

	block  []byte
	fields []hpack.HeaderField
	nextID uint32
	// maxConc is the server's SETTINGS_MAX_CONCURRENT_STREAMS.
	maxConc int
	// unacked counts flow-controlled bytes consumed since the last
	// connection WINDOW_UPDATE.
	unacked int64

	hb    []byte
	hbID  uint32
	hbEnd bool

	// watchdog closes nc when a batch makes no progress for timeout.
	watchdog *time.Timer
	timeout  time.Duration

	dead   bool
	goaway bool
	err    error

	// Traced pass only.
	tr      *timedReader
	tc      *tracedConn
	port    int
	reqLog  []int32
	flushNS int64
	wuSent  int64
}

// newClientConn performs the client half of connection set-up over nc:
// preface, SETTINGS and the connection window in one write, then reads
// until the server's SETTINGS (which it ACKs) and the ACK of its own have
// both arrived.
func newClientConn(nc io.ReadWriteCloser, timeout time.Duration, readBuf int, timed bool) (*clientConn, error) {
	c := &clientConn{
		nc:      nc,
		enc:     hpack.NewEncoder(hpack.PolicyIndexAll),
		dec:     hpack.NewDecoder(hpack.DefaultDynamicTableSize),
		req:     chromeHeaders(benchAuthority),
		nextID:  1,
		maxConc: 1 << 30,
		timeout: timeout,
	}
	var r io.Reader = nc
	if timed {
		c.tr = &timedReader{r: nc}
		r = c.tr
	}
	// The framer reads header and payload with separate ReadFull calls;
	// the buffer turns those into one socket read per burst. (readBuf 0,
	// no buffer, is for reading from memory.)
	if readBuf > 0 {
		r = bufio.NewReaderSize(r, readBuf)
	}
	c.fr = frame.NewFramer(nc, r)
	c.fr.SetWriteBuffering(64 << 10)
	c.watchdog = time.AfterFunc(time.Hour, func() { _ = nc.Close() })
	c.watchdog.Stop()
	if err := c.handshake(); err != nil {
		c.close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	return c, nil
}

func (c *clientConn) handshake() error {
	if err := c.fr.WriteRawBytes([]byte(frame.ClientPreface)); err != nil {
		return err
	}
	if err := c.fr.WriteSettings(
		frame.Setting{ID: frame.SettingEnablePush, Val: 0},
		frame.Setting{ID: frame.SettingInitialWindowSize, Val: clientStreamWindow},
	); err != nil {
		return err
	}
	if err := c.fr.WriteWindowUpdate(0, clientConnWindow-frame.DefaultInitialWindowSize); err != nil {
		return err
	}
	if err := c.fr.Flush(); err != nil {
		return err
	}
	c.watchdog.Reset(c.timeout)
	defer c.watchdog.Stop()
	var gotSettings, gotAck bool
	for !gotSettings || !gotAck {
		f, err := c.fr.ReadFrame()
		if err != nil {
			return err
		}
		switch f := f.(type) {
		case *frame.SettingsFrame:
			if f.IsAck() {
				gotAck = true
				continue
			}
			if v, ok := f.Value(frame.SettingMaxConcurrentStreams); ok {
				c.maxConc = int(v)
			}
			if v, ok := f.Value(frame.SettingHeaderTableSize); ok {
				c.enc.SetMaxDynamicTableSize(v)
			}
			gotSettings = true
			if err := c.fr.WriteSettingsAck(); err != nil {
				return err
			}
			if err := c.fr.Flush(); err != nil {
				return err
			}
		case *frame.GoAwayFrame:
			return fmt.Errorf("GOAWAY during handshake: %v", f.Code)
		}
	}
	return nil
}

func (c *clientConn) close() {
	c.watchdog.Stop()
	_ = c.nc.Close()
}

// goAwayAndClose ends the connection the polite way: GOAWAY(NO_ERROR), then
// read until the server closes, then close. Waiting for the server's close
// keeps a churn op from overlapping the teardown of the previous one.
func (c *clientConn) goAwayAndClose() error {
	defer c.close()
	if err := c.fr.WriteGoAway(0, frame.ErrCodeNo, nil); err != nil {
		return err
	}
	if err := c.fr.Flush(); err != nil {
		return err
	}
	c.watchdog.Reset(c.timeout)
	for {
		if _, err := c.fr.ReadFrame(); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}

// driver is one closed-loop load worker. It owns its connection, request
// sequence and result sink, so the request path shares nothing.
type driver struct {
	id      int
	objects []object
	next    func() int // next object index to request
	batchN  int
	timeout time.Duration
	sink    *opSink
	// perRequest makes every request an op (small_get, large_get); when
	// false the caller records one op per connection (conn_churn).
	perRequest bool

	// verifyEvery byte-compares the body of every verifyEvery-th request.
	verifyEvery int64
	// readBuf is the size of the connection's read buffer.
	readBuf int

	dial func() (io.ReadWriteCloser, error)

	b     batch
	vbuf  []byte
	opSeq int64

	// Traced pass only (hub nil otherwise).
	hub   *traceHub
	spans *spanLog

	flushNS int64
	wuSent  int64
	// firstErr keeps the first transport or protocol error for the report.
	firstErr error
}

// connect dials and completes connection set-up.
func (d *driver) connect() (*clientConn, time.Time, error) {
	dialStart := time.Now()
	nc, err := d.dial()
	if err != nil {
		return nil, dialStart, fmt.Errorf("dial: %w", err)
	}
	c, err := newClientConn(nc, d.timeout, d.readBuf, d.hub != nil)
	if err != nil {
		return nil, dialStart, err
	}
	if d.hub != nil {
		if tcp, ok := nc.(*net.TCPConn); ok {
			c.port = tcp.LocalAddr().(*net.TCPAddr).Port
			// The server answered the handshake, so it has accepted.
			if c.tc = d.hub.lookup(c.port); c.tc != nil {
				d.hub.noteDialAccept(c.tc.acceptedAt.Sub(dialStart))
			}
		}
	}
	return c, dialStart, nil
}

// retire folds a finished connection's traced-pass counters into the
// driver and hands the request log to the server-side capture.
func (d *driver) retire(c *clientConn) {
	d.flushNS += c.flushNS
	d.wuSent += c.wuSent
	if c.tc != nil {
		c.tc.mu.Lock()
		if c.tc.cap != nil {
			c.tc.cap.reqs = c.reqLog
		}
		c.tc.mu.Unlock()
	}
	if c.err != nil && d.firstErr == nil {
		d.firstErr = c.err
	}
}

// fail tears the connection down and settles every unfinished stream of the
// batch as a failed op.
func (d *driver) fail(c *clientConn, err error) {
	c.dead = true
	if c.err == nil {
		c.err = err
	}
	c.close()
	b := &d.b
	for i := 0; i < b.n; i++ {
		if !b.ended[i] {
			d.finish(c, i, false)
		}
	}
}

// finish settles one batch stream.
func (d *driver) finish(c *clientConn, slot int, ok bool) {
	b := &d.b
	if b.ended[slot] {
		return
	}
	b.ended[slot] = true
	b.done++
	body := int(b.got[slot])
	if ok {
		b.okOps++
		b.okBytes += body
	}
	sampled := b.sampled && slot == 0 && c.tc != nil
	if !d.perRequest && !sampled {
		return
	}
	now := time.Now()
	if d.perRequest {
		d.sink.record(now, now.Sub(b.t0), ok, body)
	}
	if sampled {
		d.spans.add(opSpans{
			op:       fmt.Sprintf("c%d/s%d", c.port, b.base),
			start:    b.t0,
			flushEnd: b.flushEnd,
			lastRead: c.tr.lastRead,
			end:      now,
			busy:     c.tc.busyIntervals(b.flushEnd, now),
		})
	}
}

// verdict checks a stream that ended with END_STREAM: status 200, the
// exact expected length, and for the sampled slot the exact bytes.
func (d *driver) verdict(slot int) bool {
	b := &d.b
	want := d.objects[b.obj[slot]].Body
	if b.status[slot] != 1 || int(b.got[slot]) != len(want) {
		return false
	}
	if slot == b.vslot && !bytes.Equal(d.vbuf, want) {
		return false
	}
	return true
}

// runBatch submits n requests as one coalesced HEADERS burst and drains the
// connection until all of them have ended. n is capped by the server's
// SETTINGS_MAX_CONCURRENT_STREAMS.
func (d *driver) runBatch(c *clientConn, n int) {
	if n > c.maxConc {
		n = c.maxConc
	}
	b := &d.b
	b.reset(c.nextID, n)
	// The traced pass samples the batch that crosses each sampleEvery-th op
	// (and the very first, so short runs still record a span).
	b.sampled = d.hub != nil && (d.opSeq == 0 || (d.opSeq+int64(n))/sampleEvery != d.opSeq/sampleEvery)
	b.t0 = time.Now()
	for i := 0; i < n; i++ {
		obj := d.next()
		b.obj[i] = int32(obj)
		if d.opSeq%d.verifyEvery == 0 && b.vslot < 0 {
			b.vslot = i
			d.vbuf = d.vbuf[:0]
		}
		d.opSeq++
		if c.tc != nil {
			c.reqLog = append(c.reqLog, int32(obj))
		}
		c.req[pathField].Value = d.objects[obj].Path
		c.block = c.enc.AppendBlock(c.block[:0], c.req)
		err := c.fr.WriteHeaders(frame.HeadersParams{
			StreamID:   c.nextID,
			Fragment:   c.block,
			EndStream:  true,
			EndHeaders: true,
		})
		c.nextID += 2
		if err != nil {
			d.fail(c, err)
			return
		}
	}
	var flushStart time.Time
	if d.hub != nil {
		flushStart = time.Now()
	}
	if err := c.fr.Flush(); err != nil {
		d.fail(c, err)
		return
	}
	if d.hub != nil {
		b.flushEnd = time.Now()
		c.flushNS += int64(b.flushEnd.Sub(flushStart))
	}
	d.drain(c)
}

// drain reads frames until the batch completes, the watchdog closes the
// connection, or the transport fails.
func (d *driver) drain(c *clientConn) {
	c.watchdog.Reset(c.timeout)
	defer c.watchdog.Stop()
	for d.b.done < d.b.n {
		f, err := c.fr.ReadFrame()
		if err == nil {
			err = d.onFrame(c, f)
		}
		if err != nil {
			d.fail(c, err)
			return
		}
	}
}

// onFrame handles one received frame; an error ends the connection.
func (d *driver) onFrame(c *clientConn, f frame.Frame) error {
	b := &d.b
	switch f := f.(type) {
	case *frame.DataFrame:
		return d.onData(c, f)
	case *frame.HeadersFrame:
		c.hb = append(c.hb[:0], f.Fragment...)
		c.hbID, c.hbEnd = f.Header().StreamID, f.StreamEnded()
		if f.HeadersEnded() {
			return d.onHeaderBlock(c)
		}
	case *frame.ContinuationFrame:
		c.hb = append(c.hb, f.Fragment...)
		if f.HeadersEnded() {
			return d.onHeaderBlock(c)
		}
	case *frame.RSTStreamFrame:
		// REFUSED_STREAM and friends: the op failed, the batch goes on.
		if i := b.slot(f.Header().StreamID); i >= 0 {
			d.finish(c, i, false)
		}
	case *frame.GoAwayFrame:
		c.goaway = true
		// Streams above the cutoff will never be answered.
		for i := 0; i < b.n; i++ {
			if b.base+2*uint32(i) > f.LastStreamID {
				d.finish(c, i, false)
			}
		}
	case *frame.SettingsFrame:
		if !f.IsAck() {
			if err := c.fr.WriteSettingsAck(); err != nil {
				return err
			}
			return c.fr.Flush()
		}
	case *frame.PingFrame:
		if !f.IsAck() {
			if err := c.fr.WritePing(true, f.Data); err != nil {
				return err
			}
			return c.fr.Flush()
		}
	case *frame.PushPromiseFrame:
		// Push is disabled in SETTINGS; a promise is a protocol error.
		return errors.New("PUSH_PROMISE with ENABLE_PUSH=0")
	}
	return nil
}

func (d *driver) onData(c *clientConn, f *frame.DataFrame) error {
	b := &d.b
	c.unacked += int64(f.FlowControlLen())
	if i := b.slot(f.Header().StreamID); i >= 0 && !b.ended[i] {
		b.got[i] += int32(len(f.Data))
		if i == b.vslot {
			d.vbuf = append(d.vbuf, f.Data...)
		}
		if f.StreamEnded() {
			d.finish(c, i, d.verdict(i))
		}
	}
	if c.unacked >= connWindowRefill {
		if err := c.fr.WriteWindowUpdate(0, uint32(c.unacked)); err != nil {
			return err
		}
		if err := c.fr.Flush(); err != nil {
			return err
		}
		c.unacked = 0
		c.wuSent++
	}
	return nil
}

// onHeaderBlock decodes a completed response header block (it must be
// decoded even when unwanted: it mutates the connection's HPACK state).
func (d *driver) onHeaderBlock(c *clientConn) error {
	fields, err := c.dec.DecodeAppend(c.fields[:0], c.hb)
	c.fields = fields
	if err != nil {
		return fmt.Errorf("hpack: %w", err)
	}
	b := &d.b
	i := b.slot(c.hbID)
	if i < 0 || b.ended[i] {
		return nil
	}
	b.status[i] = 2
	for _, hf := range fields {
		if hf.Name == ":status" {
			if hf.Value == "200" {
				b.status[i] = 1
			}
			break
		}
	}
	if c.hbEnd {
		d.finish(c, i, d.verdict(i))
	}
	return nil
}
