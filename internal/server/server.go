package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"h2scope/internal/flowcontrol"
	"h2scope/internal/frame"
	"h2scope/internal/hpack"
	"h2scope/internal/priority"
	"h2scope/internal/trace"
)

// fixedDate keeps response header bytes deterministic across runs; the
// HPACK-ratio experiment depends on responses being byte-identical.
const fixedDate = "Tue, 05 Jul 2016 10:00:00 GMT"

// tinyWindowThreshold is the stream-window size below which the
// TinyWindowZeroData and TinyWindowSilent behaviors trigger.
const tinyWindowThreshold = 64

// defaultMaxHeaderListBytes caps the *decoded* size of one header block
// when the profile does not advertise SETTINGS_MAX_HEADER_LIST_SIZE. A
// few-KiB HPACK bomb expands thousandsfold through dynamic-table
// references, so the cap is enforced by the decoder during expansion and
// surfaces as a COMPRESSION_ERROR connection error.
const defaultMaxHeaderListBytes = 256 << 10

// Server is an HTTP/2 origin server for one Site, with behavior selected by
// a Profile.
type Server struct {
	profile Profile
	routes  *routeTable

	// Trace, when non-nil, receives frame-level trace events for every
	// connection the server handles (a fresh trace connection ID per
	// accepted conn). Set it before serving; it is not guarded by a lock.
	Trace *trace.Tracer

	// Metrics, when non-nil, receives instrument bumps from every
	// connection the server handles (see NewMetrics for the catalog). Set
	// it before serving; like Trace it is not guarded by a lock.
	Metrics *Metrics

	// mu guards the connection lifecycle: the listeners, the table of live
	// connections and the closed flag. A connection's waitgroup slot is
	// taken in the critical section that inserts it into the table, so once
	// stop has marked the server closed no wg.Add can race the wg.Wait of
	// Close or Shutdown and no connection can slip past their sweep.
	mu     sync.Mutex
	lis    []net.Listener
	conns  map[*conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// New returns a server for site with the given behavior profile. The site's
// document tree is compiled into the zero-alloc dispatch table here; build
// the site fully before calling New.
func New(p Profile, site *Site) *Server {
	return &Server{
		profile: p,
		routes:  buildRoutes(&p, site),
		conns:   make(map[*conn]struct{}),
	}
}

// errClosed is returned by Serve and ServeConn once Close or Shutdown ran.
var errClosed = errors.New("server: closed")

// Serve accepts connections from l until the listener fails or Close is
// called, serving each on its own goroutine. A server may Serve several
// listeners; one goroutine per listener blocks in Accept.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errClosed
	}
	s.lis = append(s.lis, l)
	s.mu.Unlock()

	for {
		nc, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		// How a connection ended is between it and its peer (a connection
		// error goes out as GOAWAY and onto the trace bus); the accept loop
		// has no use for it.
		go func() { _ = s.ServeConn(nc) }()
	}
}

// stop closes the listeners, marks the server closed and returns the live
// connections. After it returns no track can succeed, so the table only
// shrinks and wg.Wait cannot be raced by a late wg.Add.
func (s *Server) stop() []*conn {
	s.mu.Lock()
	s.closed = true
	lis := s.lis
	s.lis = nil
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, l := range lis {
		_ = l.Close()
	}
	return conns
}

// track enters c into the connection table and takes its waitgroup slot.
// It reports false once the server closed: a connection accepted just
// before Close/Shutdown is either in the table their sweep reads or is
// turned away here.
func (s *Server) track(c *conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *Server) untrack(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.wg.Done()
}

// Close stops all listeners and waits for in-flight connections, whether
// Serve accepted them or ServeConn was handed them.
func (s *Server) Close() {
	s.stop()
	s.wg.Wait()
}

// Shutdown closes gracefully (RFC 7540 section 6.8): listeners stop
// accepting, every live connection receives GOAWAY(NO_ERROR), and
// connections that have not wound down after the grace period are closed
// forcibly. Shutdown blocks until all connections ended.
func (s *Server) Shutdown(grace time.Duration) {
	conns := s.stop()
	deadline := time.Now().Add(grace)
	// One goroutine per connection: a peer that stopped reading delays only
	// its own GOAWAY, not its neighbours' and not the grace clock.
	var announced sync.WaitGroup
	for _, c := range conns {
		announced.Add(1)
		go func(c *conn) {
			defer announced.Done()
			c.announceGoAway(deadline)
		}(c)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		announced.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		for _, c := range conns {
			_ = c.nc.Close()
		}
		<-done
	}
}

// newConn builds the per-connection state for nc, framer hooks included: a
// conn is complete before the table makes it visible to Shutdown, whose
// GOAWAY goes through the same framer from another goroutine.
func newConn(s *Server, nc net.Conn) *conn {
	br := bufio.NewReaderSize(nc, 8<<10)
	c := &conn{
		srv:           s,
		nc:            nc,
		br:            br,
		fr:            newServerFramer(nc, br),
		enc:           newResponseEncoder(&s.profile),
		dec:           hpack.NewDecoder(hpack.DefaultDynamicTableSize),
		streams:       make(map[uint32]*stream),
		sendWindow:    flowcontrol.New(flowcontrol.DefaultWindow),
		recvWindow:    flowcontrol.New(flowcontrol.DefaultWindow),
		clientInitWin: frame.DefaultInitialWindowSize,
		maxSendFrame:  frame.DefaultMaxFrameSize,
		clientMaxConc: ^uint32(0),
		pushEnabled:   true,
		tree:          priority.NewTree(),
		nextPushID:    2,
	}
	c.sched = priority.NewScheduler(c.tree)
	// Bind the scheduling predicates once: passing c.ready as a method
	// value mints a fresh closure per call, which the zero-alloc egress
	// path cannot afford.
	c.readyFn = c.ready
	c.readyFirstFn = c.readyFirst
	// Bound decoded header blocks (the HPACK-bomb guard): the advertised
	// SETTINGS_MAX_HEADER_LIST_SIZE when the profile has one, a defensive
	// default otherwise.
	if limit := s.profile.MaxHeaderListSize; limit > 0 {
		c.dec.SetMaxHeaderListSize(limit)
	} else {
		c.dec.SetMaxHeaderListSize(defaultMaxHeaderListBytes)
	}
	// Hold the peer to the SETTINGS_MAX_FRAME_SIZE the profile advertises
	// (the RFC default when it sends none).
	if s.profile.OmitSettings {
		c.fr.SetMaxReadFrameSize(frame.DefaultMaxFrameSize)
	} else {
		c.fr.SetMaxReadFrameSize(s.profile.MaxFrameSize)
	}
	if s.Metrics != nil {
		c.fr.SetMetrics(s.Metrics.framer)
	}
	if s.Trace != nil {
		id := s.Trace.ConnID()
		c.traceID = id
		c.fr.SetTrace(func(sent bool, hdr frame.Header) {
			s.Trace.Frame(id, sent, hdr)
		})
		c.traceErr = func(detail string) { s.Trace.Error(id, detail) }
	}
	return c
}

// ServeConn serves one already-established connection (TCP, TLS, or an
// in-process pipe) and blocks until it ends. Close and Shutdown wait for it
// like for any connection Serve accepted.
func (s *Server) ServeConn(nc net.Conn) error {
	c := newConn(s, nc)
	if !s.track(c) {
		_ = nc.Close()
		return errClosed
	}
	// Deferred first so it runs last: the waitgroup slot is given back only
	// after the socket is closed and the gauges and trace are settled.
	defer s.untrack(c)
	defer func() {
		_ = nc.Close()
	}()
	if s.Metrics != nil {
		s.Metrics.connsAccepted.Inc()
		s.Metrics.activeConns.Add(1)
		defer c.settleOnClose()
	}
	if s.Trace != nil {
		s.Trace.ConnOpen(c.traceID, nc.RemoteAddr().String())
		defer func() { s.Trace.ConnClose(c.traceID, "") }()
	}
	return c.serve()
}

// streamState is where a server stream is in its RFC 7540 section 5.1
// life. Idle and closed streams are not in conn.streams at all; a stream
// leaves it when END_STREAM is sent or RST_STREAM is sent or received. From
// stateHeadersSent on a stream always has body left: flushHeaders and
// sendQuantum close it the moment the last byte is out.
type streamState uint8

const (
	// stateOpen: the request is decoded and its body has not ended.
	stateOpen streamState = iota
	// stateQueued: the response is built and its HEADERS is not on the wire
	// (half-closed (remote), or reserved (local) for a push).
	stateQueued
	// stateHeadersSent: HEADERS is on the wire and no DATA has gone yet.
	stateHeadersSent
	// stateDataSent: at least one DATA quantum has gone.
	stateDataSent
)

// stream is one server-side stream with a pending or in-flight response.
// Streams are pooled per connection: closeStream recycles them onto the
// conn's freelist and openStream reuses them, retaining the grown header
// buffers, so the steady-state request/response cycle allocates nothing.
// A stream with an even ID is a push.
type stream struct {
	id    uint32
	state streamState
	// window is the server's send window for this stream, embedded by value
	// so pooled reuse re-arms it with Reset instead of reallocating.
	window flowcontrol.Window
	// reqHeaders is the decoded request header list, copied from the conn's
	// decode scratch into stream-owned (pool-retained) backing.
	reqHeaders []hpack.HeaderField
	// respHeaders is the response header list. On the fast path it aliases
	// the precomputed route table and must never be mutated.
	respHeaders []hpack.HeaderField
	// body is the unsent remainder of the response payload.
	body []byte
	// zeroDataSent throttles the TinyWindowZeroData behavior to one empty
	// frame per window state.
	zeroDataSent bool
	// stalled marks a counted stream-window stall; re-armed when the window
	// grows, so each blocked period counts once.
	stalled bool
	// openedAt feeds the stream-duration histogram; zero without Metrics.
	openedAt time.Time
	// poolNext links the conn's stream freelist.
	poolNext *stream
}

type conn struct {
	srv *Server
	nc  net.Conn
	// br buffers reads from nc; the serve loop peeks it to defer the wire
	// flush while further complete frames are already buffered, so a burst
	// of pipelined requests is answered with one write.
	br  *bufio.Reader
	fr  *frame.Framer
	enc *hpack.Encoder
	dec *hpack.Decoder
	// encBuf is the HPACK encode scratch buffer, reused across response
	// header blocks; only the serve goroutine touches it (Shutdown's
	// cross-goroutine GOAWAY never encodes headers).
	encBuf []byte
	// decFields is the HPACK decode scratch: header blocks decode into it
	// and are copied to the stream's own backing before the next decode.
	decFields []hpack.HeaderField

	streams map[uint32]*stream
	// recent holds open streams by the low bits of their ID, ahead of the
	// map: the scheduler asks about every open stream on every pick, and
	// up to recentStreams consecutive client stream IDs never share a slot.
	// It is nil until recentFrom streams are open at once; from then on
	// openStream fills a slot and closeStream empties its own.
	recent *[recentStreams]*stream
	// order holds the open streams in arrival order — the maintained
	// replacement for sorting streams per scheduling pass. openStream
	// appends, closeStream removes in place.
	order []*stream
	// orderScratch is the iteration copy for passes that close streams
	// mid-loop.
	orderScratch []*stream
	// eligScratch backs the eligible-set count of egress passes that do not
	// open with a scheduler pick (see noteEgressReady).
	eligScratch []uint32
	// streamPool is the freelist of recycled stream objects, linked through
	// stream.poolNext.
	streamPool *stream
	rrCursor   int

	// readyFn and readyFirstFn are the scheduling predicates bound once at
	// conn setup (method values allocate per use).
	readyFn      func(uint32) bool
	readyFirstFn func(uint32) bool

	sendWindow *flowcontrol.Window
	recvWindow *flowcontrol.Window

	// clientInitWin tracks the client's SETTINGS_INITIAL_WINDOW_SIZE, the
	// initial send window for new streams.
	clientInitWin int64
	maxSendFrame  uint32
	clientMaxConc uint32
	pushEnabled   bool

	tree  *priority.Tree
	sched *priority.Scheduler

	nextPushID uint32
	pushOpen   int
	clientOpen int
	goingAway  bool
	// connStalled marks a counted connection-window stall; re-armed by the
	// WINDOW_UPDATE that unblocks it.
	connStalled bool
	// hb assembles the one header block a connection may have open (RFC
	// 7540 section 6.10) from the frames step reads.
	hb frame.HeaderBlock

	// traceID is the connection's ID on the trace bus; zero without Trace.
	traceID uint64
	// traceErr, when non-nil, records a connection error on the trace bus
	// (the span builder counts it per connection; h2trace prints it).
	traceErr func(detail string)

	// maxSeenClient is the highest client stream ID acted on, the GOAWAY
	// last-stream-id (RFC 7540 section 6.8) for the serve and shutdown
	// goroutines alike (c.streams is the serve goroutine's alone), hence
	// atomic.
	maxSeenClient atomic.Uint32
	// prefaced is set once the server's SETTINGS is in the framer: SETTINGS
	// is the first frame a server sends (RFC 7540 section 3.5), so a GOAWAY
	// from another goroutine has to know whether it would overtake it. Set
	// before the flush, not after: a peer that has read the SETTINGS must
	// get the GOAWAY too, and the framer's write lock keeps it behind.
	prefaced atomic.Bool
}

// announceGoAway sends Shutdown's GOAWAY(NO_ERROR) from a goroutine other
// than the connection's own; the framer serializes writes, so that is
// safe alongside the serve loop, and the explicit Flush pushes the frame
// past the coalescing buffer while the serve loop may be blocked in
// ReadFrame. The serve goroutine may instead be parked in Write on a peer
// that stopped reading, holding the framer's write lock: the write deadline,
// set before the lock is asked for, fails that Write, which frees the lock,
// and bounds this GOAWAY by the same clock.
func (c *conn) announceGoAway(deadline time.Time) {
	if !c.prefaced.Load() {
		// Still short of its SETTINGS, which no frame may precede, the
		// connection has no stream to wind down: close it.
		_ = c.nc.Close()
		return
	}
	_ = c.nc.SetWriteDeadline(deadline)
	if c.fr.WriteGoAway(c.maxSeenClient.Load(), frame.ErrCodeNo, []byte("server shutting down")) == nil {
		_ = c.fr.Flush()
	}
}

// newServerFramer builds the per-connection framer with write coalescing
// enabled: the serve loop flushes once per handled input batch, so a burst
// of response frames (HEADERS+DATA fan-out across streams) reaches the wire
// in a single write instead of one write per frame. Reads go through the
// connection's buffered reader so the serve loop can see whether further
// frames are already pending.
func newServerFramer(w io.Writer, r io.Reader) *frame.Framer {
	fr := frame.NewFramer(w, r)
	fr.SetWriteBuffering(0)
	return fr
}

func newResponseEncoder(p *Profile) *hpack.Encoder {
	if p.HPACKPolicy == hpack.PolicyIndexPartial {
		return hpack.NewPartialEncoder(p.HPACKPartialFraction, p.HPACKPartialSalt)
	}
	return hpack.NewEncoder(p.HPACKPolicy)
}

func (c *conn) serve() error {
	if err := c.readPreface(); err != nil {
		return err
	}
	if err := c.fr.WriteSettings(c.srv.profile.settings()...); err != nil {
		return err
	}
	c.prefaced.Store(true)
	if boost := c.srv.profile.ConnWindowBoost; boost > 0 {
		if err := c.fr.WriteWindowUpdate(0, boost); err != nil {
			return err
		}
		// Track our own receive window so incoming DATA accounting stays
		// consistent with what we advertised.
		_ = c.recvWindow.Increase(boost)
	}
	// SETTINGS and the optional window boost coalesce into one write.
	if err := c.fr.Flush(); err != nil {
		return err
	}
	for {
		stop, err := c.step()
		if stop || err != nil {
			return err
		}
	}
}

// step reads, assembles and handles one frame; a connection error from any
// of the three draws GOAWAY. When the read buffer holds no further complete
// frame, it also runs the egress scheduler and flushes the batch to the wire
// — so a burst of pipelined input frames is answered with one scheduling pass
// and one write.
func (c *conn) step() (stop bool, _ error) {
	f, err := c.fr.ReadFrame()
	if err == nil {
		f, err = c.hb.Add(f)
	}
	if err == nil {
		err = c.handleFrame(f)
	}
	if err != nil {
		var ce frame.ConnError
		if errors.As(err, &ce) {
			_ = c.goAway(ce.Code, ce.Reason)
			return true, nil
		}
		var se frame.StreamError
		if errors.As(err, &se) {
			if c.resetStream(se.StreamID, se.Code) == nil {
				_ = c.fr.Flush()
			}
			return false, nil
		}
		if errors.Is(err, frame.ErrFrameTooLarge) {
			// RFC 7540 section 4.2; the payload is still on the wire, so
			// there is no reading past it.
			_ = c.goAway(frame.ErrCodeFrameSize, "frame exceeds SETTINGS_MAX_FRAME_SIZE")
			return true, nil
		}
		if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
			return true, nil
		}
		return true, err
	}
	if c.goingAway {
		return true, c.fr.Flush()
	}
	if c.frameBuffered() {
		// More input is already here: keep handling before scheduling
		// egress, so the whole batch coalesces into one write.
		return false, nil
	}
	if err := c.flushEgress(); err != nil {
		return true, err
	}
	return false, c.fr.Flush()
}

// frameBuffered reports whether the read buffer already holds one complete
// frame. It never blocks: the peek only runs when the header is already
// buffered, and a frame larger than the buffer window simply reports false
// (the flush happens, then the read path blocks as usual).
func (c *conn) frameBuffered() bool {
	if c.br.Buffered() < frame.HeaderLen {
		return false
	}
	hdr, err := c.br.Peek(frame.HeaderLen)
	if err != nil {
		return false
	}
	payload := int(hdr[0])<<16 | int(hdr[1])<<8 | int(hdr[2])
	return c.br.Buffered() >= frame.HeaderLen+payload
}

func (c *conn) readPreface() error {
	buf := make([]byte, len(frame.ClientPreface))
	if _, err := io.ReadFull(c.br, buf); err != nil {
		return fmt.Errorf("server: reading preface: %w", err)
	}
	if string(buf) != frame.ClientPreface {
		return errors.New("server: bad client preface")
	}
	return nil
}

// goAway emits GOAWAY and marks the connection for teardown. It flushes,
// since every caller tears the connection down right after.
func (c *conn) goAway(code frame.ErrCode, debug string) error {
	c.goingAway = true
	if c.traceErr != nil && code != frame.ErrCodeNo {
		c.traceErr(debug)
	}
	var debugData []byte
	if debug != "" {
		debugData = []byte(debug)
	}
	if err := c.fr.WriteGoAway(c.maxSeenClient.Load(), code, debugData); err != nil {
		return err
	}
	return c.fr.Flush()
}

func (c *conn) handleFrame(f frame.Frame) error {
	switch f := f.(type) {
	case nil:
		return nil // a header block is open
	case *frame.SettingsFrame:
		return c.handleSettings(f)
	case *frame.HeadersFrame:
		return c.endHeaderBlock(f)
	case *frame.DataFrame:
		return c.handleData(f)
	case *frame.PriorityFrame:
		return c.handlePriority(f)
	case *frame.WindowUpdateFrame:
		return c.handleWindowUpdate(f)
	case *frame.PingFrame:
		return c.handlePing(f)
	case *frame.RSTStreamFrame:
		c.closeStream(f.Header().StreamID)
		return nil
	case *frame.GoAwayFrame:
		c.goingAway = true
		return nil
	case *frame.PushPromiseFrame:
		return frame.ConnError{Code: frame.ErrCodeProtocol, Reason: "client sent PUSH_PROMISE"}
	default:
		// Unknown frame types must be ignored (RFC 7540 section 4.1).
		return nil
	}
}

func (c *conn) handleSettings(f *frame.SettingsFrame) error {
	if f.IsAck() {
		return nil
	}
	for _, s := range f.Settings {
		if err := s.Valid(); err != nil {
			return err
		}
		switch s.ID {
		case frame.SettingInitialWindowSize:
			delta := int64(s.Val) - c.clientInitWin
			c.clientInitWin = int64(s.Val)
			for _, st := range c.streams {
				if err := st.window.Adjust(delta); err != nil {
					return frame.ConnError{Code: frame.ErrCodeFlowControl, Reason: err.Error()}
				}
				st.zeroDataSent = false
				if delta > 0 {
					st.stalled = false
				}
			}
		case frame.SettingMaxFrameSize:
			c.maxSendFrame = s.Val
		case frame.SettingHeaderTableSize:
			c.enc.SetMaxDynamicTableSize(s.Val)
		case frame.SettingMaxConcurrentStreams:
			c.clientMaxConc = s.Val
		case frame.SettingEnablePush:
			c.pushEnabled = s.Val == 1
		}
	}
	return c.fr.WriteSettingsAck()
}

// endHeaderBlock takes a whole header block from hb and decodes it first,
// whatever becomes of its stream: every block moves the connection's HPACK
// table in step with the client's encoder (RFC 7540 section 4.3). Only then is
// the block one of four things — a self-dependency the profile reacts to, a
// refused stream, trailers, or a new request. A block that opens no stream
// goes no further.
func (c *conn) endHeaderBlock(f *frame.HeadersFrame) error {
	id, flags := f.Header().StreamID, f.Header().Flags
	if id%2 == 0 {
		return frame.ConnError{Code: frame.ErrCodeProtocol, Reason: "client used even stream ID"}
	}
	fields, err := c.dec.DecodeAppend(c.decFields[:0], f.Fragment)
	c.decFields = fields
	if err != nil {
		return frame.ConnError{Code: frame.ErrCodeCompression, Reason: err.Error()}
	}
	if flags.Has(frame.FlagPriority) && f.Priority.StreamDep == id {
		return c.reactSelfDependency(id)
	}
	st, ok := c.stream(id)
	if !ok {
		// RFC 7540 section 5.1.1: the ID of a new stream is above every ID
		// the client has used; anything else is not a second request.
		if id <= c.maxSeenClient.Load() {
			return frame.ConnError{Code: frame.ErrCodeProtocol, Reason: "stream ID not above the highest one used"}
		}
		c.maxSeenClient.Store(id)
		if p := &c.srv.profile; p.AdvertiseMaxStreams && uint32(c.clientOpen) >= p.MaxConcurrentStreams {
			return c.fr.WriteRSTStream(id, frame.ErrCodeRefusedStream)
		}
		st = c.openStream(id)
	}
	if flags.Has(frame.FlagPriority) {
		// Cannot fail: the stream is nonzero and not its own parent.
		_ = c.tree.Update(id, priority.Param{
			StreamDep: f.Priority.StreamDep,
			Exclusive: f.Priority.Exclusive,
			Weight:    f.Priority.Weight,
		})
	}
	if ok {
		// Trailers (RFC 7540 section 8.1) end the request, which is answered
		// from the block that opened the stream.
		if st.state == stateOpen && flags.Has(frame.FlagEndStream) {
			c.respond(st)
		}
		return nil
	}
	// Copy the field list into stream-owned backing: the decode scratch is
	// clobbered by the next header block on this connection, and a request
	// may respond later (POST bodies).
	st.reqHeaders = append(st.reqHeaders[:0], fields...)
	if flags.Has(frame.FlagEndStream) || requestMethod(fields) == "GET" {
		c.respond(st)
	}
	if boost := c.srv.profile.StreamWindowBoost; boost > 0 {
		return c.fr.WriteWindowUpdate(id, boost)
	}
	return nil
}

func requestMethod(fields []hpack.HeaderField) string {
	for _, f := range fields {
		if f.Name == ":method" {
			return f.Value
		}
	}
	return ""
}

func requestPath(fields []hpack.HeaderField) string {
	for _, f := range fields {
		if f.Name == ":path" {
			return f.Value
		}
	}
	return "/"
}

// openStream creates the stream for a new id, recycled from the conn's pool
// when it can be, in stateOpen; it joins the tail of the arrival order.
func (c *conn) openStream(id uint32) *stream {
	st := c.streamPool
	if st != nil {
		c.streamPool = st.poolNext
		*st = stream{id: id, reqHeaders: st.reqHeaders[:0]}
	} else {
		st = &stream{id: id}
	}
	// New streams start at the client's advertised initial window size.
	st.window.Reset(c.clientInitWin)
	if m := c.srv.Metrics; m != nil {
		m.streamsOpened.Inc()
		m.activeStreams.Add(1)
		st.openedAt = time.Now()
	}
	c.streams[id] = st
	c.order = append(c.order, st)
	if c.recent == nil && len(c.order) >= recentFrom {
		c.recent = new([recentStreams]*stream)
		for _, o := range c.order {
			c.recent[recentSlot(o.id)] = o
		}
	}
	if c.recent != nil {
		c.recent[recentSlot(id)] = st
	}
	if !c.tree.Contains(id) {
		_ = c.tree.Add(id, priority.Param{Weight: priority.DefaultWeight})
	}
	if id%2 == 0 {
		c.pushOpen++
	} else {
		c.clientOpen++
	}
	return st
}

// stream returns the open stream id.
func (c *conn) stream(id uint32) (*stream, bool) {
	if c.recent != nil {
		if st := c.recent[recentSlot(id)]; st != nil && st.id == id {
			return st, true
		}
	}
	st, ok := c.streams[id]
	return st, ok
}

// recentStreams is the number of conn.recent slots, a power of two.
// recentFrom is the number of open streams that has a connection allocate
// them: below it a pick asks few enough to leave it to the map, and a
// census connection, which seldom opens more than two, keeps the memory.
const (
	recentStreams = 64
	recentFrom    = 8
)

// recentSlot is stream id's slot in conn.recent.
func recentSlot(id uint32) uint32 { return id >> 1 & (recentStreams - 1) }

func (c *conn) closeStream(id uint32) {
	st, ok := c.stream(id)
	if !ok {
		return
	}
	delete(c.streams, id)
	if c.recent != nil && c.recent[recentSlot(id)] == st {
		c.recent[recentSlot(id)] = nil
	}
	for i, o := range c.order {
		if o == st {
			copy(c.order[i:], c.order[i+1:])
			c.order[len(c.order)-1] = nil
			c.order = c.order[:len(c.order)-1]
			break
		}
	}
	if m := c.srv.Metrics; m != nil {
		if st.state >= stateQueued {
			m.egressQueue.Add(-1)
		}
		m.activeStreams.Add(-1)
		m.streamDuration.Observe(int64(time.Since(st.openedAt)))
	}
	c.tree.Remove(id)
	if id%2 == 0 {
		c.pushOpen--
	} else {
		c.clientOpen--
	}
	// Recycle: drop aliases into the route table and response bodies, keep
	// the grown request-header backing for the next stream.
	st.respHeaders = nil
	st.body = nil
	st.poolNext = c.streamPool
	c.streamPool = st
}

// resetStream sends RST_STREAM, which closes the stream (RFC 7540 section
// 5.1): nothing more is sent on it.
func (c *conn) resetStream(id uint32, code frame.ErrCode) error {
	c.closeStream(id)
	return c.fr.WriteRSTStream(id, code)
}

// respond builds the response for an open request stream and queues any
// pushes. Every response comes from the compiled route table; a path absent
// from it is a 404.
func (c *conn) respond(st *stream) {
	if !c.dispatchRequest(st, requestPath(st.reqHeaders)) {
		e := &c.srv.routes.notFound
		c.queue(st, e.fields, e.res.Body)
	}
	// A HEAD response is the header block the GET would draw, content-length
	// included, and no DATA (RFC 7540 section 8.1, RFC 7231 section 4.3.2):
	// with no body queued the HEADERS frame carries END_STREAM.
	if requestMethod(st.reqHeaders) == "HEAD" {
		st.body = nil
	}
}

// queue is a stream's one way into stateQueued, from stateOpen for a request
// and straight after openStream for a push; the queue-depth gauge counts it
// here and closeStream takes it back.
func (c *conn) queue(st *stream, fields []hpack.HeaderField, body []byte) {
	st.respHeaders, st.body, st.state = fields, body, stateQueued
	if m := c.srv.Metrics; m != nil {
		m.egressQueue.Add(1)
	}
}

// dispatchRequest resolves path through the compiled route table and queues
// the prebuilt response, reporting false on a table miss. This is the
// zero-alloc HEADERS→response dispatch: one map lookup, slice aliasing,
// and gauge arithmetic — no string churn.
func (c *conn) dispatchRequest(st *stream, path string) bool {
	e := c.srv.routes.lookup(path)
	if e == nil {
		return false
	}
	c.queue(st, e.fields, e.res.Body)
	if len(e.pushes) > 0 && c.srv.profile.EnablePush && c.pushEnabled {
		c.queuePushes(st, e)
	}
	return true
}

// queuePushes emits PUSH_PROMISE frames for the route's resolved push
// manifest and queues the pushed responses.
func (c *conn) queuePushes(parent *stream, e *routeEntry) {
	rt := c.srv.routes
	for i := range e.pushes {
		pr := &e.pushes[i]
		if uint32(c.pushOpen) >= c.clientMaxConc {
			return
		}
		promiseID := c.nextPushID
		c.nextPushID += 2
		c.encBuf = c.enc.AppendBlock(c.encBuf[:0], pr.reqFields)
		if err := c.fr.WritePushPromise(parent.id, promiseID, true, c.encBuf); err != nil {
			return
		}
		ps := c.openStream(promiseID)
		// Pushed streams depend on the associated request stream
		// (RFC 7540 section 5.3.5 default prioritization).
		_ = c.tree.Update(promiseID, priority.Param{StreamDep: parent.id, Weight: priority.DefaultWeight})
		target := &rt.entries[pr.target]
		c.queue(ps, target.fields, target.res.Body)
	}
}

func (c *conn) handleData(f *frame.DataFrame) error {
	n := int64(f.FlowControlLen())
	if err := c.recvWindow.Consume(n); err != nil {
		return frame.ConnError{Code: frame.ErrCodeFlowControl, Reason: "connection flow-control window exceeded"}
	}
	if st, ok := c.stream(f.Header().StreamID); ok && st.state == stateOpen && f.StreamEnded() {
		c.respond(st)
	}
	return nil
}

func (c *conn) reactSelfDependency(id uint32) error {
	switch c.srv.profile.SelfDependency {
	case ReactRSTStream:
		return c.resetStream(id, frame.ErrCodeProtocol)
	case ReactGoAway:
		return c.goAway(frame.ErrCodeProtocol, "stream cannot depend on itself")
	default:
		return nil
	}
}

func (c *conn) handlePriority(f *frame.PriorityFrame) error {
	id := f.Header().StreamID
	if f.Priority.StreamDep == id {
		return c.reactSelfDependency(id)
	}
	return c.tree.Update(id, priority.Param{
		StreamDep: f.Priority.StreamDep,
		Exclusive: f.Priority.Exclusive,
		Weight:    f.Priority.Weight,
	})
}

func (c *conn) handleWindowUpdate(f *frame.WindowUpdateFrame) error {
	id := f.Header().StreamID
	p := c.srv.profile
	if f.Increment == 0 {
		if id == 0 {
			switch p.ZeroWindowUpdateConn {
			case ReactGoAway:
				debug := ""
				if p.ZeroWindowDebugData {
					debug = "window update shouldn't be zero"
				}
				return c.goAway(frame.ErrCodeProtocol, debug)
			default:
				return nil
			}
		}
		switch p.ZeroWindowUpdateStream {
		case ReactRSTStream:
			return c.resetStream(id, frame.ErrCodeProtocol)
		case ReactGoAway:
			return c.goAway(frame.ErrCodeProtocol, "")
		default:
			return nil
		}
	}

	if id == 0 {
		if err := c.sendWindow.Increase(f.Increment); err != nil {
			if errors.Is(err, flowcontrol.ErrWindowOverflow) {
				switch p.LargeWindowUpdateConn {
				case ReactGoAway:
					return c.goAway(frame.ErrCodeFlowControl, "")
				default:
					return nil
				}
			}
			return err
		}
		c.resetZeroDataFlags()
		c.connStalled = false
		return nil
	}
	st, ok := c.stream(id)
	if !ok {
		return nil // closed or idle stream: tolerate (RFC section 5.1)
	}
	if err := st.window.Increase(f.Increment); err != nil {
		if errors.Is(err, flowcontrol.ErrWindowOverflow) {
			switch p.LargeWindowUpdateStream {
			case ReactRSTStream:
				return c.resetStream(id, frame.ErrCodeFlowControl)
			case ReactGoAway:
				return c.goAway(frame.ErrCodeFlowControl, "")
			default:
				return nil
			}
		}
		return err
	}
	st.zeroDataSent = false
	st.stalled = false
	return nil
}

func (c *conn) resetZeroDataFlags() {
	for _, st := range c.streams {
		st.zeroDataSent = false
	}
}

func (c *conn) handlePing(f *frame.PingFrame) error {
	if f.IsAck() || !c.srv.profile.AnswerPing {
		return nil
	}
	// RFC 7540 section 6.7: PING responses get higher priority than any
	// other frame, so the ACK is written immediately, ahead of queued DATA.
	return c.fr.WritePing(true, f.Data)
}
