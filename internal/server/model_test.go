package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/h2conn"
	"h2scope/internal/hpack"
	"h2scope/internal/netsim"
)

// The model-based test of the server's stream life (RFC 7540 section 5.1).
// A seeded client sends random frame sequences through h2conn; a table model
// says after every frame what the server owes each stream — a response with
// the route body for the stream's own :path, a reset, or nothing — and holds
// every DATA frame to the windows the client advertised. After each frame
// two PING round trips make the server quiescent, so what has arrived by the
// second ACK is everything the frame drew.

// modelStream is the model's row for one stream.
type modelStream struct {
	method, path string
	// want and status are the response the stream's request draws.
	want   []byte
	status string
	// clientEnded: the client sent END_STREAM. owed: the server owes a
	// response (the request is complete, or is a GET). live: the stream is
	// in the server's table.
	clientEnded, owed, live bool
	// window is the server's send window: advertised minus DATA received.
	// recv is what the client may still send on it.
	window, recv int64
	// rst is the RST_STREAM code the last frame must draw, when rstDue.
	rst    frame.ErrCode
	rstDue bool
	// What arrived.
	gotHeaders, ended, reset bool
	body                     []byte
}

// openBlock is a header block whose END_HEADERS is still to be sent.
type openBlock struct {
	id    uint32
	rest  [][]byte
	ended func()
}

type streamModel struct {
	t       testing.TB
	p       Profile
	site    *Site
	rng     *rand.Rand
	c       *h2conn.Conn
	enc     *hpack.Encoder
	streams map[uint32]*modelStream
	// initWin is the client's SETTINGS_INITIAL_WINDOW_SIZE; connWin the
	// server's connection send window; connRecv what the client may still
	// send on the connection.
	initWin, connWin, connRecv int64
	maxSeen, nextID            uint32
	next                       int
	block                      *openBlock
	// mayEnd lets the sequence hold the frames that draw GOAWAY, which end
	// it; goAwayDue says the last frame must draw one.
	mayEnd, goAwayDue, goAway bool
	pings                     byte
	ops                       []string
}

// modelPaths are the request paths: small, large, a push manifest, misses.
var modelPaths = []string{"/", "/about.html", "/about.html", "/static/style.css", "/large/1", "/drain/16k", "/missing", "/about.html?q=1"}

// runStreamModel drives one seeded sequence of ops frames against p over an
// in-memory pipe and returns the bytes the client wrote after the preface.
func runStreamModel(t testing.TB, p Profile, seed int64, ops int) []byte {
	site := DefaultSite("model.example")
	srv := New(p, site)
	clientNC, serverNC := netsim.Pipe()
	rec := &recordingConn{Conn: clientNC}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.ServeConn(serverNC)
	}()
	c, err := h2conn.Dial(rec, h2conn.Options{AutoSettingsAck: true, AutoPingAck: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = c.Close()
		<-served
		srv.Close()
	}()
	m := &streamModel{
		t: t, p: p, site: site, rng: rand.New(rand.NewSource(seed)), c: c,
		enc:      hpack.NewEncoder(hpack.PolicyIndexAll),
		streams:  map[uint32]*modelStream{},
		initWin:  frame.DefaultInitialWindowSize,
		connWin:  frame.DefaultInitialWindowSize,
		connRecv: frame.DefaultInitialWindowSize + int64(p.ConnWindowBoost),
		nextID:   1,
		mayEnd:   seed%3 == 0,
	}
	// The server's SETTINGS draws h2conn's ACK, which must not land inside
	// a header block.
	if _, err := c.WaitSettings(testTimeoutModel); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ops && !m.goAway; i++ {
		m.step()
	}
	for m.block != nil && !m.goAway {
		m.continueBlock()
	}
	if !m.goAway {
		m.drain()
	}
	return rec.written()[len(frame.ClientPreface):]
}

func (m *streamModel) fail(format string, args ...any) {
	m.t.Helper()
	tail := m.ops[max(len(m.ops)-12, 0):]
	m.t.Fatalf("%s, op %d: %s\nlast ops:\n  %s", m.p.Family, len(m.ops), fmt.Sprintf(format, args...), strings.Join(tail, "\n  "))
}

func (m *streamModel) logOp(format string, args ...any) {
	m.ops = append(m.ops, fmt.Sprintf(format, args...))
}

func (m *streamModel) check(err error) {
	m.t.Helper()
	if err != nil {
		m.fail("write: %v", err)
	}
}

// step sends one frame and checks what it drew.
func (m *streamModel) step() {
	if m.block != nil {
		m.continueBlock()
	} else {
		switch r := m.rng.Intn(100); {
		case r < 28:
			m.request()
		case r < 36:
			m.trailers()
		case r < 50:
			m.data()
		case r < 56:
			m.reset()
		case r < 72:
			m.windowUpdate()
		case r < 80:
			m.initialWindow()
		case r < 99:
			m.priority()
		default:
			m.staleHeaders()
		}
	}
	if m.block == nil {
		m.settle()
	}
}

// ids returns the model's stream IDs in order, so a seed replays exactly.
func (m *streamModel) ids() []uint32 {
	ids := make([]uint32, 0, len(m.streams))
	for id := range m.streams {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// pick returns a random stream satisfying ok, or 0.
func (m *streamModel) pick(ok func(id uint32, st *modelStream) bool) uint32 {
	var ids []uint32
	for _, id := range m.ids() {
		if ok(id, m.streams[id]) {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return 0
	}
	return ids[m.rng.Intn(len(ids))]
}

// openRequest is a client stream whose request the client has not ended.
func openRequest(id uint32, st *modelStream) bool { return id%2 == 1 && st.live && !st.clientEnded }

func live(_ uint32, st *modelStream) bool { return st.live }

// row returns the model's row for id, adding an empty one.
func (m *streamModel) row(id uint32) *modelStream {
	st := m.streams[id]
	if st == nil {
		st = &modelStream{}
		m.streams[id] = st
	}
	return st
}

func (m *streamModel) clientOpen() uint32 {
	n := uint32(0)
	for id, st := range m.streams {
		if id%2 == 1 && st.live {
			n++
		}
	}
	return n
}

// response fills in what a request for path draws.
func (m *streamModel) response(st *modelStream) {
	st.status, st.want = "404", notFoundBody
	if res, ok := m.site.Lookup(st.path); ok {
		st.status, st.want = "200", res.Body
	}
	if st.method == "HEAD" {
		st.want = nil
	}
}

// sendBlock writes a header block as HEADERS, sometimes split across
// CONTINUATION frames; ended runs once END_HEADERS is on the wire.
func (m *streamModel) sendBlock(id uint32, fields []hpack.HeaderField, endStream bool, prio *frame.PriorityParam, ended func()) {
	block := m.enc.AppendBlock(nil, fields)
	var rest [][]byte
	if len(block) > 2 && m.rng.Intn(4) == 0 {
		cut := 1 + m.rng.Intn(len(block)-1)
		block, rest = block[:cut], [][]byte{block[cut:]}
		if r := rest[0]; len(r) > 1 && m.rng.Intn(2) == 0 {
			cut := 1 + m.rng.Intn(len(r)-1)
			rest = [][]byte{r[:cut], r[cut:]}
		}
	}
	var flags frame.Flags
	var payload []byte
	if endStream {
		flags |= frame.FlagEndStream
	}
	if len(rest) == 0 {
		flags |= frame.FlagEndHeaders
	}
	if prio != nil {
		flags |= frame.FlagPriority
		dep := prio.StreamDep
		if prio.Exclusive {
			dep |= 1 << 31
		}
		payload = append(payload, byte(dep>>24), byte(dep>>16), byte(dep>>8), byte(dep), prio.Weight)
	}
	m.check(m.c.WriteRawFrame(frame.TypeHeaders, flags, id, append(payload, block...)))
	if len(rest) == 0 {
		ended()
		return
	}
	m.block = &openBlock{id: id, rest: rest, ended: ended}
}

func (m *streamModel) continueBlock() {
	b := m.block
	frag := b.rest[0]
	b.rest = b.rest[1:]
	var flags frame.Flags
	if len(b.rest) == 0 {
		flags = frame.FlagEndHeaders
	}
	m.logOp("CONTINUATION stream %d flags %#x", b.id, flags)
	m.check(m.c.WriteRawFrame(frame.TypeContinuation, flags, b.id, frag))
	if len(b.rest) == 0 {
		m.block = nil
		b.ended()
	}
}

func (m *streamModel) requestFields(method, path string) []hpack.HeaderField {
	fields := []hpack.HeaderField{
		{Name: ":method", Value: method},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: m.site.Domain},
		{Name: ":path", Value: path},
	}
	if m.rng.Intn(2) == 0 {
		// A small set of values, so later blocks refer to entries earlier
		// blocks (refused ones too) inserted.
		fields = append(fields, hpack.HeaderField{Name: "x-model", Value: strconv.Itoa(m.rng.Intn(6))})
	}
	return fields
}

// request opens the next stream: HEADERS ±END_STREAM ±END_HEADERS, now and
// then depending on itself.
func (m *streamModel) request() {
	id := m.nextID
	m.nextID += 2
	method := []string{"GET", "GET", "GET", "POST", "POST", "HEAD"}[m.rng.Intn(6)]
	path := modelPaths[m.rng.Intn(len(modelPaths))]
	endStream := m.rng.Intn(4) != 0
	if method == "POST" {
		endStream = m.rng.Intn(3) == 0
	}
	var prio *frame.PriorityParam
	selfDep := m.rng.Intn(16) == 0 && (m.mayEnd || m.p.SelfDependency != ReactGoAway)
	switch {
	case selfDep:
		prio = &frame.PriorityParam{StreamDep: id, Weight: uint8(m.rng.Intn(256))}
	case m.rng.Intn(5) == 0:
		prio = &frame.PriorityParam{StreamDep: m.pick(live), Exclusive: m.rng.Intn(3) == 0, Weight: uint8(m.rng.Intn(256))}
	}
	m.logOp("HEADERS stream %d %s %s end_stream=%v self_dep=%v", id, method, path, endStream, selfDep)
	m.sendBlock(id, m.requestFields(method, path), endStream, prio, func() {
		if selfDep {
			m.selfDependency(id)
			return
		}
		m.maxSeen = id
		if m.p.AdvertiseMaxStreams && m.clientOpen() >= m.p.MaxConcurrentStreams {
			m.streams[id] = &modelStream{rst: frame.ErrCodeRefusedStream, rstDue: true}
			return
		}
		st := &modelStream{method: method, path: path, live: true}
		m.streams[id] = st
		st.clientEnded = endStream
		st.owed = endStream || method == "GET"
		st.window = m.initWin
		st.recv = int64(m.p.InitialWindowSize) + int64(m.p.StreamWindowBoost)
		m.response(st)
	})
}

// selfDependency applies the profile's reaction to a stream made to depend
// on itself: a reset stream is closed.
func (m *streamModel) selfDependency(id uint32) {
	switch m.p.SelfDependency {
	case ReactRSTStream:
		st := m.row(id)
		st.rst, st.rstDue, st.live = frame.ErrCodeProtocol, true, false
	case ReactGoAway:
		m.goAwayDue = true
	}
}

// trailers ends (or does not end) an open request with a trailer block.
func (m *streamModel) trailers() {
	id := m.pick(openRequest)
	if id == 0 {
		return
	}
	endStream := m.rng.Intn(5) != 0
	fields := []hpack.HeaderField{{Name: "x-checksum", Value: strconv.Itoa(m.rng.Intn(4))}}
	m.logOp("HEADERS (trailers) stream %d end_stream=%v", id, endStream)
	m.sendBlock(id, fields, endStream, nil, func() {
		if endStream {
			st := m.streams[id]
			st.clientEnded, st.owed = true, true
		}
	})
}

func (m *streamModel) data() {
	id := m.pick(openRequest)
	if id == 0 {
		return
	}
	st := m.streams[id]
	n := min(int64(m.rng.Intn(65)), m.connRecv, st.recv)
	end := m.rng.Intn(5) < 2
	m.logOp("DATA stream %d len %d end_stream=%v", id, n, end)
	m.check(m.c.WriteData(id, end, bytes.Repeat([]byte{'d'}, int(n))))
	m.connRecv -= n
	st.recv -= n
	if end {
		st.clientEnded, st.owed = true, true
	}
}

func (m *streamModel) reset() {
	id := m.pick(live)
	if id == 0 {
		return
	}
	m.logOp("RST_STREAM stream %d", id)
	m.check(m.c.WriteRSTStream(id, frame.ErrCodeCancel))
	st := m.streams[id]
	st.live, st.reset = false, true
}

func (m *streamModel) windowUpdate() {
	inc := int64(1 + m.rng.Intn(40000))
	id := uint32(0)
	if m.rng.Intn(2) == 0 {
		id = m.pick(func(_ uint32, st *modelStream) bool { return st.live || m.rng.Intn(8) == 0 })
	}
	m.logOp("WINDOW_UPDATE stream %d +%d", id, inc)
	m.check(m.c.WriteWindowUpdate(id, uint32(inc)))
	if id == 0 {
		m.connWin += inc
	} else if st := m.streams[id]; st.live {
		st.window += inc
	}
}

func (m *streamModel) initialWindow() {
	v := int64([]int{0, 1 + m.rng.Intn(100), m.rng.Intn(131072)}[m.rng.Intn(3)])
	m.logOp("SETTINGS_INITIAL_WINDOW_SIZE %d", v)
	m.check(m.c.WriteSettings(frame.Setting{ID: frame.SettingInitialWindowSize, Val: uint32(v)}))
	for _, st := range m.streams {
		if st.live {
			st.window += v - m.initWin
		}
	}
	m.initWin = v
}

func (m *streamModel) priority() {
	id := m.pick(func(_ uint32, st *modelStream) bool { return st.live || m.rng.Intn(4) == 0 })
	if id == 0 || m.rng.Intn(6) == 0 {
		id = m.nextID
	}
	if m.rng.Intn(12) == 0 && (m.mayEnd || m.p.SelfDependency != ReactGoAway) {
		m.logOp("PRIORITY stream %d on itself", id)
		m.check(m.c.WritePriority(id, frame.PriorityParam{StreamDep: id, Weight: 15}))
		m.selfDependency(id)
		return
	}
	dep := m.pick(func(uint32, *modelStream) bool { return true })
	if dep == id {
		dep = 0
	}
	m.logOp("PRIORITY stream %d on %d", id, dep)
	m.check(m.c.WritePriority(id, frame.PriorityParam{StreamDep: dep, Exclusive: m.rng.Intn(3) == 0, Weight: uint8(m.rng.Intn(256))}))
}

// staleHeaders opens a stream whose ID is not above the highest used: a
// connection error (RFC 7540 section 5.1.1).
func (m *streamModel) staleHeaders() {
	id := m.pick(func(id uint32, st *modelStream) bool { return id%2 == 1 && !st.live && id <= m.maxSeen })
	if id == 0 || !m.mayEnd {
		return
	}
	m.logOp("HEADERS stream %d, not above %d", id, m.maxSeen)
	m.sendBlock(id, m.requestFields("GET", "/about.html"), true, nil, func() { m.goAwayDue = true })
}

// settle waits for the server to be quiescent and folds what arrived.
func (m *streamModel) settle() {
	if m.goAwayDue {
		if _, err := m.c.Wait(m.next, testTimeoutModel, func(e h2conn.Event) bool { return e.Type == frame.TypeGoAway }); err != nil {
			m.fail("no GOAWAY: %v", err)
		}
		m.fold()
		if !m.goAway {
			m.fail("GOAWAY did not arrive")
		}
		return
	}
	for range 2 {
		m.pings++
		if _, err := m.c.Ping([8]byte{7: m.pings}, testTimeoutModel); err != nil {
			m.fold()
			m.fail("fence PING: %v", err)
		}
	}
	m.fold()
	for id, st := range m.streams {
		if st.rstDue {
			m.fail("stream %d: no RST_STREAM(%v)", id, st.rst)
		}
	}
}

const testTimeoutModel = 5 * time.Second

// fold checks every event that arrived since the last fold.
func (m *streamModel) fold() {
	_, _ = m.c.Wait(m.next, 0, func(e h2conn.Event) bool {
		m.next = e.Seq + 1
		m.observe(e)
		return false
	})
}

func (m *streamModel) observe(e h2conn.Event) {
	m.t.Helper()
	st := m.streams[e.StreamID]
	switch e.Type {
	case frame.TypeHeaders:
		if st == nil || !st.live || !st.owed || st.gotHeaders {
			m.fail("HEADERS on stream %d, which owes no response (%+v)", e.StreamID, st)
		}
		st.gotHeaders = true
		if got := (&h2conn.Response{Headers: e.Headers}).Status(); got != st.status {
			m.fail("stream %d (%s %s): status %q, want %q", e.StreamID, st.method, st.path, got, st.status)
		}
		if e.StreamEnded() {
			m.end(e.StreamID, st)
		}
	case frame.TypeData:
		if st == nil || !st.live || !st.gotHeaders {
			m.fail("DATA on stream %d, which has no response under way", e.StreamID)
		}
		n := int64(len(e.Data))
		st.body = append(st.body, e.Data...)
		if !bytes.HasPrefix(st.want, st.body) {
			m.fail("stream %d (%s %s): %d body bytes are not the route's %d", e.StreamID, st.method, st.path, len(st.body), len(st.want))
		}
		st.window -= n
		m.connWin -= n
		if n > 0 && (st.window < 0 || m.connWin < 0) {
			m.fail("stream %d: DATA past the advertised window (stream %d, connection %d)", e.StreamID, st.window, m.connWin)
		}
		if e.StreamEnded() {
			m.end(e.StreamID, st)
		}
	case frame.TypePushPromise:
		path := (&h2conn.Response{Headers: e.Headers}).Header(":path")
		if !m.p.EnablePush || st == nil || !st.live || !st.owed || !m.manifests(st.path, path) ||
			e.PromiseID%2 != 0 || m.streams[e.PromiseID] != nil {
			m.fail("PUSH_PROMISE of %s as stream %d on stream %d", path, e.PromiseID, e.StreamID)
		}
		ps := &modelStream{method: "GET", path: path, owed: true, live: true, window: m.initWin}
		m.response(ps)
		m.streams[e.PromiseID] = ps
	case frame.TypeRSTStream:
		if st == nil || !st.rstDue || e.ErrCode != st.rst {
			m.fail("RST_STREAM(%v) on stream %d, not due", e.ErrCode, e.StreamID)
		}
		st.rstDue, st.live, st.reset = false, false, true
	case frame.TypeGoAway:
		if !m.goAwayDue || e.ErrCode != frame.ErrCodeProtocol {
			m.fail("GOAWAY(%v) %q, not due", e.ErrCode, e.DebugData)
		}
		m.goAway = true
	}
}

// manifests reports whether the site pushes pushed with page.
func (m *streamModel) manifests(page, pushed string) bool {
	res, ok := m.site.Lookup(page)
	return ok && slices.Contains(res.Push, pushed)
}

func (m *streamModel) end(id uint32, st *modelStream) {
	if !bytes.Equal(st.body, st.want) {
		m.fail("stream %d (%s %s): END_STREAM after %d of %d bytes", id, st.method, st.path, len(st.body), len(st.want))
	}
	st.ended, st.live = true, false
}

// drain ends every open request and opens every window as far as the
// responses owed need, then requires each of them whole.
func (m *streamModel) drain() {
	for round := 0; round < 8; round++ {
		var conn int64
		for _, id := range m.ids() {
			st := m.streams[id]
			if !st.live {
				continue
			}
			if !st.clientEnded && id%2 == 1 {
				m.logOp("DATA stream %d len 0 end_stream=true (drain)", id)
				m.check(m.c.WriteData(id, true, nil))
				st.clientEnded, st.owed = true, true
			}
			// One octet more than the body needs: a profile that holds
			// HEADERS to flow control sends nothing at a zero window.
			need := int64(len(st.want)-len(st.body)) + 1
			conn += need
			if inc := need - st.window; inc > 0 {
				m.check(m.c.WriteWindowUpdate(id, uint32(inc)))
				st.window += inc
			}
		}
		if conn == 0 {
			break
		}
		if inc := conn - m.connWin; inc > 0 {
			m.check(m.c.WriteWindowUpdate(0, uint32(inc)))
			m.connWin += inc
		}
		m.logOp("windows opened (drain round %d)", round)
		m.settle()
	}
	for id, st := range m.streams {
		if st.owed && !st.reset && !st.ended {
			m.fail("stream %d (%s %s) owed a response: HEADERS %v, %d of %d body bytes", id, st.method, st.path, st.gotHeaders, len(st.body), len(st.want))
		}
	}
}

// recordingConn keeps a copy of everything written through it.
type recordingConn struct {
	net.Conn
	mu  sync.Mutex
	out []byte
}

func (r *recordingConn) Write(p []byte) (int, error) {
	r.mu.Lock()
	r.out = append(r.out, p...)
	r.mu.Unlock()
	return r.Conn.Write(p)
}

func (r *recordingConn) written() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]byte(nil), r.out...)
}

// modelProfile is p, with a concurrency limit of two to four streams on odd
// seeds so refusals happen.
func modelProfile(p Profile, seed int64) Profile {
	if seed%2 == 1 {
		p.MaxConcurrentStreams = uint32(2 + seed%3)
	}
	return p
}

// TestStreamStateModel runs seeded random frame sequences against the six
// profiles and checks each against the table model above.
func TestStreamStateModel(t *testing.T) {
	seeds := int64(24)
	if testing.Short() {
		seeds = 6
	}
	for _, p := range TestbedProfiles() {
		t.Run(p.Family, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= seeds; seed++ {
				runStreamModel(t, modelProfile(p, seed), seed, 48)
			}
		})
	}
}

// FuzzServeConn feeds arbitrary bytes after the client preface into
// ServeConn over an in-memory pipe, against every testbed profile. The
// server must not panic, must end once the client end closes, and must leave
// no goroutine behind. The corpus starts from the model test's sequences.
// The client writes its bytes and closes before the server starts, and the
// server's writes go nowhere, so ServeConn runs on this goroutine and one
// input always takes the same path: the coverage the fuzzer steers by is
// the input's alone.
func FuzzServeConn(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, p := range []Profile{NginxProfile(), H2OProfile()} {
			f.Add(runStreamModel(f, modelProfile(p, seed), seed, 24))
		}
	}
	site := DefaultSite("fuzz.example")
	f.Fuzz(func(t *testing.T, in []byte) {
		base := serverGoroutines()
		for _, p := range TestbedProfiles() {
			srv := New(p, site)
			clientNC, serverNC := netsim.Pipe()
			_, _ = clientNC.Write(append([]byte(frame.ClientPreface), in...))
			_ = clientNC.Close()
			_ = srv.ServeConn(writesDiscarded{serverNC})
			srv.Close()
		}
		if n := serverGoroutines(); n > base {
			t.Fatalf("%d goroutines left behind", n-base)
		}
	})
}

// writesDiscarded is a connection whose writes succeed and go nowhere.
type writesDiscarded struct{ net.Conn }

func (writesDiscarded) Write(p []byte) (int, error) { return len(p), nil }

// serverGoroutines counts the live goroutines this package started, server
// and test code alike; the fuzzing engine's own come and go unseen.
func serverGoroutines() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("created by h2scope/internal/server."))
}
