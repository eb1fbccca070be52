package core

import (
	"cmp"
	"context"
	"fmt"
	"strconv"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/h2conn"
	"h2scope/internal/hpack"
)

// SettingsResult captures the server's SETTINGS advertisement and identity
// (Section V-B, V-C; Tables IV-VII; Figure 2).
type SettingsResult struct {
	// Settings is the raw advertisement in wire order.
	Settings []frame.Setting
	// ServerHeader is the "server" response header value.
	ServerHeader string
	// GotHeaders reports whether any HEADERS frame was received — the
	// paper's criterion for a working HTTP/2 site.
	GotHeaders bool
}

// Value returns the advertised value for id, if present.
func (r *SettingsResult) Value(id frame.SettingID) (uint32, bool) {
	var (
		val   uint32
		found bool
	)
	for _, s := range r.Settings {
		if s.ID == id {
			val, found = s.Val, true
		}
	}
	return val, found
}

// ProbeSettings records the server's SETTINGS frame and fetches one small
// page to learn the server header.
func (p *Prober) ProbeSettings(ctx context.Context) (*SettingsResult, error) {
	ctx, end := p.phase(ctx, "settings")
	defer end()
	c, err := p.connect(ctx, h2conn.DefaultOptions())
	if err != nil {
		return nil, err
	}
	defer closeConn(c)
	res := &SettingsResult{}
	ev, err := c.WaitSettings(p.cfg.Timeout)
	if err != nil {
		return nil, fmt.Errorf("core: no SETTINGS from server: %w", err)
	}
	res.Settings = ev.Settings
	resp, err := c.FetchBody(h2conn.Request{Authority: p.cfg.Authority, Path: p.cfg.SmallPath}, p.cfg.Timeout)
	if err == nil && resp.HeadersSeq >= 0 {
		res.GotHeaders = true
		res.ServerHeader = resp.Header("server")
	}
	return res, nil
}

// MultiplexResult reports the request-multiplexing probe (Section III-A.1).
type MultiplexResult struct {
	// Streams is the number of concurrent downloads issued (N).
	Streams int
	// Interleaved reports whether responses overlapped on the wire rather
	// than arriving strictly one-after-another.
	Interleaved bool
	// Completed is the number of downloads that finished.
	Completed int
}

// ProbeMultiplexing issues N concurrent large downloads and checks whether
// the response DATA frames interleave.
func (p *Prober) ProbeMultiplexing(ctx context.Context, n int) (*MultiplexResult, error) {
	ctx, end := p.phase(ctx, "multiplexing")
	defer end()
	if n > len(p.cfg.LargePaths) {
		n = len(p.cfg.LargePaths)
	}
	if n < 2 {
		return nil, fmt.Errorf("core: multiplexing probe needs >= 2 large objects, have %d", n)
	}
	c, err := p.connect(ctx, h2conn.DefaultOptions())
	if err != nil {
		return nil, err
	}
	defer closeConn(c)
	ev, err := c.WaitSettings(p.cfg.Timeout)
	if err != nil {
		return nil, err
	}
	// Section III-A.1: N must stay below the server's advertised
	// SETTINGS_MAX_CONCURRENT_STREAMS, or refused streams would masquerade
	// as missing multiplexing.
	if n = streamsAllowed(ev, n); n < 2 {
		return nil, errNotMeasurable("multiplexing", n, 2)
	}
	ids := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		id, err := c.OpenStream(h2conn.Request{Authority: p.cfg.Authority, Path: p.cfg.LargePaths[i]})
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	order := newStreamOrder(ids)
	_, _ = c.Wait(0, p.cfg.Timeout, order.add)
	res := &MultiplexResult{Streams: n, Completed: order.ended()}
	// Strictly sequential responses satisfy: sorted by first DATA, each
	// stream's last DATA precedes the next stream's first. Any violation
	// is interleaving.
	for i, a := range order.spans {
		for _, b := range order.spans[i+1:] {
			if a.first < 0 || b.first < 0 {
				continue
			}
			if a.first > b.first {
				a, b = b, a
			}
			if b.first < a.last {
				res.Interleaved = true
			}
		}
	}
	return res, nil
}

// TinyWindowClass classifies a server's response under a 1-byte stream
// window (Section V-D.1).
type TinyWindowClass int

// Tiny-window classes, matching the paper's three buckets.
const (
	// TinyWindowOneByte: DATA frames sized exactly to the window (compliant).
	TinyWindowOneByte TinyWindowClass = iota + 1
	// TinyWindowZeroLen: zero-length DATA frames.
	TinyWindowZeroLen
	// TinyWindowNothing: no response at all.
	TinyWindowNothing
)

// String names the class.
func (t TinyWindowClass) String() string {
	switch t {
	case TinyWindowOneByte:
		return "1-byte DATA"
	case TinyWindowZeroLen:
		return "0-length DATA"
	case TinyWindowNothing:
		return "no response"
	default:
		return "unknown"
	}
}

// FlowDataResult reports the DATA-frame flow-control probe.
type FlowDataResult struct {
	// WindowSize is the S_frame the probe advertised.
	WindowSize uint32
	// Class is the observed behavior bucket.
	Class TinyWindowClass
	// FirstDataLen is the payload size of the first DATA frame (-1 none).
	FirstDataLen int
	// GotHeaders reports whether response headers arrived.
	GotHeaders bool
}

// ProbeFlowControlData sets SETTINGS_INITIAL_WINDOW_SIZE to windowSize
// (the paper uses 1) and classifies the response (Section III-B.1).
func (p *Prober) ProbeFlowControlData(ctx context.Context, windowSize uint32) (*FlowDataResult, error) {
	ctx, end := p.phase(ctx, "flow-data")
	defer end()
	opts := h2conn.Options{
		Settings: []frame.Setting{{ID: frame.SettingInitialWindowSize, Val: windowSize}},
		AutoAck:  true,
	}
	c, err := p.connect(ctx, opts)
	if err != nil {
		return nil, err
	}
	defer closeConn(c)
	if _, err := c.WaitSettings(p.cfg.Timeout); err != nil {
		return nil, err
	}
	id, err := c.OpenStream(h2conn.Request{Authority: p.cfg.Authority, Path: p.cfg.LargePaths[0]})
	if err != nil {
		return nil, err
	}
	res := &FlowDataResult{WindowSize: windowSize, FirstDataLen: -1}
	data, err := c.AwaitReaction(0, p.reactionFloor(), p.cfg.Timeout, func(e h2conn.Event) bool {
		if e.StreamID == id && e.Type == frame.TypeHeaders {
			res.GotHeaders = true
		}
		return e.StreamID == id && e.Type == frame.TypeData
	})
	switch {
	case err != nil:
		res.Class = TinyWindowNothing
	case data.DataLen == 0:
		res.Class = TinyWindowZeroLen
		res.FirstDataLen = 0
	default:
		res.Class = TinyWindowOneByte
		res.FirstDataLen = data.DataLen
	}
	return res, nil
}

// ZeroWindowHeadersResult reports the zero-initial-window probe
// (Section III-B.2).
type ZeroWindowHeadersResult struct {
	// GotHeaders reports whether the server returned HEADERS despite the
	// zero DATA window — the RFC-compliant behavior.
	GotHeaders bool
}

// ProbeZeroWindowHeaders sets SETTINGS_INITIAL_WINDOW_SIZE to 0 and checks
// whether HEADERS still arrive.
func (p *Prober) ProbeZeroWindowHeaders(ctx context.Context) (*ZeroWindowHeadersResult, error) {
	ctx, end := p.phase(ctx, "zero-window-headers")
	defer end()
	opts := h2conn.Options{
		Settings: []frame.Setting{{ID: frame.SettingInitialWindowSize, Val: 0}},
		AutoAck:  true,
	}
	c, err := p.connect(ctx, opts)
	if err != nil {
		return nil, err
	}
	defer closeConn(c)
	if _, err := c.WaitSettings(p.cfg.Timeout); err != nil {
		return nil, err
	}
	id, err := c.OpenStream(h2conn.Request{Authority: p.cfg.Authority, Path: p.cfg.LargePaths[0]})
	if err != nil {
		return nil, err
	}
	_, err = c.AwaitReaction(0, p.reactionFloor(), p.cfg.Timeout, func(e h2conn.Event) bool {
		return e.StreamID == id && e.Type == frame.TypeHeaders
	})
	return &ZeroWindowHeadersResult{GotHeaders: err == nil}, nil
}

// WindowUpdateResult reports the zero / large WINDOW_UPDATE probes
// (Sections III-B.3 and III-B.4).
type WindowUpdateResult struct {
	// Stream and Conn are the observations at the two levels.
	Stream Observation
	Conn   Observation
	// ConnDebugData is the GOAWAY debug text, when present (the paper
	// found 26/42 sites explaining "the window update shouldn't be zero").
	ConnDebugData string
}

// ProbeZeroWindowUpdate sends WINDOW_UPDATE frames with increment 0 at the
// stream and connection levels (fresh connection each) and classifies the
// reactions.
func (p *Prober) ProbeZeroWindowUpdate(ctx context.Context) (*WindowUpdateResult, error) {
	ctx, end := p.phase(ctx, "zero-window-update")
	defer end()
	return p.probeWindowUpdate(ctx, func(c *h2conn.Conn, streamID uint32) error {
		return c.WriteWindowUpdate(streamID, 0)
	})
}

// ProbeLargeWindowUpdate sends WINDOW_UPDATE frames whose sum exceeds
// 2^31-1 at both levels and classifies the reactions.
func (p *Prober) ProbeLargeWindowUpdate(ctx context.Context) (*WindowUpdateResult, error) {
	ctx, end := p.phase(ctx, "large-window-update")
	defer end()
	return p.probeWindowUpdate(ctx, func(c *h2conn.Conn, streamID uint32) error {
		if err := c.WriteWindowUpdate(streamID, frame.MaxWindowSize); err != nil {
			return err
		}
		return c.WriteWindowUpdate(streamID, frame.MaxWindowSize)
	})
}

// probeWindowUpdate provokes the stream and the connection level, each on a
// fresh connection and both at once.
func (p *Prober) probeWindowUpdate(ctx context.Context, provoke func(*h2conn.Conn, uint32) error) (*WindowUpdateResult, error) {
	res := &WindowUpdateResult{}
	var (
		reaction           h2conn.Event
		streamErr, connErr error
	)
	together(
		func() { res.Stream, _, streamErr = p.windowUpdateReaction(ctx, provoke, true) },
		func() { res.Conn, reaction, connErr = p.windowUpdateReaction(ctx, provoke, false) },
	)
	if err := cmp.Or(streamErr, connErr); err != nil {
		return nil, err
	}
	res.ConnDebugData = string(reaction.DebugData)
	return res, nil
}

// windowUpdateReaction opens a stream for a large object without automatic
// window refills, provokes the stream (onStream) or the connection, and
// classifies the reaction. At the stream level the stream must be open and
// flow-blocked, so the provocation waits for the response to start.
func (p *Prober) windowUpdateReaction(ctx context.Context, provoke func(*h2conn.Conn, uint32) error, onStream bool) (Observation, h2conn.Event, error) {
	c, err := p.connect(ctx, h2conn.Options{AutoAck: true})
	if err != nil {
		return 0, h2conn.Event{}, err
	}
	defer closeConn(c)
	if _, err := c.WaitSettings(p.cfg.Timeout); err != nil {
		return 0, h2conn.Event{}, err
	}
	id, err := c.OpenStream(h2conn.Request{Authority: p.cfg.Authority, Path: p.cfg.LargePaths[0]})
	if err != nil {
		return 0, h2conn.Event{}, err
	}
	var target uint32
	if onStream {
		target = id
		_, _ = c.AwaitReaction(0, p.reactionFloor(), p.cfg.Timeout, func(e h2conn.Event) bool {
			return e.StreamID == id && (e.Type == frame.TypeHeaders || e.Type == frame.TypeData)
		})
	}
	if err := provoke(c, target); err != nil {
		return 0, h2conn.Event{}, err
	}
	obs, reaction := p.classifyReaction(c, target)
	return obs, reaction, nil
}

// PushResult reports the server-push probe (Sections III-D and V-F).
type PushResult struct {
	// Supported reports whether any PUSH_PROMISE arrived.
	Supported bool
	// PromisedPaths lists the :path values of the promised requests.
	PromisedPaths []string
}

// ProbeServerPush enables push, browses the configured pages, and records
// PUSH_PROMISE frames. Each page's wait reads them: RFC 7540 section 8.2.1
// puts every promise ahead of the END_STREAM of the page it rides on.
func (p *Prober) ProbeServerPush(ctx context.Context) (*PushResult, error) {
	ctx, end := p.phase(ctx, "server-push")
	defer end()
	opts := h2conn.DefaultOptions()
	opts.Settings = []frame.Setting{{ID: frame.SettingEnablePush, Val: 1}}
	c, err := p.connect(ctx, opts)
	if err != nil {
		return nil, err
	}
	defer closeConn(c)
	if _, err := c.WaitSettings(p.cfg.Timeout); err != nil {
		return nil, err
	}
	res := &PushResult{}
	next := c.Mark()
	for _, page := range p.cfg.PagePaths {
		id, err := c.OpenStream(h2conn.Request{Authority: p.cfg.Authority, Path: page})
		if err != nil {
			continue
		}
		_, _ = c.Wait(next, p.cfg.Timeout, func(e h2conn.Event) bool {
			next = e.Seq + 1
			if e.Type == frame.TypePushPromise {
				res.Supported = true
				for _, hf := range e.Headers {
					if hf.Name == ":path" {
						res.PromisedPaths = append(res.PromisedPaths, hf.Value)
					}
				}
			}
			return e.StreamID == id && e.Ends()
		})
	}
	return res, nil
}

// HPACKResult reports the header-compression probe (Section III-E).
type HPACKResult struct {
	// Requests is H, the number of identical requests sent.
	Requests int
	// BlockSizes lists the response header block sizes in order.
	BlockSizes []int
	// Ratio is r = sum(S_i) / (S_1 * H); small means effective compression.
	Ratio float64
}

// hpackRequests is H, the number of identical requests in the header
// compression probe; pingSamples is how many PING RTTs ProbePing collects.
const (
	hpackRequests = 8
	pingSamples   = 3
)

// ProbeHPACK sends H identical requests and computes the compression ratio
// over the response header block sizes.
func (p *Prober) ProbeHPACK(ctx context.Context) (*HPACKResult, error) {
	ctx, end := p.phase(ctx, "hpack")
	defer end()
	c, err := p.connect(ctx, h2conn.DefaultOptions())
	if err != nil {
		return nil, err
	}
	defer closeConn(c)
	if _, err := c.WaitSettings(p.cfg.Timeout); err != nil {
		return nil, err
	}
	req := h2conn.Request{
		Authority: p.cfg.Authority,
		Path:      p.cfg.SmallPath,
		Extra: []hpack.HeaderField{
			{Name: "user-agent", Value: "H2Scope/1.0 (reproduction)"},
			{Name: "accept", Value: "text/html,application/xhtml+xml"},
			{Name: "accept-language", Value: "en-US,en;q=0.9"},
		},
	}
	res := &HPACKResult{Requests: hpackRequests}
	total := 0
	for i := 0; i < hpackRequests; i++ {
		resp, err := c.FetchBody(req, p.cfg.Timeout)
		if err != nil {
			return nil, fmt.Errorf("core: hpack request %d: %w", i+1, err)
		}
		if resp.HeaderBlockLen == 0 {
			return nil, fmt.Errorf("core: hpack request %d: empty header block", i+1)
		}
		res.BlockSizes = append(res.BlockSizes, resp.HeaderBlockLen)
		total += resp.HeaderBlockLen
	}
	res.Ratio = float64(total) / (float64(res.BlockSizes[0]) * hpackRequests)
	return res, nil
}

// PingResult reports the HTTP/2 PING probe (Section III-F).
type PingResult struct {
	// Supported reports whether PING ACKs arrived.
	Supported bool
	// RTTs holds one sample per successful ping.
	RTTs []time.Duration
}

// Min returns the smallest RTT sample, or 0.
func (r *PingResult) Min() time.Duration {
	var best time.Duration
	for _, d := range r.RTTs {
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}

// ProbePing sends PING frames and measures RTTs.
func (p *Prober) ProbePing(ctx context.Context) (*PingResult, error) {
	ctx, end := p.phase(ctx, "ping")
	defer end()
	c, err := p.connect(ctx, h2conn.DefaultOptions())
	if err != nil {
		return nil, err
	}
	defer closeConn(c)
	if _, err := c.WaitSettings(p.cfg.Timeout); err != nil {
		return nil, err
	}
	res := &PingResult{}
	for i := 0; i < pingSamples; i++ {
		var payload [8]byte
		payload[0] = byte(i + 1)
		payload[7] = 0x5c
		rtt, err := c.Ping(payload, p.cfg.Timeout)
		if err != nil {
			continue
		}
		res.Supported = true
		res.RTTs = append(res.RTTs, rtt)
	}
	return res, nil
}

// SelfDependencyResult reports the self-dependent-stream probe
// (Section III-C.2).
type SelfDependencyResult struct {
	// Reaction is the observed server behavior; RFC 7540 calls for
	// RST_STREAM.
	Reaction Observation
}

// ProbeSelfDependency sends PRIORITY making a stream depend on itself.
func (p *Prober) ProbeSelfDependency(ctx context.Context) (*SelfDependencyResult, error) {
	ctx, end := p.phase(ctx, "self-dependency")
	defer end()
	c, err := p.connect(ctx, h2conn.DefaultOptions())
	if err != nil {
		return nil, err
	}
	defer closeConn(c)
	if _, err := c.WaitSettings(p.cfg.Timeout); err != nil {
		return nil, err
	}
	id := c.NextStreamID()
	if err := c.WritePriority(id, frame.PriorityParam{StreamDep: id, Weight: 15}); err != nil {
		return nil, err
	}
	reaction, _ := p.classifyReaction(c, id)
	return &SelfDependencyResult{Reaction: reaction}, nil
}

func closeConn(c *h2conn.Conn) {
	_ = c.Close()
}

// MarshalJSON renders the class as its Section V-D bucket name.
func (t TinyWindowClass) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(t.String())), nil
}

// UnmarshalJSON parses the bucket name back into a TinyWindowClass.
func (t *TinyWindowClass) UnmarshalJSON(data []byte) error {
	s, err := strconv.Unquote(string(data))
	if err != nil {
		return fmt.Errorf("core: tiny-window class %s: %w", data, err)
	}
	for _, cand := range []TinyWindowClass{TinyWindowOneByte, TinyWindowZeroLen, TinyWindowNothing} {
		if cand.String() == s {
			*t = cand
			return nil
		}
	}
	return fmt.Errorf("core: unknown tiny-window class %q", s)
}
