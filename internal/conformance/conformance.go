// Package conformance is an h2spec-style RFC 7540 check suite built on the
// same probing client as H2Scope. Where package core reproduces the paper's
// measurement battery (feature characterization), this package packages the
// generic protocol-correctness checks — the "examine how HTTP/2 is realized"
// future-work direction — as named, independently runnable checks with a
// uniform verdict vocabulary.
//
// A check is one row of a table: its ID, the RFC section it covers, the
// requirement, and how it runs. Each opens its own connection, performs one
// provocation, and classifies the outcome as Pass, Fail, or Skip. Most rows
// apply one of two judgements to a provocation (goAway: the server must end
// the connection with a given error code; usable: it must go on serving);
// the rest name a function of their own.
package conformance

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"h2scope/internal/core"
	"h2scope/internal/frame"
	"h2scope/internal/h2conn"
	"h2scope/internal/stats"
)

// Verdict is the outcome of one check.
type Verdict int

// Check outcomes.
const (
	// Pass means the server behaved as the RFC requires.
	Pass Verdict = iota + 1
	// Fail means the server violated the cited requirement.
	Fail
	// Skip means the check could not run (e.g. the target died earlier).
	Skip
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case Pass:
		return "PASS"
	case Fail:
		return "FAIL"
	case Skip:
		return "SKIP"
	default:
		return "?"
	}
}

// Result is one executed check.
type Result struct {
	// ID is the stable check identifier, e.g. "6.9/zero-increment-stream".
	ID string
	// Section is the RFC 7540 section the check covers.
	Section string
	// Description states the requirement.
	Description string
	// Verdict is the outcome.
	Verdict Verdict
	// Detail explains a Fail or Skip.
	Detail string
}

// Check is one runnable conformance check.
type Check struct {
	// ID is the stable identifier.
	ID string
	// Section is the RFC 7540 section covered.
	Section string
	// Description states the requirement being verified.
	Description string
	// Run executes the check over a fresh connection factory.
	Run func(env *Env) (Verdict, string)
}

// smallPath and largePath are resources every target is assumed to serve
// (server.DefaultSite does). A check concludes a reaction did not come only
// through h2conn.Conn.AwaitReaction, on h2conn.ReactionFloor and Timeout.
const (
	smallPath = "/about.html"
	largePath = "/large/1"
)

// Env gives checks connection-level access to the target.
type Env struct {
	// Dialer opens transport connections.
	Dialer core.Dialer
	// Authority is the :authority for requests.
	Authority string
	// Timeout bounds waits.
	Timeout time.Duration
	// TLSDialer opens raw transport connections to the target's TLS
	// port, for checks that speak the record layer themselves; nil when
	// the target has no TLS endpoint (those checks then Skip).
	TLSDialer core.Dialer
	// TLSServerName is the SNI offered on TLSDialer connections.
	TLSServerName string
}

// connect opens an HTTP/2 connection with opts.
func (e *Env) connect(opts h2conn.Options) (*h2conn.Conn, error) {
	nc, err := e.Dialer.Dial()
	if err != nil {
		return nil, fmt.Errorf("conformance: dial: %w", err)
	}
	c, err := h2conn.Dial(nc, opts)
	if err != nil {
		_ = nc.Close()
		return nil, err
	}
	return c, nil
}

// fetchOK fetches SmallPath and reports whether a 200 arrived — the
// liveness primitive most checks end with.
func (e *Env) fetchOK(c *h2conn.Conn) bool {
	resp, err := c.FetchBody(h2conn.Request{Authority: e.Authority, Path: smallPath}, e.Timeout)
	return err == nil && resp.Status() == "200"
}

// waitGoAway reports whether a GOAWAY (optionally with a required error
// code) answers the provocation just sent.
func (e *Env) waitGoAway(c *h2conn.Conn, code frame.ErrCode, any bool) (bool, frame.ErrCode) {
	ev, err := c.AwaitReaction(0, h2conn.ReactionFloor, e.Timeout, func(ev h2conn.Event) bool { return ev.Type == frame.TypeGoAway })
	if err != nil {
		return false, 0
	}
	return any || ev.ErrCode == code, ev.ErrCode
}

// provocation is what a check sends on a fresh connection to draw the
// server's reaction.
type provocation func(*Env, *h2conn.Conn) error

// raw writes one frame verbatim, stream ID included.
func raw(t frame.Type, flags frame.Flags, stream uint32, payload []byte) provocation {
	return func(_ *Env, c *h2conn.Conn) error { return c.WriteRawFrame(t, flags, stream, payload) }
}

// onStream writes one frame verbatim on a fresh request stream, so the
// check exercises the frame's own rules rather than the idle-stream ones.
func onStream(t frame.Type, flags frame.Flags, payload []byte) provocation {
	return func(env *Env, c *h2conn.Conn) error {
		id, err := c.OpenStream(h2conn.Request{Authority: env.Authority, Path: smallPath})
		if err != nil {
			return err
		}
		return c.WriteRawFrame(t, flags, id, payload)
	}
}

// provoked connects with settings as the client's SETTINGS and runs provoke
// on the new connection (nil when the settings are the provocation).
func (e *Env) provoked(settings []frame.Setting, provoke provocation) (*h2conn.Conn, error) {
	opts := h2conn.DefaultOptions()
	opts.Settings = settings
	c, err := e.connect(opts)
	if err != nil || provoke == nil {
		return c, err
	}
	if err := provoke(e, c); err != nil {
		closeConn(c)
		return nil, err
	}
	return c, nil
}

// goAway is the skeleton the negative checks share: connect with settings,
// run the provocation, and await GOAWAY(want) through goAwayVerdict;
// tolerated is the detail of a Fail when no GOAWAY comes. A connect or
// provocation error is a Skip.
func goAway(want frame.ErrCode, tolerated string, settings []frame.Setting, provoke provocation) func(*Env) (Verdict, string) {
	return func(env *Env) (Verdict, string) {
		c, err := env.provoked(settings, provoke)
		if err != nil {
			return Skip, err.Error()
		}
		defer closeConn(c)
		return env.goAwayVerdict(c, want, tolerated)
	}
}

// usable judges a provocation the server must ignore: a request on the
// provoked connection still draws a 200, and when pinged (the provocation is
// a PING) the PING is acknowledged first. what names the provocation in a
// Fail's detail.
func usable(settings []frame.Setting, provoke provocation, pinged bool, what string) func(*Env) (Verdict, string) {
	return func(env *Env) (Verdict, string) {
		c, err := env.provoked(settings, provoke)
		if err != nil {
			return Skip, err.Error()
		}
		defer closeConn(c)
		if pinged {
			if _, err := c.Wait(0, env.Timeout, func(e h2conn.Event) bool { return e.Type == frame.TypePing && e.IsAck() }); err != nil {
				return Fail, "no PING ACK after " + what
			}
		}
		if !env.fetchOK(c) {
			return Fail, "connection unusable after " + what
		}
		return Pass, ""
	}
}

// goAwayVerdict awaits GOAWAY(want) on c: a GOAWAY with another code fails
// naming both, and no GOAWAY fails with the tolerated message.
func (e *Env) goAwayVerdict(c *h2conn.Conn, want frame.ErrCode, tolerated string) (Verdict, string) {
	ok, code := e.waitGoAway(c, want, false)
	switch {
	case ok:
		return Pass, ""
	case code != 0:
		return Fail, fmt.Sprintf("GOAWAY code %v, want %v", code, want)
	default:
		return Fail, tolerated
	}
}

// rfcChecks holds one row per RFC check; attackChecks adds the burst rows.
var rfcChecks = []Check{
	{"3.5/settings-first", "3.5", "server sends SETTINGS as its connection preface", checkSettingsFirst},
	// A PING whose header sets the reserved bit over stream 0. The framer
	// writes the stream-ID field verbatim, so the bit reaches the wire; a
	// compliant receiver masks it off and answers the PING normally.
	{"4.1/reserved-bit-ignored", "4.1", "the reserved bit of the frame header is ignored on receipt",
		usable(nil, raw(frame.TypePing, 0, 1<<31, []byte{1, 2, 3, 4, 5, 6, 7, 8}), true, "a reserved-bit frame")},
	// Every flag bit except ACK (0x1) is undefined for PING; all of them
	// set at once must be ignored and the PING answered as usual.
	{"4.1/undefined-flags-ignored", "4.1", "flags with no defined semantics for a frame type are ignored",
		usable(nil, raw(frame.TypePing, 0xFE, 0, []byte{8, 7, 6, 5, 4, 3, 2, 1}), true, "undefined flag bits")},
	{"4.1/unknown-frame-type", "4.1", "frames of unknown type are ignored and discarded",
		usable(nil, raw(0xEE, 0x3, 0, []byte{1, 2, 3, 4}), false, "unknown frame")},
	{"4.2/data-frame-size-limit", "4.2", "DATA frames never exceed the advertised SETTINGS_MAX_FRAME_SIZE", checkDataFrameSizeLimit},
	{"4.3/discarded-block-decoded", "4.3", "a header block whose stream is refused still updates the decoder's table", checkDiscardedBlockDecoded},
	// An indexed reference far beyond both tables.
	{"4.3/header-decode-failure", "4.3", "an undecodable header block is a COMPRESSION_ERROR connection error",
		goAway(frame.ErrCodeCompression, "undecodable header block tolerated", nil, func(_ *Env, c *h2conn.Conn) error {
			return c.WriteHeadersRaw(c.NextStreamID(), []byte{0xff, 0x7f}, true, true)
		})},
	{"5.1.1/even-stream-id", "5.1.1", "client use of even stream IDs is a connection error",
		goAway(frame.ErrCodeProtocol, "even client stream ID accepted", nil, func(env *Env, c *h2conn.Conn) error {
			return c.OpenStreamID(2, h2conn.Request{Authority: env.Authority, Path: smallPath})
		})},
	{"5.1.1/stream-id-not-increasing", "5.1.1", "a new stream whose ID is not above every ID already used is a connection error",
		goAway(frame.ErrCodeProtocol, "request on a stream ID below one already used accepted", nil, func(env *Env, c *h2conn.Conn) error {
			req := h2conn.Request{Authority: env.Authority, Path: smallPath}
			if err := c.OpenStreamID(5, req); err != nil {
				return err
			}
			return c.OpenStreamID(3, req)
		})},
	{"5.1/ping-on-stream", "6.7", "PING on a nonzero stream is a connection error",
		goAway(frame.ErrCodeProtocol, "no GOAWAY", nil, raw(frame.TypePing, 0, 3, make([]byte, 8)))},
	// Pad Length 5 with a single octet of remaining payload.
	{"6.1/data-padding-exceeds-payload", "6.1", "DATA padding as long as or longer than the payload is PROTOCOL_ERROR",
		goAway(frame.ErrCodeProtocol, "oversized DATA padding tolerated", nil, onStream(frame.TypeData, frame.FlagPadded, []byte{5, 'x'}))},
	// A HEADERS frame without END_HEADERS, then a PING.
	{"6.10/interleaved-continuation", "6.10", "a non-CONTINUATION frame inside a header block is a connection error",
		goAway(frame.ErrCodeProtocol, "interleaved frame tolerated mid header block", nil, func(_ *Env, c *h2conn.Conn) error {
			if err := c.WriteHeadersRaw(c.NextStreamID(), []byte{0x82}, true, false); err != nil {
				return err
			}
			return c.WritePing([8]byte{9})
		})},
	{"6.2/headers-on-stream-zero", "6.2", "HEADERS on stream 0 is a connection error",
		goAway(frame.ErrCodeProtocol, "HEADERS on stream 0 tolerated", nil, raw(frame.TypeHeaders, frame.FlagEndHeaders|frame.FlagEndStream, 0, []byte{0x82}))},
	// On a stream the server has seen: on stream 0 the stream-0 protocol
	// check would fire instead of the length check.
	{"6.4/rst-stream-bad-length", "6.4", "an RST_STREAM payload other than 4 octets is FRAME_SIZE_ERROR",
		goAway(frame.ErrCodeFrameSize, "3-byte RST_STREAM tolerated", nil, onStream(frame.TypeRSTStream, 0, []byte{0, 0, 0}))},
	{"6.5/enable-push-invalid", "6.5.2", "SETTINGS_ENABLE_PUSH outside {0,1} is a protocol error",
		goAway(frame.ErrCodeProtocol, "invalid ENABLE_PUSH accepted", []frame.Setting{{ID: frame.SettingEnablePush, Val: 7}}, nil)},
	{"6.5/max-frame-size-invalid", "6.5.2", "SETTINGS_MAX_FRAME_SIZE below 2^14 is a protocol error", checkMaxFrameSizeInvalid},
	{"6.5/settings-ack", "6.5.3", "client SETTINGS are acknowledged", checkSettingsAcked},
	{"6.5/settings-ack-with-payload", "6.5.3", "a SETTINGS ACK carrying a payload is FRAME_SIZE_ERROR",
		goAway(frame.ErrCodeFrameSize, "SETTINGS ACK with payload tolerated", nil, raw(frame.TypeSettings, frame.FlagAck, 0, []byte{0, 0, 0, 0, 0, 0}))},
	// Four bytes: not a multiple of six.
	{"6.5/settings-bad-length", "6.5", "a SETTINGS payload not a multiple of 6 octets is FRAME_SIZE_ERROR",
		goAway(frame.ErrCodeFrameSize, "truncated SETTINGS tolerated", nil, raw(frame.TypeSettings, 0, 0, []byte{0, 3, 0, 0}))},
	{"6.5/unknown-setting", "6.5.2", "unknown SETTINGS identifiers are ignored",
		usable([]frame.Setting{{ID: frame.SettingID(0xABCD), Val: 42}}, nil, false, "unknown setting")},
	{"6.7/ping-ack-payload", "6.7", "PING is acknowledged with an identical 8-byte payload", checkPingAckPayload},
	{"6.7/ping-bad-length", "6.7", "a PING payload other than 8 octets is FRAME_SIZE_ERROR",
		goAway(frame.ErrCodeFrameSize, "3-byte PING tolerated", nil, raw(frame.TypePing, 0, 0, []byte{1, 2, 3}))},
	{"6.9/data-respects-window", "6.9.1", "DATA frames never exceed the advertised stream window", checkDataRespectsWindow},
	{"6.9/window-overflow-conn", "6.9.1", "connection window above 2^31-1 draws GOAWAY(FLOW_CONTROL_ERROR)",
		goAway(frame.ErrCodeFlowControl, "window overflow accepted", nil, func(env *Env, c *h2conn.Conn) error {
			if _, err := c.OpenStream(h2conn.Request{Authority: env.Authority, Path: smallPath}); err != nil {
				return err
			}
			if err := c.WriteWindowUpdate(0, frame.MaxWindowSize); err != nil {
				return err
			}
			return c.WriteWindowUpdate(0, frame.MaxWindowSize)
		})},
	{"6.9/window-update-bad-length", "6.9", "a WINDOW_UPDATE payload other than 4 octets is FRAME_SIZE_ERROR",
		goAway(frame.ErrCodeFrameSize, "3-byte WINDOW_UPDATE tolerated", nil, raw(frame.TypeWindowUpdate, 0, 0, []byte{0, 0, 1}))},
	{"8.1/head-no-body", "8.1", "a HEAD response is a header block with END_STREAM and no DATA", checkHeadNoBody},
	{"9.2/grease-clienthello-alpn", "9.2", "a GREASE-laden ClientHello (RFC 8701) still negotiates h2 via ALPN", checkGREASEHelloNegotiatesH2},
}

// Suite returns the built-in checks, ordered by ID.
func Suite() []Check {
	checks := append(append([]Check(nil), rfcChecks...), attackChecks()...)
	sort.Slice(checks, func(i, j int) bool { return checks[i].ID < checks[j].ID })
	return checks
}

// RunSuite executes every check in the suite against env.
func RunSuite(env *Env) []Result {
	if env.Timeout == 0 {
		env.Timeout = 5 * time.Second
	}
	checks := Suite()
	out := make([]Result, 0, len(checks))
	for _, ch := range checks {
		verdict, detail := ch.Run(env)
		out = append(out, Result{
			ID:          ch.ID,
			Section:     ch.Section,
			Description: ch.Description,
			Verdict:     verdict,
			Detail:      detail,
		})
	}
	return out
}

// Render formats results as a report table.
func Render(results []Result) string {
	rows := make([][]string, 0, len(results))
	for _, r := range results {
		detail := r.Detail
		if detail == "" {
			detail = "-"
		}
		rows = append(rows, []string{r.ID, r.Verdict.String(), r.Description, detail})
	}
	return stats.FormatTable([]string{"Check", "Verdict", "Requirement", "Detail"}, rows)
}

// Passed counts passing results.
func Passed(results []Result) int {
	n := 0
	for _, r := range results {
		if r.Verdict == Pass {
			n++
		}
	}
	return n
}

// Failures returns the IDs of failing checks.
func Failures(results []Result) []string {
	var out []string
	for _, r := range results {
		if r.Verdict == Fail {
			out = append(out, r.ID)
		}
	}
	return out
}

// --- the checks ---

func checkSettingsFirst(env *Env) (Verdict, string) {
	c, err := env.connect(h2conn.DefaultOptions())
	if err != nil {
		return Skip, err.Error()
	}
	defer closeConn(c)
	first, err := c.Wait(0, env.Timeout, func(h2conn.Event) bool { return true })
	if err != nil {
		return Fail, "no frames from server"
	}
	if first.Type != frame.TypeSettings || first.IsAck() {
		return Fail, fmt.Sprintf("first frame was %v", first.Type)
	}
	return Pass, ""
}

func checkSettingsAcked(env *Env) (Verdict, string) {
	c, err := env.connect(h2conn.DefaultOptions())
	if err != nil {
		return Skip, err.Error()
	}
	defer closeConn(c)
	if _, err := c.Wait(0, env.Timeout, func(e h2conn.Event) bool {
		return e.Type == frame.TypeSettings && e.IsAck()
	}); err != nil {
		return Fail, "no SETTINGS ACK"
	}
	return Pass, ""
}

func checkPingAckPayload(env *Env) (Verdict, string) {
	c, err := env.connect(h2conn.DefaultOptions())
	if err != nil {
		return Skip, err.Error()
	}
	defer closeConn(c)
	payload := [8]byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4}
	if err := c.WritePing(payload); err != nil {
		return Skip, err.Error()
	}
	if _, err := c.AwaitReaction(0, h2conn.ReactionFloor, env.Timeout, func(e h2conn.Event) bool {
		return e.Type == frame.TypePing && e.IsAck() && e.PingData == payload
	}); err != nil {
		return Fail, "no matching PING ACK"
	}
	return Pass, ""
}

func checkDataRespectsWindow(env *Env) (Verdict, string) {
	opts := h2conn.Options{
		Settings: []frame.Setting{{ID: frame.SettingInitialWindowSize, Val: 100}},
		AutoAck:  true,
	}
	c, err := env.connect(opts)
	if err != nil {
		return Skip, err.Error()
	}
	defer closeConn(c)
	id, err := c.OpenStream(h2conn.Request{Authority: env.Authority, Path: largePath})
	if err != nil {
		return Skip, err.Error()
	}
	total := 0
	_, _ = c.AwaitReaction(0, h2conn.ReactionFloor, env.Timeout, func(e h2conn.Event) bool {
		if e.Type == frame.TypeData && e.StreamID == id {
			total += e.DataLen
		}
		return total > 100
	})
	if total > 100 {
		return Fail, fmt.Sprintf("server sent %d bytes against a 100-byte window", total)
	}
	return Pass, ""
}

func checkHeadNoBody(env *Env) (Verdict, string) {
	c, err := env.connect(h2conn.DefaultOptions())
	if err != nil {
		return Skip, err.Error()
	}
	defer closeConn(c)
	resp, err := c.FetchBody(h2conn.Request{Method: "HEAD", Authority: env.Authority, Path: smallPath}, env.Timeout)
	if err != nil {
		return Fail, "HEAD: " + err.Error()
	}
	if resp.Status() != "200" || len(resp.DataFrameSizes) > 0 {
		return Fail, fmt.Sprintf("HEAD drew status %q and %d DATA frames", resp.Status(), len(resp.DataFrameSizes))
	}
	return Pass, ""
}

// maxHeldStreams bounds how many streams checkDiscardedBlockDecoded holds
// open to reach the advertised concurrency limit.
const maxHeldStreams = 1024

func checkDiscardedBlockDecoded(env *Env) (Verdict, string) {
	c, err := env.connect(h2conn.DefaultOptions())
	if err != nil {
		return Skip, err.Error()
	}
	defer closeConn(c)
	settings, err := c.WaitSettings(env.Timeout)
	if err != nil {
		return Skip, err.Error()
	}
	limit := -1
	for _, s := range settings.Settings {
		if s.ID == frame.SettingMaxConcurrentStreams {
			limit = int(s.Val)
		}
	}
	if limit < 1 || limit > maxHeldStreams {
		return Skip, fmt.Sprintf("no SETTINGS_MAX_CONCURRENT_STREAMS in 1..%d to exceed", maxHeldStreams)
	}
	// Fill the limit with POSTs whose bodies never end, so no slot frees.
	var holder uint32
	for i := 0; i < limit; i++ {
		if holder, err = c.OpenStreamBody(h2conn.Request{Method: "POST", Authority: env.Authority, Path: "/"}); err != nil {
			return Skip, err.Error()
		}
	}
	// The request past the limit is refused; its block entered smallPath
	// into the client's table, and the next request refers to it by index.
	req := h2conn.Request{Authority: env.Authority, Path: smallPath}
	from := c.Mark()
	id, err := c.OpenStream(req)
	if err != nil {
		return Skip, err.Error()
	}
	ev, err := c.Wait(from, env.Timeout, func(e h2conn.Event) bool {
		return e.StreamID == id && e.Ends() || e.Type == frame.TypeGoAway
	})
	if err != nil || ev.Type != frame.TypeRSTStream {
		return Skip, fmt.Sprintf("stream %d past a limit of %d was not reset (%v, %v)", id, limit, ev.Type, err)
	}
	if err := c.WriteRSTStream(holder, frame.ErrCodeCancel); err != nil {
		return Skip, err.Error()
	}
	resp, err := c.FetchBody(req, env.Timeout)
	if err != nil {
		return Fail, "request after the refused block: " + err.Error()
	}
	if resp.Status() != "200" {
		return Fail, fmt.Sprintf("request after the refused block drew status %q", resp.Status())
	}
	return Pass, ""
}

func checkMaxFrameSizeInvalid(env *Env) (Verdict, string) {
	c, err := env.provoked([]frame.Setting{{ID: frame.SettingMaxFrameSize, Val: 1024}}, nil)
	if err != nil {
		return Skip, err.Error()
	}
	defer closeConn(c)
	ok, _ := env.waitGoAway(c, frame.ErrCodeProtocol, true)
	if !ok {
		return Fail, "SETTINGS_MAX_FRAME_SIZE=1024 accepted"
	}
	return Pass, ""
}

func checkDataFrameSizeLimit(env *Env) (Verdict, string) {
	// Advertise the default 16 KiB and verify no DATA frame exceeds it.
	c, err := env.connect(h2conn.DefaultOptions())
	if err != nil {
		return Skip, err.Error()
	}
	defer closeConn(c)
	resp, err := c.FetchBody(h2conn.Request{Authority: env.Authority, Path: largePath}, env.Timeout)
	if err != nil {
		return Skip, err.Error()
	}
	for _, n := range resp.DataFrameSizes {
		if n > frame.DefaultMaxFrameSize {
			return Fail, fmt.Sprintf("DATA frame of %d bytes against a %d limit", n, frame.DefaultMaxFrameSize)
		}
	}
	return Pass, ""
}

func closeConn(c *h2conn.Conn) {
	_ = c.Close()
}

// Summary one-lines a result set.
func Summary(results []Result) string {
	return fmt.Sprintf("%d/%d checks passed%s", Passed(results), len(results), failSuffix(results))
}

func failSuffix(results []Result) string {
	fails := Failures(results)
	if len(fails) == 0 {
		return ""
	}
	return " (failed: " + strings.Join(fails, ", ") + ")"
}
