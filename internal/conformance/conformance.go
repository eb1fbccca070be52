// Package conformance is an h2spec-style RFC 7540 check suite built on the
// same probing client as H2Scope. Where package core reproduces the paper's
// measurement battery (feature characterization), this package packages the
// generic protocol-correctness checks — the "examine how HTTP/2 is realized"
// future-work direction — as named, independently runnable checks with a
// uniform verdict vocabulary.
//
// Each check opens its own connection, performs one provocation, and
// classifies the outcome as Pass, Fail, or Skip, citing the RFC section it
// covers.
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
// (server.DefaultSite does); reactionWindow bounds ignore-detection: a
// reaction that has not come by then counts as ignored.
const (
	smallPath      = "/about.html"
	largePath      = "/large/1"
	reactionWindow = 150 * time.Millisecond
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
	// FingerprintAdaptive declares that the target intentionally re-tunes
	// SETTINGS per passive client fingerprint, exempting it from the
	// fingerprint-stability requirement.
	FingerprintAdaptive bool
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
// code) arrives within the reaction window.
func (e *Env) waitGoAway(c *h2conn.Conn, code frame.ErrCode, any bool) (bool, frame.ErrCode) {
	ev, err := c.Wait(0, reactionWindow, func(ev h2conn.Event) bool { return ev.Type == frame.TypeGoAway })
	if err != nil {
		return false, 0
	}
	return any || ev.ErrCode == code, ev.ErrCode
}

// expectGoAway is the skeleton the negative checks share: connect with opts,
// run the provocation (nil when the client SETTINGS are the provocation), and
// wait one reaction window for GOAWAY(want). A connect or provocation error
// is a Skip; a GOAWAY with another code fails naming both; no GOAWAY at all
// fails with the tolerated message.
func (e *Env) expectGoAway(opts h2conn.Options, want frame.ErrCode, tolerated string, provoke func(*h2conn.Conn) error) (Verdict, string) {
	c, err := e.connect(opts)
	if err != nil {
		return Skip, err.Error()
	}
	defer closeConn(c)
	if provoke != nil {
		if err := provoke(c); err != nil {
			return Skip, err.Error()
		}
	}
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

// Suite returns the built-in checks, ordered by RFC section.
func Suite() []Check {
	checks := []Check{
		{
			ID:          "3.5/settings-first",
			Section:     "3.5",
			Description: "server sends SETTINGS as its connection preface",
			Run:         checkSettingsFirst,
		},
		{
			ID:          "4.1/unknown-frame-type",
			Section:     "4.1",
			Description: "frames of unknown type are ignored and discarded",
			Run:         checkUnknownFrameIgnored,
		},
		{
			ID:          "5.1/ping-on-stream",
			Section:     "6.7",
			Description: "PING on a nonzero stream is a connection error",
			Run:         checkPingOnStream,
		},
		{
			ID:          "6.5/settings-ack",
			Section:     "6.5.3",
			Description: "client SETTINGS are acknowledged",
			Run:         checkSettingsAcked,
		},
		{
			ID:          "6.5/unknown-setting",
			Section:     "6.5.2",
			Description: "unknown SETTINGS identifiers are ignored",
			Run:         checkUnknownSettingIgnored,
		},
		{
			ID:          "6.5/enable-push-invalid",
			Section:     "6.5.2",
			Description: "SETTINGS_ENABLE_PUSH outside {0,1} is a protocol error",
			Run:         checkEnablePushInvalid,
		},
		{
			ID:          "6.7/ping-ack-payload",
			Section:     "6.7",
			Description: "PING is acknowledged with an identical 8-byte payload",
			Run:         checkPingAckPayload,
		},
		{
			ID:          "6.9/window-overflow-conn",
			Section:     "6.9.1",
			Description: "connection window above 2^31-1 draws GOAWAY(FLOW_CONTROL_ERROR)",
			Run:         checkWindowOverflowConn,
		},
		{
			ID:          "6.9/data-respects-window",
			Section:     "6.9.1",
			Description: "DATA frames never exceed the advertised stream window",
			Run:         checkDataRespectsWindow,
		},
		{
			ID:          "6.10/interleaved-continuation",
			Section:     "6.10",
			Description: "a non-CONTINUATION frame inside a header block is a connection error",
			Run:         checkInterleavedContinuation,
		},
		{
			ID:          "5.1.1/even-stream-id",
			Section:     "5.1.1",
			Description: "client use of even stream IDs is a connection error",
			Run:         checkEvenStreamID,
		},
		{
			ID:          "5.1.1/stream-id-not-increasing",
			Section:     "5.1.1",
			Description: "a new stream whose ID is not above every ID already used is a connection error",
			Run:         checkStreamIDNotIncreasing,
		},
		{
			ID:          "8.1/head-no-body",
			Section:     "8.1",
			Description: "a HEAD response is a header block with END_STREAM and no DATA",
			Run:         checkHeadNoBody,
		},
		{
			ID:          "4.3/header-decode-failure",
			Section:     "4.3",
			Description: "an undecodable header block is a COMPRESSION_ERROR connection error",
			Run:         checkHeaderDecodeFailure,
		},
		{
			ID:          "4.3/discarded-block-decoded",
			Section:     "4.3",
			Description: "a header block whose stream is refused still updates the decoder's table",
			Run:         checkDiscardedBlockDecoded,
		},
		{
			ID:          "6.2/headers-on-stream-zero",
			Section:     "6.2",
			Description: "HEADERS on stream 0 is a connection error",
			Run:         checkHeadersOnStreamZero,
		},
		{
			ID:          "6.5/settings-bad-length",
			Section:     "6.5",
			Description: "a SETTINGS payload not a multiple of 6 octets is FRAME_SIZE_ERROR",
			Run:         checkSettingsBadLength,
		},
		{
			ID:          "6.7/ping-bad-length",
			Section:     "6.7",
			Description: "a PING payload other than 8 octets is FRAME_SIZE_ERROR",
			Run:         checkPingBadLength,
		},
		{
			ID:          "6.5/max-frame-size-invalid",
			Section:     "6.5.2",
			Description: "SETTINGS_MAX_FRAME_SIZE below 2^14 is a protocol error",
			Run:         checkMaxFrameSizeInvalid,
		},
		{
			ID:          "4.2/data-frame-size-limit",
			Section:     "4.2",
			Description: "DATA frames never exceed the advertised SETTINGS_MAX_FRAME_SIZE",
			Run:         checkDataFrameSizeLimit,
		},
		{
			ID:          "4.1/reserved-bit-ignored",
			Section:     "4.1",
			Description: "the reserved bit of the frame header is ignored on receipt",
			Run:         checkReservedBitIgnored,
		},
		{
			ID:          "4.1/undefined-flags-ignored",
			Section:     "4.1",
			Description: "flags with no defined semantics for a frame type are ignored",
			Run:         checkUndefinedFlagsIgnored,
		},
		{
			ID:          "6.1/data-padding-exceeds-payload",
			Section:     "6.1",
			Description: "DATA padding as long as or longer than the payload is PROTOCOL_ERROR",
			Run:         checkDataPaddingExceedsPayload,
		},
		{
			ID:          "6.4/rst-stream-bad-length",
			Section:     "6.4",
			Description: "an RST_STREAM payload other than 4 octets is FRAME_SIZE_ERROR",
			Run:         checkRSTStreamBadLength,
		},
		{
			ID:          "6.5/settings-ack-with-payload",
			Section:     "6.5.3",
			Description: "a SETTINGS ACK carrying a payload is FRAME_SIZE_ERROR",
			Run:         checkSettingsAckWithPayload,
		},
		{
			ID:          "6.9/window-update-bad-length",
			Section:     "6.9",
			Description: "a WINDOW_UPDATE payload other than 4 octets is FRAME_SIZE_ERROR",
			Run:         checkWindowUpdateBadLength,
		},
	}
	checks = append(checks, attackChecks()...)
	checks = append(checks, fingerprintChecks()...)
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

func checkUnknownFrameIgnored(env *Env) (Verdict, string) {
	c, err := env.connect(h2conn.DefaultOptions())
	if err != nil {
		return Skip, err.Error()
	}
	defer closeConn(c)
	if err := c.WriteUnknownFrame(0xEE, 0x3, []byte{1, 2, 3, 4}); err != nil {
		return Skip, err.Error()
	}
	if !env.fetchOK(c) {
		return Fail, "connection unusable after unknown frame"
	}
	return Pass, ""
}

func checkPingOnStream(env *Env) (Verdict, string) {
	return env.expectGoAway(h2conn.DefaultOptions(), frame.ErrCodeProtocol, "no GOAWAY", func(c *h2conn.Conn) error {
		// A PING frame carrying a nonzero stream ID (stream 3).
		return c.WriteRawFrame(frame.TypePing, 0, 3, make([]byte, 8))
	})
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

func checkUnknownSettingIgnored(env *Env) (Verdict, string) {
	opts := h2conn.DefaultOptions()
	opts.Settings = []frame.Setting{{ID: frame.SettingID(0xABCD), Val: 42}}
	c, err := env.connect(opts)
	if err != nil {
		return Skip, err.Error()
	}
	defer closeConn(c)
	if !env.fetchOK(c) {
		return Fail, "connection unusable after unknown setting"
	}
	return Pass, ""
}

func checkEnablePushInvalid(env *Env) (Verdict, string) {
	opts := h2conn.DefaultOptions()
	opts.Settings = []frame.Setting{{ID: frame.SettingEnablePush, Val: 7}}
	return env.expectGoAway(opts, frame.ErrCodeProtocol, "invalid ENABLE_PUSH accepted", nil)
}

func checkPingAckPayload(env *Env) (Verdict, string) {
	c, err := env.connect(h2conn.DefaultOptions())
	if err != nil {
		return Skip, err.Error()
	}
	defer closeConn(c)
	payload := [8]byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4}
	rtt, err := c.Ping(payload, reactionWindow)
	if err != nil {
		return Fail, "no matching PING ACK"
	}
	if rtt <= 0 {
		return Fail, "non-positive RTT"
	}
	return Pass, ""
}

func checkWindowOverflowConn(env *Env) (Verdict, string) {
	return env.expectGoAway(h2conn.DefaultOptions(), frame.ErrCodeFlowControl, "window overflow accepted", func(c *h2conn.Conn) error {
		if _, err := c.OpenStream(h2conn.Request{Authority: env.Authority, Path: smallPath}); err != nil {
			return err
		}
		if err := c.WriteWindowUpdate(0, frame.MaxWindowSize); err != nil {
			return err
		}
		return c.WriteWindowUpdate(0, frame.MaxWindowSize)
	})
}

func checkDataRespectsWindow(env *Env) (Verdict, string) {
	opts := h2conn.Options{
		Settings:        []frame.Setting{{ID: frame.SettingInitialWindowSize, Val: 100}},
		AutoSettingsAck: true,
		AutoPingAck:     true,
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
	_, _ = c.Wait(0, reactionWindow, func(e h2conn.Event) bool {
		if e.Type == frame.TypeData && e.StreamID == id {
			total += len(e.Data)
		}
		return total > 100
	})
	if total > 100 {
		return Fail, fmt.Sprintf("server sent %d bytes against a 100-byte window", total)
	}
	return Pass, ""
}

func checkInterleavedContinuation(env *Env) (Verdict, string) {
	return env.expectGoAway(h2conn.DefaultOptions(), frame.ErrCodeProtocol, "interleaved frame tolerated mid header block", func(c *h2conn.Conn) error {
		// A HEADERS frame without END_HEADERS followed by a PING.
		if err := c.WriteHeadersRaw(c.NextStreamID(), []byte{0x82}, true, false); err != nil {
			return err
		}
		return c.WritePing([8]byte{9})
	})
}

func checkEvenStreamID(env *Env) (Verdict, string) {
	return env.expectGoAway(h2conn.DefaultOptions(), frame.ErrCodeProtocol, "even client stream ID accepted", func(c *h2conn.Conn) error {
		return c.OpenStreamID(2, h2conn.Request{Authority: env.Authority, Path: smallPath})
	})
}

func checkStreamIDNotIncreasing(env *Env) (Verdict, string) {
	return env.expectGoAway(h2conn.DefaultOptions(), frame.ErrCodeProtocol, "request on a stream ID below one already used accepted", func(c *h2conn.Conn) error {
		req := h2conn.Request{Authority: env.Authority, Path: smallPath}
		if err := c.OpenStreamID(5, req); err != nil {
			return err
		}
		return c.OpenStreamID(3, req)
	})
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

func checkHeaderDecodeFailure(env *Env) (Verdict, string) {
	return env.expectGoAway(h2conn.DefaultOptions(), frame.ErrCodeCompression, "undecodable header block tolerated", func(c *h2conn.Conn) error {
		// Indexed reference far beyond both tables.
		return c.WriteHeadersRaw(c.NextStreamID(), []byte{0xff, 0x7f}, true, true)
	})
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

func checkHeadersOnStreamZero(env *Env) (Verdict, string) {
	return env.expectGoAway(h2conn.DefaultOptions(), frame.ErrCodeProtocol, "HEADERS on stream 0 tolerated", func(c *h2conn.Conn) error {
		return c.WriteRawFrame(frame.TypeHeaders, frame.FlagEndHeaders|frame.FlagEndStream, 0, []byte{0x82})
	})
}

func checkSettingsBadLength(env *Env) (Verdict, string) {
	return env.expectGoAway(h2conn.DefaultOptions(), frame.ErrCodeFrameSize, "truncated SETTINGS tolerated", func(c *h2conn.Conn) error {
		// Four bytes: not a multiple of six.
		return c.WriteRawFrame(frame.TypeSettings, 0, 0, []byte{0, 3, 0, 0})
	})
}

func checkPingBadLength(env *Env) (Verdict, string) {
	return env.expectGoAway(h2conn.DefaultOptions(), frame.ErrCodeFrameSize, "3-byte PING tolerated", func(c *h2conn.Conn) error {
		return c.WriteRawFrame(frame.TypePing, 0, 0, []byte{1, 2, 3})
	})
}

func checkMaxFrameSizeInvalid(env *Env) (Verdict, string) {
	opts := h2conn.DefaultOptions()
	opts.Settings = []frame.Setting{{ID: frame.SettingMaxFrameSize, Val: 1024}}
	c, err := env.connect(opts)
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

// awaitPingAck reports whether a PING ACK arrives within the timeout.
func awaitPingAck(env *Env, c *h2conn.Conn) bool {
	_, err := c.Wait(0, env.Timeout, func(e h2conn.Event) bool { return e.Type == frame.TypePing && e.IsAck() })
	return err == nil
}

func checkReservedBitIgnored(env *Env) (Verdict, string) {
	c, err := env.connect(h2conn.DefaultOptions())
	if err != nil {
		return Skip, err.Error()
	}
	defer closeConn(c)
	// A PING whose header sets the reserved bit over stream 0. The framer
	// writes the stream-ID field verbatim, so the bit reaches the wire; a
	// compliant receiver masks it off and answers the PING normally.
	if err := c.WriteRawFrame(frame.TypePing, 0, 1<<31, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		return Skip, err.Error()
	}
	if !awaitPingAck(env, c) {
		return Fail, "no PING ACK after a reserved-bit frame"
	}
	if !env.fetchOK(c) {
		return Fail, "connection unusable after a reserved-bit frame"
	}
	return Pass, ""
}

func checkUndefinedFlagsIgnored(env *Env) (Verdict, string) {
	c, err := env.connect(h2conn.DefaultOptions())
	if err != nil {
		return Skip, err.Error()
	}
	defer closeConn(c)
	// Every flag bit except ACK (0x1) is undefined for PING; all of them
	// set at once must be ignored and the PING answered as usual.
	if err := c.WriteRawFrame(frame.TypePing, 0xFE, 0, []byte{8, 7, 6, 5, 4, 3, 2, 1}); err != nil {
		return Skip, err.Error()
	}
	if !awaitPingAck(env, c) {
		return Fail, "no PING ACK after undefined flag bits"
	}
	if !env.fetchOK(c) {
		return Fail, "connection unusable after undefined flag bits"
	}
	return Pass, ""
}

func checkDataPaddingExceedsPayload(env *Env) (Verdict, string) {
	return env.expectGoAway(h2conn.DefaultOptions(), frame.ErrCodeProtocol, "oversized DATA padding tolerated", func(c *h2conn.Conn) error {
		id, err := c.OpenStream(h2conn.Request{Authority: env.Authority, Path: smallPath})
		if err != nil {
			return err
		}
		// Pad Length 5 with a single octet of remaining payload.
		return c.WriteRawFrame(frame.TypeData, frame.FlagPadded, id, []byte{5, 'x'})
	})
}

func checkRSTStreamBadLength(env *Env) (Verdict, string) {
	return env.expectGoAway(h2conn.DefaultOptions(), frame.ErrCodeFrameSize, "3-byte RST_STREAM tolerated", func(c *h2conn.Conn) error {
		// The stream must be nonzero or the stream-0 protocol check fires
		// instead of the length check; use a stream the server has seen.
		id, err := c.OpenStream(h2conn.Request{Authority: env.Authority, Path: smallPath})
		if err != nil {
			return err
		}
		return c.WriteRawFrame(frame.TypeRSTStream, 0, id, []byte{0, 0, 0})
	})
}

func checkSettingsAckWithPayload(env *Env) (Verdict, string) {
	return env.expectGoAway(h2conn.DefaultOptions(), frame.ErrCodeFrameSize, "SETTINGS ACK with payload tolerated", func(c *h2conn.Conn) error {
		return c.WriteRawFrame(frame.TypeSettings, frame.FlagAck, 0, []byte{0, 0, 0, 0, 0, 0})
	})
}

func checkWindowUpdateBadLength(env *Env) (Verdict, string) {
	return env.expectGoAway(h2conn.DefaultOptions(), frame.ErrCodeFrameSize, "3-byte WINDOW_UPDATE tolerated", func(c *h2conn.Conn) error {
		return c.WriteRawFrame(frame.TypeWindowUpdate, 0, 0, []byte{0, 0, 1})
	})
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
