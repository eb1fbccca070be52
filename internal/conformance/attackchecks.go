package conformance

// Attack-resilience checks: unlike the RFC-conformance checks, these replay
// the adversarial shapes from internal/attack in miniature and verify the
// server stays inside safe outcomes — keep serving, or refuse with an
// explicit connection error. A server may legitimately pick either side
// (GOAWAY-or-survive); what it may never do is wedge or buffer without
// bound. They run against undefended servers too: the engine's protocol
// bounds (the CONTINUATION cap, the HPACK list-size guard) are themselves
// requirements here.

import (
	"fmt"

	"h2scope/internal/attack"
	"h2scope/internal/frame"
	"h2scope/internal/h2conn"
)

// attackChecks returns the attack-resilience checks appended to Suite.
func attackChecks() []Check {
	return []Check{
		{
			ID:          "attack/rapid-reset",
			Section:     "5.1",
			Description: "HEADERS+RST_STREAM churn (CVE-2023-44487 shape) is survived or refused with GOAWAY",
			Run:         checkRapidResetGoAwayOrSurvive,
		},
		{
			ID:          "attack/hpack-bomb",
			Section:     "4.3",
			Description: "an amplifying header block (HPACK bomb) draws GOAWAY(COMPRESSION_ERROR)",
			Run:         checkHPACKBombCompressionError,
		},
		{
			ID:          "attack/continuation-bound",
			Section:     "6.10",
			Description: "an unterminated CONTINUATION sequence is bounded, not buffered without limit",
			Run:         checkContinuationBounded,
		},
		{
			ID:          "attack/settings-flood",
			Section:     "6.5",
			Description: "a burst of SETTINGS frames is survived or refused with GOAWAY",
			Run:         checkSettingsFloodSurvive,
		},
		{
			ID:          "attack/slow-drip",
			Section:     "6.1",
			Description: "a stalled request body does not block service on other streams",
			Run:         checkSlowDripIsolation,
		},
		{
			ID:          "attack/zero-window",
			Section:     "6.9",
			Description: "a zero-window receiver pinning responses leaves the connection responsive",
			Run:         checkZeroWindowResponsive,
		},
	}
}

func checkRapidResetGoAwayOrSurvive(env *Env) (Verdict, string) {
	c, err := env.connect(h2conn.DefaultOptions())
	if err != nil {
		return Skip, err.Error()
	}
	defer func() {
		_ = c.Close()
	}()
	if _, err := c.WaitSettings(env.Timeout); err != nil {
		return Skip, err.Error()
	}
	req := h2conn.Request{Authority: env.Authority, Path: smallPath}
	for i := 0; i < 100; i++ {
		id, err := c.OpenStream(req)
		if err != nil {
			break // the server closed on us mid-churn; GOAWAY check below
		}
		if err := c.WriteRSTStream(id, frame.ErrCodeCancel); err != nil {
			break
		}
	}
	if env.fetchOK(c) {
		return Pass, ""
	}
	if ok, code := env.waitGoAway(c, 0, true); ok {
		return Pass, fmt.Sprintf("refused with GOAWAY(%v)", code)
	}
	return Fail, "connection unusable after reset churn with no GOAWAY"
}

func checkHPACKBombCompressionError(env *Env) (Verdict, string) {
	return env.expectGoAway(h2conn.DefaultOptions(), frame.ErrCodeCompression, "no GOAWAY for an amplifying header block", func(c *h2conn.Conn) error {
		if _, err := c.WaitSettings(env.Timeout); err != nil {
			return err
		}
		return c.WriteHeadersRaw(c.NextStreamID(), attack.HPACKBombBlock(3000, 12000), true, true)
	})
}

func checkContinuationBounded(env *Env) (Verdict, string) {
	// No automatic acks: RFC 7540 section 6.10 forbids any frame (even a
	// SETTINGS ACK) between HEADERS and the end of its header block.
	c, err := env.connect(h2conn.Options{})
	if err != nil {
		return Skip, err.Error()
	}
	defer func() {
		_ = c.Close()
	}()
	if _, err := c.WaitSettings(env.Timeout); err != nil {
		return Skip, err.Error()
	}
	frag := make([]byte, 1024)
	id := c.NextStreamID()
	if err := c.WriteHeadersRaw(id, frag, false, false); err != nil {
		return Skip, err.Error()
	}
	// Half a megabyte of unterminated header block: any bounded server has
	// reacted well before this point.
	for written := len(frag); written < 512<<10; written += len(frag) {
		if err := c.WriteRawFrame(frame.TypeContinuation, 0, id, frag); err != nil {
			return Pass, fmt.Sprintf("writes refused after %d KiB", written>>10)
		}
	}
	if ok, code := env.waitGoAway(c, 0, true); ok {
		return Pass, fmt.Sprintf("refused with GOAWAY(%v)", code)
	}
	if err := c.ReadErr(); err != nil {
		return Pass, "connection closed"
	}
	return Fail, "server accepted 512 KiB of unterminated header block without reacting"
}

func checkSettingsFloodSurvive(env *Env) (Verdict, string) {
	c, err := env.connect(h2conn.DefaultOptions())
	if err != nil {
		return Skip, err.Error()
	}
	defer func() {
		_ = c.Close()
	}()
	if _, err := c.WaitSettings(env.Timeout); err != nil {
		return Skip, err.Error()
	}
	for i := 0; i < 200; i++ {
		if err := c.WriteSettings(frame.Setting{
			ID:  frame.SettingInitialWindowSize,
			Val: frame.DefaultInitialWindowSize,
		}); err != nil {
			break // refused mid-burst; GOAWAY check below
		}
	}
	if env.fetchOK(c) {
		return Pass, ""
	}
	if ok, code := env.waitGoAway(c, 0, true); ok {
		return Pass, fmt.Sprintf("refused with GOAWAY(%v)", code)
	}
	return Fail, "unresponsive after SETTINGS burst with no GOAWAY"
}

func checkSlowDripIsolation(env *Env) (Verdict, string) {
	c, err := env.connect(h2conn.DefaultOptions())
	if err != nil {
		return Skip, err.Error()
	}
	defer func() {
		_ = c.Close()
	}()
	if _, err := c.WaitSettings(env.Timeout); err != nil {
		return Skip, err.Error()
	}
	id, err := c.OpenStreamBody(h2conn.Request{Method: "POST", Authority: env.Authority, Path: smallPath})
	if err != nil {
		return Skip, err.Error()
	}
	if err := c.WriteData(id, false, []byte{'.'}); err != nil {
		return Skip, err.Error()
	}
	// With one stream dripping, a full fetch on a second stream must work.
	if !env.fetchOK(c) {
		return Fail, "a stalled request body blocked service on other streams"
	}
	_ = c.WriteData(id, true, []byte{'.'})
	return Pass, ""
}

func checkZeroWindowResponsive(env *Env) (Verdict, string) {
	opts := h2conn.DefaultOptions()
	opts.Settings = []frame.Setting{{ID: frame.SettingInitialWindowSize, Val: 0}}
	c, err := env.connect(opts)
	if err != nil {
		return Skip, err.Error()
	}
	defer func() {
		_ = c.Close()
	}()
	if _, err := c.WaitSettings(env.Timeout); err != nil {
		return Skip, err.Error()
	}
	// The response to this can never be delivered: the stream window is zero
	// and we never open it.
	if _, err := c.OpenStream(h2conn.Request{Authority: env.Authority, Path: largePath}); err != nil {
		return Skip, err.Error()
	}
	if _, err := c.Ping([8]byte{'z', 'w', 'p', 'r', 'o', 'b', 'e', '!'}, env.Timeout); err != nil {
		return Fail, "PING unanswered while responses are window-pinned"
	}
	return Pass, ""
}
