package core

import (
	"cmp"
	"context"

	"h2scope/internal/frame"
	"h2scope/internal/h2conn"
)

// ExtensionsResult holds conformance checks beyond the paper's battery —
// the "regular scanning" extensions its future-work section proposes, in
// the spirit of h2spec-style testing.
type ExtensionsResult struct {
	// SettingsAcked reports whether the server acknowledged the client's
	// SETTINGS frame (RFC 7540 section 6.5.3 requires it).
	SettingsAcked bool
	// UnknownFrameIgnored reports whether the server ignored a frame of an
	// unknown type and kept serving (RFC 7540 section 4.1 requires it).
	UnknownFrameIgnored bool
	// UnknownSettingIgnored reports whether the server ignored an unknown
	// SETTINGS identifier (RFC 7540 section 6.5.2 requires it).
	UnknownSettingIgnored bool
	// PingAckPrioritized reports whether a PING sent while a bulk response
	// is in flight is answered before the transfer completes — RFC 7540
	// section 6.7's SHOULD, which the paper leans on for RTT accuracy.
	PingAckPrioritized bool
}

// ProbeExtensions runs the beyond-paper conformance checks, each on its own
// connection and both at once.
func (p *Prober) ProbeExtensions(ctx context.Context) (*ExtensionsResult, error) {
	ctx, end := p.phase(ctx, "extensions")
	defer end()
	res := &ExtensionsResult{}
	var unknownsErr, pingErr error
	together(
		func() { unknownsErr = p.probeSettingsAckAndUnknowns(ctx, res) },
		func() { pingErr = p.probePingPriority(ctx, res) },
	)
	if err := cmp.Or(unknownsErr, pingErr); err != nil {
		return nil, err
	}
	return res, nil
}

func (p *Prober) probeSettingsAckAndUnknowns(ctx context.Context, res *ExtensionsResult) error {
	opts := h2conn.Options{
		// An unknown SETTINGS identifier rides along with the handshake.
		Settings: []frame.Setting{{ID: frame.SettingID(0xF0F0), Val: 1}},
		AutoAck:  true,
	}
	c, err := p.connect(ctx, opts)
	if err != nil {
		return err
	}
	defer closeConn(c)
	if _, err := c.WaitSettings(p.cfg.Timeout); err != nil {
		return err
	}
	// SETTINGS ACK for our (unknown-carrying) SETTINGS frame; a GOAWAY
	// ahead of it means the unknown setting killed the connection, and both
	// checks fail.
	ev, err := c.AwaitReaction(0, p.reactionFloor(), p.cfg.Timeout, func(e h2conn.Event) bool {
		return e.Type == frame.TypeGoAway || e.Type == frame.TypeSettings && e.IsAck()
	})
	if err == nil && ev.Type == frame.TypeGoAway {
		return nil
	}
	res.SettingsAcked = err == nil
	res.UnknownSettingIgnored = res.SettingsAcked

	// An unknown frame type must be ignored; the connection must still
	// answer a request afterwards.
	if err := c.WriteRawFrame(0xBE, 0x7, 0, []byte{0xde, 0xad}); err != nil {
		return err
	}
	resp, err := c.FetchBody(h2conn.Request{Authority: p.cfg.Authority, Path: p.cfg.SmallPath}, p.cfg.Timeout)
	if err == nil && resp.Status() == "200" {
		res.UnknownFrameIgnored = true
	}
	return nil
}

func (p *Prober) probePingPriority(ctx context.Context, res *ExtensionsResult) error {
	// Open a bulk transfer that stalls on the 65,535-octet connection
	// window, ping while the response is incomplete, and require the ACK to
	// arrive before the transfer's final DATA frame (which we only unblock
	// afterwards with WINDOW_UPDATE). A server that queues the PING behind
	// the pending response bytes fails.
	opts := h2conn.Options{AutoAck: true}
	c, err := p.connect(ctx, opts)
	if err != nil {
		return err
	}
	defer closeConn(c)
	if _, err := c.WaitSettings(p.cfg.Timeout); err != nil {
		return err
	}
	id, err := c.OpenStream(h2conn.Request{Authority: p.cfg.Authority, Path: p.cfg.LargePaths[0]})
	if err != nil {
		return err
	}
	ended := func(e h2conn.Event) bool { return e.StreamID == id && e.Ends() }
	// Wait for the first DATA so the transfer is in flight (and stalled).
	if _, err := c.Wait(0, p.cfg.Timeout, func(e h2conn.Event) bool {
		return e.Type == frame.TypeData && e.StreamID == id
	}); err != nil {
		return err
	}
	data := [8]byte{'p', 'r', 'i', 'o'}
	if err := c.WritePing(data); err != nil {
		return err
	}
	// The PING is its own fence: where its ACK falls against the transfer's
	// end is the answer, so the wait is for the ACK, not a window.
	transferDone := false
	if _, err := c.Wait(0, p.cfg.Timeout, func(e h2conn.Event) bool {
		transferDone = transferDone || ended(e)
		return e.Type == frame.TypePing && e.IsAck() && e.PingData == data
	}); err != nil {
		return nil // no ACK at all: not prioritized
	}
	// Unblock and drain the rest of the transfer.
	if err := c.WriteWindowUpdate(0, frame.MaxWindowSize); err != nil {
		return err
	}
	if err := c.WriteWindowUpdate(id, 1<<20); err != nil {
		return err
	}
	_, _ = c.Wait(0, p.cfg.Timeout, ended)
	res.PingAckPrioritized = !transferDone
	return nil
}
