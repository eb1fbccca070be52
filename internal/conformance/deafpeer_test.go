package conformance

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/netsim"
)

// deafPeer serves nc as a peer that completes the handshake, acknowledges
// SETTINGS and PING, and ignores every other frame, malformed ones too: it
// never sends GOAWAY, never answers a request, and never ends the
// connection before the client does.
func deafPeer(nc net.Conn) {
	defer nc.Close()
	if _, err := io.ReadFull(nc, make([]byte, len(frame.ClientPreface))); err != nil {
		return
	}
	fr := frame.NewFramer(nc, nc)
	err := fr.WriteSettings()
	for err == nil {
		var f frame.Frame
		f, err = fr.ReadFrame()
		switch f := f.(type) {
		case *frame.SettingsFrame:
			if !f.IsAck() {
				err = fr.WriteSettingsAck()
			}
		case *frame.PingFrame:
			if !f.IsAck() {
				err = fr.WritePing(true, f.Data)
			}
		}
		// A frame that breaks a framing rule was read whole: skip it.
		if errors.As(err, new(frame.ConnError)) || errors.As(err, new(frame.StreamError)) {
			err = nil
		}
	}
}

// TestJudgedRowsFailOnADeafPeer pins the Fail path of every RFC row against
// a peer that reacts to nothing: each goAway row reads its own tolerated
// text and each usable row "connection unusable after …". The other rows
// are pinned too, so a new row must state what a deaf peer draws. The rows
// run at once, since nearly all of them wait out a reaction that never
// comes.
func TestJudgedRowsFailOnADeafPeer(t *testing.T) {
	type result struct {
		v      Verdict
		detail string
	}
	want := map[string]result{
		"3.5/settings-first":               {Pass, ""},
		"4.1/reserved-bit-ignored":         {Fail, "connection unusable after a reserved-bit frame"},
		"4.1/undefined-flags-ignored":      {Fail, "connection unusable after undefined flag bits"},
		"4.1/unknown-frame-type":           {Fail, "connection unusable after unknown frame"},
		"4.2/data-frame-size-limit":        {Skip, "h2conn: wait timed out"},
		"4.3/discarded-block-decoded":      {Skip, "no SETTINGS_MAX_CONCURRENT_STREAMS in 1..1024 to exceed"},
		"4.3/header-decode-failure":        {Fail, "undecodable header block tolerated"},
		"5.1.1/even-stream-id":             {Fail, "even client stream ID accepted"},
		"5.1.1/stream-id-not-increasing":   {Fail, "request on a stream ID below one already used accepted"},
		"5.1/ping-on-stream":               {Fail, "no GOAWAY"},
		"6.1/data-padding-exceeds-payload": {Fail, "oversized DATA padding tolerated"},
		"6.10/interleaved-continuation":    {Fail, "interleaved frame tolerated mid header block"},
		"6.2/headers-on-stream-zero":       {Fail, "HEADERS on stream 0 tolerated"},
		"6.4/rst-stream-bad-length":        {Fail, "3-byte RST_STREAM tolerated"},
		"6.5/enable-push-invalid":          {Fail, "invalid ENABLE_PUSH accepted"},
		"6.5/max-frame-size-invalid":       {Fail, "SETTINGS_MAX_FRAME_SIZE=1024 accepted"},
		"6.5/settings-ack":                 {Pass, ""},
		"6.5/settings-ack-with-payload":    {Fail, "SETTINGS ACK with payload tolerated"},
		"6.5/settings-bad-length":          {Fail, "truncated SETTINGS tolerated"},
		"6.5/unknown-setting":              {Fail, "connection unusable after unknown setting"},
		"6.7/ping-ack-payload":             {Pass, ""},
		"6.7/ping-bad-length":              {Fail, "3-byte PING tolerated"},
		"6.9/data-respects-window":         {Pass, ""},
		"6.9/window-overflow-conn":         {Fail, "window overflow accepted"},
		"6.9/window-update-bad-length":     {Fail, "3-byte WINDOW_UPDATE tolerated"},
		"8.1/head-no-body":                 {Fail, "HEAD: h2conn: wait timed out"},
		"9.2/grease-clienthello-alpn":      {Skip, "no TLS endpoint configured"},
	}
	dialer := &netsim.CountingDialer{DialFunc: func() (net.Conn, error) {
		client, server := netsim.Pipe()
		go deafPeer(server)
		return client, nil
	}}
	env := &Env{Dialer: dialer, Authority: "deaf.example", Timeout: 300 * time.Millisecond}
	got := make([]result, len(rfcChecks))
	var wg sync.WaitGroup
	for i, ch := range rfcChecks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i].v, got[i].detail = ch.Run(env)
		}()
	}
	wg.Wait()
	if opened, closed := dialer.Counts(); opened != closed {
		t.Errorf("checks opened %d connections and closed %d", opened, closed)
	}
	if len(want) != len(rfcChecks) {
		t.Errorf("%d rows pinned, %d in rfcChecks", len(want), len(rfcChecks))
	}
	for i, ch := range rfcChecks {
		t.Run(ch.ID, func(t *testing.T) {
			w, ok := want[ch.ID]
			if !ok {
				t.Fatalf("no deaf-peer verdict pinned; it drew %v (%s)", got[i].v, got[i].detail)
			}
			if got[i] != w {
				t.Errorf("%v (%s), want %v (%s)", got[i].v, got[i].detail, w.v, w.detail)
			}
		})
	}
}
