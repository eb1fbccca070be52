package server

import (
	"fmt"
	"testing"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/hpack"
)

// TestOversizedFrameDrawsFrameSizeError holds the server to the
// SETTINGS_MAX_FRAME_SIZE it advertises (RFC 7540 section 4.2), over a real
// socket: a frame of exactly that size is read and the PING behind it
// answered; a longer one draws GOAWAY(FRAME_SIZE_ERROR) naming the highest
// stream acted on, then the close, and the PING behind it is never answered.
// A profile that advertises more accepts up to what it advertises.
func TestOversizedFrameDrawsFrameSizeError(t *testing.T) {
	wide := NginxProfile()
	wide.Name, wide.MaxFrameSize = "advertises-1MiB", 1<<20
	for _, p := range append(TestbedProfiles(), wide) {
		t.Run(p.Name, func(t *testing.T) {
			cl := dialOversize(t, p)
			cl.step(func(fr *frame.Framer) {
				_ = fr.WriteRawFrame(0xfb, 0, 0, make([]byte, p.MaxFrameSize))
			})
			chunk := clientFrames(t, func(fr *frame.Framer) {
				_ = fr.WriteRawFrame(0xfb, 0, 0, make([]byte, max(1<<20, int(p.MaxFrameSize)+1)))
				_ = fr.WritePing(false, [8]byte{})
			})
			// The server's close may cut this write off mid-payload.
			go func() { _, _ = cl.nc.Write(chunk) }()
			cl.wantFrameSizeGoAway()
		})
	}

	// The verdict comes from the frame header alone: with no payload octet
	// ever sent there is nothing the server could have buffered.
	t.Run("header only", func(t *testing.T) {
		cl := dialOversize(t, NghttpdProfile())
		if _, err := cl.nc.Write([]byte{0x10, 0, 0, 0xfb, 0, 0, 0, 0, 0}); err != nil { // length 1 MiB
			t.Fatal(err)
		}
		cl.wantFrameSizeGoAway()
	})
}

// dialOversize serves one loopback TCP connection with profile p and has a
// GET on stream 1 acted on, so that GOAWAY has a stream to name.
func dialOversize(t *testing.T, p Profile) *scriptedClient {
	t.Helper()
	srv := New(p, DefaultSite("testbed.example"))
	nc, snc := tcpPair(t)
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.ServeConn(snc)
	}()
	t.Cleanup(func() {
		_ = nc.Close()
		<-served
	})
	_ = nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	cl := newScriptedClient(t, nc)
	cl.step(func(fr *frame.Framer) {
		_ = fr.WriteRawBytes([]byte(frame.ClientPreface))
		_ = fr.WriteSettings()
		_ = fr.WriteRawBytes(encodeRequest(t, hpack.NewEncoder(hpack.PolicyNoDynamicInsert), 1, "/about.html"))
	})
	return cl
}

// wantFrameSizeGoAway reads to the end of the connection: GOAWAY with
// FRAME_SIZE_ERROR and stream 1 must arrive, and no further PING ACK.
func (c *scriptedClient) wantFrameSizeGoAway() {
	c.t.Helper()
	var got string
	for {
		f, err := c.read()
		if err != nil {
			break // closed by the server (or the read deadline, reported below)
		}
		switch f := f.(type) {
		case *frame.PingFrame:
			if f.IsAck() {
				c.t.Fatal("the PING behind the oversized frame was answered: the frame was read in full")
			}
		case *frame.GoAwayFrame:
			got = fmt.Sprintf("GOAWAY(%v, last stream %d)", f.Code, f.LastStreamID)
		}
	}
	if want := fmt.Sprintf("GOAWAY(%v, last stream 1)", frame.ErrCodeFrameSize); got != want {
		c.t.Fatalf("connection ended with %q, want %s", got, want)
	}
}
