package h2conn_test

import (
	"encoding/binary"
	"io"
	"testing"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/h2conn"
	"h2scope/internal/netsim"
	"h2scope/internal/trace"
)

// benchEchoServer answers PINGs at the frame level until the peer closes.
func benchEchoServer(b *testing.B, nc *netsim.Conn) {
	b.Helper()
	buf := make([]byte, len(frame.ClientPreface))
	if _, err := io.ReadFull(nc, buf); err != nil {
		return
	}
	fr := frame.NewFramer(nc, nc)
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			return
		}
		if p, ok := f.(*frame.PingFrame); ok && !p.IsAck() {
			if err := fr.WritePing(true, p.Data); err != nil {
				return
			}
		}
	}
}

// benchPingLoop measures full client frame round trips (one write and one
// dispatched read per op) with the given options.
func benchPingLoop(b *testing.B, opts h2conn.Options) {
	clientNC, serverNC := netsim.Pipe()
	go benchEchoServer(b, serverNC)
	c, err := h2conn.Dial(clientNC, opts)
	if err != nil {
		b.Fatalf("Dial: %v", err)
	}
	defer func() {
		_ = c.Close()
		_ = serverNC.Close()
	}()
	b.ResetTimer()
	var payload [8]byte
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(payload[:], uint64(i))
		if _, err := c.Ping(payload, 5*time.Second); err != nil {
			b.Fatalf("Ping: %v", err)
		}
	}
}

// BenchmarkConnFrameIO compares frame I/O through a connection with tracing
// disabled and enabled; the traced variant must stay within a few percent
// (the acceptance bound is 10%) of the untraced one.
func BenchmarkConnFrameIO(b *testing.B) {
	b.Run("untraced", func(b *testing.B) {
		benchPingLoop(b, h2conn.DefaultOptions())
	})
	b.Run("traced", func(b *testing.B) {
		opts := h2conn.DefaultOptions()
		// A 1Ki-event ring (vs the 8Ki default) keeps the slot array
		// cache-resident here; capacity changes retention, not the emit path.
		opts.Tracer = trace.New(1024)
		benchPingLoop(b, opts)
	})
}
