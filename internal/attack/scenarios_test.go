package attack

import (
	"encoding/binary"
	"io"
	"testing"

	"h2scope/internal/frame"
	"h2scope/internal/h2conn"
	"h2scope/internal/netsim"
)

// TestHPACKBombBlockShape sanity-checks the bomb builder: small wire size,
// huge decoded expansion (asserted via the amplification arithmetic, not a
// decoder, to keep the test independent of decode limits).
func TestHPACKBombBlockShape(t *testing.T) {
	block := hpackBombBlock(3000, 12000)
	if len(block) > 20<<10 {
		t.Fatalf("bomb block is %d bytes on the wire, want < 20KiB", len(block))
	}
	decoded := 12001 * (3000 + len("bomb") + 32)
	if decoded < 30<<20 {
		t.Fatalf("decoded expansion only %d bytes", decoded)
	}
}

// burstFrames runs a burst of ops operations of kind on a connection dialed
// with Options(kind) whose peer only reads, and returns what Burst reported
// with the header of every frame the burst put on the wire, in order.
func burstFrames(t *testing.T, kind Kind, ops int64) (int64, []frame.Header) {
	t.Helper()
	client, peer := netsim.Pipe()
	arrived := make(chan []frame.Header, 1)
	go func() {
		var hdrs []frame.Header
		var buf [9]byte
		_, err := io.ReadFull(peer, make([]byte, len(frame.ClientPreface)))
		for err == nil {
			if _, err = io.ReadFull(peer, buf[:]); err != nil {
				break
			}
			h := frame.Header{
				Length:   uint32(buf[0])<<16 | uint32(buf[1])<<8 | uint32(buf[2]),
				Type:     frame.Type(buf[3]),
				Flags:    frame.Flags(buf[4]),
				StreamID: binary.BigEndian.Uint32(buf[5:]) & 0x7fffffff,
			}
			hdrs = append(hdrs, h)
			_, err = io.CopyN(io.Discard, peer, int64(h.Length))
		}
		arrived <- hdrs
	}()
	c, err := h2conn.Dial(client, Options(kind))
	if err != nil {
		t.Fatal(err)
	}
	sent, err := Burst(c, kind, Params{Authority: "burst.example"}, ops)
	if err != nil {
		t.Fatalf("Burst(%s, %d): %v after %d", kind, ops, err, sent)
	}
	_ = c.Close()
	hdrs := <-arrived
	if len(hdrs) == 0 || hdrs[0].Type != frame.TypeSettings {
		t.Fatalf("first frame %v, want the client SETTINGS", hdrs)
	}
	return sent, hdrs[1:]
}

// TestBurstSendsExactlyOps: a burst of n operations is n of the scenario's
// own operations on the wire, no more and no fewer — the count the suite's
// attack checks are written in.
func TestBurstSendsExactlyOps(t *testing.T) {
	t.Run("rapid-reset", func(t *testing.T) {
		sent, hdrs := burstFrames(t, KindRapidReset, 100)
		if sent != 100 || len(hdrs) != 200 {
			t.Fatalf("sent %d, %d frames; want 100 and 200", sent, len(hdrs))
		}
		for i := 0; i < len(hdrs); i += 2 {
			h, r := hdrs[i], hdrs[i+1]
			if h.Type != frame.TypeHeaders || r.Type != frame.TypeRSTStream || h.StreamID != r.StreamID || h.StreamID != uint32(i+1) {
				t.Fatalf("pair %d: %v then %v, want HEADERS and RST_STREAM on stream %d", i/2, h, r, i+1)
			}
		}
	})
	t.Run("continuation-flood", func(t *testing.T) {
		sent, hdrs := burstFrames(t, KindContinuationFlood, 512)
		if sent != 512 || len(hdrs) != 512 {
			t.Fatalf("sent %d, %d frames; want 512 and 512", sent, len(hdrs))
		}
		for i, h := range hdrs {
			want := frame.TypeContinuation
			if i == 0 {
				want = frame.TypeHeaders
			}
			if h.Type != want || h.Length != continuationChunk || h.StreamID != 1 || h.Flags.Has(frame.FlagEndHeaders) {
				t.Fatalf("frame %d: %v, want an unterminated %v of %d octets on stream 1", i, h, want, continuationChunk)
			}
		}
	})
	t.Run("slow-drip", func(t *testing.T) {
		// Under slowDripStreams drips, one body per drip: the suite's single
		// drip holds one stream, not the connection's full set.
		sent, hdrs := burstFrames(t, KindSlowDrip, 1)
		if sent != 1 || len(hdrs) != 2 || hdrs[0].Type != frame.TypeHeaders || hdrs[1].Type != frame.TypeData || hdrs[1].Length != 1 {
			t.Fatalf("sent %d, frames %v; want HEADERS then one 1-octet DATA", sent, hdrs)
		}
	})
}
