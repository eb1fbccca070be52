package frame

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// fuzzSeeds returns one valid wire encoding of every frame type (plus an
// unknown type and a split header block), written by the package's own write
// path so the corpus stays in sync with the encoder.
func fuzzSeeds() [][]byte {
	frames := []func(fr *Framer) error{
		func(fr *Framer) error { return fr.WriteData(1, true, []byte("hello, world")) },
		func(fr *Framer) error {
			return fr.WriteHeaders(HeadersParams{
				StreamID:   3,
				Fragment:   []byte{0x82, 0x86, 0x84},
				EndStream:  true,
				EndHeaders: true,
				Priority:   PriorityParam{StreamDep: 1, Exclusive: true, Weight: 200},
			})
		},
		func(fr *Framer) error { return fr.WritePriority(5, PriorityParam{StreamDep: 3, Weight: 15}) },
		func(fr *Framer) error { return fr.WriteRSTStream(1, ErrCodeCancel) },
		func(fr *Framer) error {
			return fr.WriteSettings(
				Setting{SettingInitialWindowSize, 65535},
				Setting{SettingMaxFrameSize, DefaultMaxFrameSize})
		},
		func(fr *Framer) error { return fr.WriteSettingsAck() },
		func(fr *Framer) error { return fr.WritePushPromise(1, 2, true, []byte{0x82}) },
		func(fr *Framer) error { return fr.WritePing(false, [8]byte{1, 2, 3, 4, 5, 6, 7, 8}) },
		func(fr *Framer) error { return fr.WriteGoAway(7, ErrCodeProtocol, []byte("bye")) },
		func(fr *Framer) error { return fr.WriteWindowUpdate(0, 1<<16) },
		func(fr *Framer) error { return fr.WriteRawFrame(TypeContinuation, FlagEndHeaders, 3, []byte{0x84}) },
		func(fr *Framer) error { return fr.WriteRawFrame(Type(0xfa), 0x55, 9, []byte{0xde, 0xad}) },
		// A block split across HEADERS and two CONTINUATIONs.
		func(fr *Framer) error {
			return fr.WriteHeaders(HeadersParams{StreamID: 5, Fragment: bytes.Repeat([]byte{0x82}, 40), EndHeaders: true, MaxFrameSize: 16})
		},
	}
	seeds := make([][]byte, 0, len(frames)+1)
	var all bytes.Buffer
	for _, write := range frames {
		var buf bytes.Buffer
		if err := write(NewFramer(&buf, nil)); err != nil {
			panic(err)
		}
		seeds = append(seeds, buf.Bytes())
		all.Write(buf.Bytes())
	}
	// One seed with every frame back to back exercises the resync path.
	return append(seeds, all.Bytes())
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader. ReadFrame must
// never panic, and every frame it does accept must survive a semantic
// decode -> encode -> decode round trip (the write path normalizes padding
// away, so raw bytes are not compared). Every frame also goes through a
// HeaderBlock, which must never hand out a CONTINUATION or a block without
// END_HEADERS, nor keep more than maxHeaderBlockBytes.
func FuzzReadFrame(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x01, 0x00, 0x08, 0x00, 0x00, 0x00, 0x01, 0x05}) // padded DATA, padding > payload
	f.Add([]byte{0xff, 0xff, 0xff, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00})       // 16 MiB SETTINGS claim

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFramer(io.Discard, bytes.NewReader(data))
		fr.SetMaxReadFrameSize(DefaultMaxFrameSize) // bound per-frame allocation
		var hb HeaderBlock
		for {
			frm, err := fr.ReadFrame()
			if err == nil {
				checkRoundTrip(t, frm)
				frm, err = hb.Add(frm)
			}
			if len(hb.buf) > maxHeaderBlockBytes {
				t.Fatalf("HeaderBlock keeps %d octets", len(hb.buf))
			}
			if err != nil {
				// Protocol errors consume the whole frame, so the reader
				// stays aligned and can continue; anything else ends the
				// stream.
				var connErr ConnError
				var streamErr StreamError
				if errors.As(err, &connErr) || errors.As(err, &streamErr) {
					continue
				}
				return
			}
			switch f := frm.(type) {
			case *ContinuationFrame:
				t.Fatalf("HeaderBlock handed out %v", f.Header())
			case *HeadersFrame, *PushPromiseFrame:
				if !f.Header().Flags.Has(FlagEndHeaders) {
					t.Fatalf("HeaderBlock handed out %v without END_HEADERS", f.Header())
				}
			}
		}
	})
}

// checkRoundTrip re-encodes frm with the typed write path, reads it back, and
// compares the fields the write path preserves. Padding and unused flag bits
// are intentionally dropped by the writers, so the comparison is semantic.
func checkRoundTrip(t *testing.T, frm Frame) {
	t.Helper()
	var buf bytes.Buffer
	fw := NewFramer(&buf, nil)
	var err error
	switch f := frm.(type) {
	case *DataFrame:
		err = fw.WriteData(f.Header().StreamID, f.StreamEnded(), f.Data)
	case *HeadersFrame:
		err = fw.WriteHeaders(HeadersParams{
			StreamID:   f.Header().StreamID,
			Fragment:   f.Fragment,
			EndStream:  f.StreamEnded(),
			EndHeaders: f.HeadersEnded(),
			Priority:   f.Priority,
		})
	case *PriorityFrame:
		err = fw.WritePriority(f.Header().StreamID, f.Priority)
	case *RSTStreamFrame:
		err = fw.WriteRSTStream(f.Header().StreamID, f.Code)
	case *SettingsFrame:
		if f.IsAck() {
			err = fw.WriteSettingsAck()
		} else {
			err = fw.WriteSettings(f.Settings...)
		}
	case *PushPromiseFrame:
		err = fw.WritePushPromise(f.Header().StreamID, f.PromiseID, f.HeadersEnded(), f.Fragment)
	case *PingFrame:
		err = fw.WritePing(f.IsAck(), f.Data)
	case *GoAwayFrame:
		err = fw.WriteGoAway(f.LastStreamID, f.Code, f.DebugData)
	case *WindowUpdateFrame:
		err = fw.WriteWindowUpdate(f.Header().StreamID, f.Increment)
	case *ContinuationFrame:
		err = fw.WriteRawFrame(TypeContinuation, f.Header().Flags&FlagEndHeaders, f.Header().StreamID, f.Fragment)
	case *UnknownFrame:
		err = fw.WriteRawFrame(f.Header().Type, f.Header().Flags, f.Header().StreamID, f.Payload)
	default:
		t.Fatalf("ReadFrame returned unexpected frame type %T", frm)
	}
	if err != nil {
		t.Fatalf("re-encoding %v: %v", frm.Header(), err)
	}

	got, err := NewFramer(io.Discard, &buf).ReadFrame()
	if err != nil {
		t.Fatalf("re-reading %v: %v", frm.Header(), err)
	}
	compareFrames(t, frm, got)
}

func compareFrames(t *testing.T, want, got Frame) {
	t.Helper()
	if wh, gh := want.Header(), got.Header(); wh.Type != gh.Type || wh.StreamID != gh.StreamID {
		t.Fatalf("round trip changed identity: %v -> %v", wh, gh)
	}
	switch w := want.(type) {
	case *DataFrame:
		g := got.(*DataFrame)
		if !bytes.Equal(w.Data, g.Data) || w.StreamEnded() != g.StreamEnded() {
			t.Fatalf("DATA round trip: %+v -> %+v", w, g)
		}
	case *HeadersFrame:
		g := got.(*HeadersFrame)
		if !bytes.Equal(w.Fragment, g.Fragment) || w.Priority != g.Priority ||
			w.StreamEnded() != g.StreamEnded() || w.HeadersEnded() != g.HeadersEnded() {
			t.Fatalf("HEADERS round trip: %+v -> %+v", w, g)
		}
	case *PriorityFrame:
		g := got.(*PriorityFrame)
		if w.Priority != g.Priority {
			t.Fatalf("PRIORITY round trip: %+v -> %+v", w.Priority, g.Priority)
		}
	case *RSTStreamFrame:
		g := got.(*RSTStreamFrame)
		if w.Code != g.Code {
			t.Fatalf("RST_STREAM round trip: %v -> %v", w.Code, g.Code)
		}
	case *SettingsFrame:
		g := got.(*SettingsFrame)
		if w.IsAck() != g.IsAck() || len(w.Settings) != len(g.Settings) {
			t.Fatalf("SETTINGS round trip: %+v -> %+v", w, g)
		}
		for i := range w.Settings {
			if w.Settings[i] != g.Settings[i] {
				t.Fatalf("SETTINGS[%d] round trip: %v -> %v", i, w.Settings[i], g.Settings[i])
			}
		}
	case *PushPromiseFrame:
		g := got.(*PushPromiseFrame)
		if w.PromiseID != g.PromiseID || !bytes.Equal(w.Fragment, g.Fragment) ||
			w.HeadersEnded() != g.HeadersEnded() {
			t.Fatalf("PUSH_PROMISE round trip: %+v -> %+v", w, g)
		}
	case *PingFrame:
		g := got.(*PingFrame)
		if w.Data != g.Data || w.IsAck() != g.IsAck() {
			t.Fatalf("PING round trip: %+v -> %+v", w, g)
		}
	case *GoAwayFrame:
		g := got.(*GoAwayFrame)
		if w.LastStreamID != g.LastStreamID || w.Code != g.Code || !bytes.Equal(w.DebugData, g.DebugData) {
			t.Fatalf("GOAWAY round trip: %+v -> %+v", w, g)
		}
	case *WindowUpdateFrame:
		g := got.(*WindowUpdateFrame)
		if w.Increment != g.Increment {
			t.Fatalf("WINDOW_UPDATE round trip: %d -> %d", w.Increment, g.Increment)
		}
	case *ContinuationFrame:
		g := got.(*ContinuationFrame)
		if !bytes.Equal(w.Fragment, g.Fragment) || w.HeadersEnded() != g.HeadersEnded() {
			t.Fatalf("CONTINUATION round trip: %+v -> %+v", w, g)
		}
	case *UnknownFrame:
		g := got.(*UnknownFrame)
		if w.Header() != g.Header() || !bytes.Equal(w.Payload, g.Payload) {
			t.Fatalf("unknown-frame round trip: %v -> %v", w.Header(), g.Header())
		}
	}
}
