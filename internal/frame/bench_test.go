package frame

import (
	"bytes"
	"io"
	"testing"
)

// benchStream encodes count DATA frames of size bytes each and returns the
// wire bytes plus the total payload volume.
func benchStream(tb testing.TB, count, size int) ([]byte, int64) {
	tb.Helper()
	var buf bytes.Buffer
	w := NewFramer(&buf, nil)
	payload := bytes.Repeat([]byte{'x'}, size)
	for i := 0; i < count; i++ {
		if err := w.WriteData(uint32(2*i+1), i == count-1, payload); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes(), int64(count * size)
}

// countingWriter counts Write calls — each call models one syscall on a real
// connection, which is exactly what coalescing is meant to reduce.
type countingWriter struct {
	writes int
	bytes  int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

func BenchmarkFrameIO(b *testing.B) {
	const frames, size = 16, 1024

	b.Run("ReadFrame", func(b *testing.B) {
		wire, vol := benchStream(b, frames, size)
		rd := bytes.NewReader(wire)
		fr := NewFramer(nil, rd)
		b.SetBytes(vol)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rd.Reset(wire)
			for j := 0; j < frames; j++ {
				if _, err := fr.ReadFrame(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("WriteData", func(b *testing.B) {
		fr := NewFramer(io.Discard, nil)
		payload := bytes.Repeat([]byte{'x'}, size)
		b.SetBytes(int64(frames * size))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < frames; j++ {
				if err := fr.WriteData(1, false, payload); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("WriteDataCoalesced", func(b *testing.B) {
		fr := NewFramer(io.Discard, nil)
		fr.SetWriteBuffering(0)
		payload := bytes.Repeat([]byte{'x'}, size)
		b.SetBytes(int64(frames * size))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < frames; j++ {
				if err := fr.WriteData(1, false, payload); err != nil {
					b.Fatal(err)
				}
			}
			if err := fr.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestHotPathAllocs pins the zero-allocation contract for the frame hot
// paths: steady-state ReadFrame and WriteData must not allocate. The HPACK
// half of the contract lives in internal/hpack's TestHotPathAllocs.
func TestHotPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is skipped in -short mode")
	}
	const frames, size = 16, 1024

	t.Run("ReadFrame", func(t *testing.T) {
		wire, _ := benchStream(t, frames, size)
		rd := bytes.NewReader(wire)
		fr := NewFramer(nil, rd)
		readAll := func() {
			rd.Reset(wire)
			for j := 0; j < frames; j++ {
				if _, err := fr.ReadFrame(); err != nil {
					t.Fatal(err)
				}
			}
		}
		readAll() // warm the recycled buffer and scratch frame structs
		if n := testing.AllocsPerRun(200, readAll); n != 0 {
			t.Errorf("steady-state ReadFrame allocates %.1f times per %d frames, want 0", n, frames)
		}
	})

	t.Run("WriteData", func(t *testing.T) {
		fr := NewFramer(io.Discard, nil)
		payload := bytes.Repeat([]byte{'x'}, size)
		write := func() {
			if err := fr.WriteData(1, false, payload); err != nil {
				t.Fatal(err)
			}
		}
		write() // size the write buffer once
		if n := testing.AllocsPerRun(200, write); n != 0 {
			t.Errorf("steady-state WriteData allocates %.1f times per frame, want 0", n)
		}
	})

	t.Run("WriteDataCoalesced", func(t *testing.T) {
		fr := NewFramer(io.Discard, nil)
		fr.SetWriteBuffering(0)
		payload := bytes.Repeat([]byte{'x'}, size)
		burst := func() {
			for j := 0; j < frames; j++ {
				if err := fr.WriteData(1, false, payload); err != nil {
					t.Fatal(err)
				}
			}
			if err := fr.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		burst()
		if n := testing.AllocsPerRun(200, burst); n != 0 {
			t.Errorf("steady-state coalesced burst allocates %.1f times per %d frames, want 0", n, frames)
		}
	})

	// The reference path over a real socket: six 16 KiB quanta (one 96 KiB
	// response) and one Flush, i.e. one writev, against a draining reader.
	t.Run("WriteDataTCP", func(t *testing.T) {
		client, server := tcpPair(t)
		go func() {
			buf := make([]byte, 256<<10)
			for {
				if _, err := client.Read(buf); err != nil {
					return
				}
			}
		}()
		fr := NewFramer(server, nil)
		fr.SetWriteBuffering(0)
		payload := bytes.Repeat([]byte{'x'}, 16<<10)
		burst := func() {
			for j := 0; j < 6; j++ {
				if err := fr.WriteData(1, false, payload); err != nil {
					t.Fatal(err)
				}
			}
			if err := fr.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		burst() // size the reference scratch and the socket's iovec array once
		if n := testing.AllocsPerRun(200, burst); n != 0 {
			t.Errorf("steady-state vectored burst allocates %.1f times per 6 frames, want 0", n)
		}
		if len(fr.wbuf) != 0 || cap(fr.wbuf) >= len(payload) {
			t.Errorf("write buffer holds %d of %d octets after vectored bursts: payloads were copied", len(fr.wbuf), cap(fr.wbuf))
		}
	})
}

// TestWriteCoalescing asserts the syscall-reduction claim directly: with
// buffering on, a burst of frames reaches the writer as a single Write call
// on Flush, and the coalesced bytes decode identically to per-frame writes.
func TestWriteCoalescing(t *testing.T) {
	var cw countingWriter
	fr := NewFramer(&cw, nil)
	fr.SetWriteBuffering(0)

	const frames = 10
	payload := []byte("coalesce me")
	for i := 0; i < frames; i++ {
		if err := fr.WriteData(uint32(2*i+1), false, payload); err != nil {
			t.Fatal(err)
		}
	}
	if cw.writes != 0 {
		t.Fatalf("buffered framer issued %d writes before Flush, want 0", cw.writes)
	}
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 1 {
		t.Fatalf("burst of %d frames reached writer in %d writes, want 1", frames, cw.writes)
	}
	wantBytes := frames * (HeaderLen + len(payload))
	if cw.bytes != wantBytes {
		t.Fatalf("coalesced write carried %d bytes, want %d", cw.bytes, wantBytes)
	}
	// Flushing an empty buffer must not touch the writer.
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 1 {
		t.Fatalf("empty Flush reached the writer (writes = %d)", cw.writes)
	}
}

// TestUnbufferedWritesPerFrame pins the backward-compatible default: without
// SetWriteBuffering every frame is its own Write call.
func TestUnbufferedWritesPerFrame(t *testing.T) {
	var cw countingWriter
	fr := NewFramer(&cw, nil)
	for i := 0; i < 3; i++ {
		if err := fr.WriteData(1, false, []byte("abc")); err != nil {
			t.Fatal(err)
		}
	}
	if cw.writes != 3 {
		t.Fatalf("unbuffered framer issued %d writes for 3 frames, want 3", cw.writes)
	}
}

// TestAutoFlushAtThreshold proves a buffered framer bounds its memory: once
// the pending buffer crosses the threshold it flushes on its own, so a
// caller that never calls Flush still makes progress.
func TestAutoFlushAtThreshold(t *testing.T) {
	var cw countingWriter
	fr := NewFramer(&cw, nil)
	fr.SetWriteBuffering(64)

	payload := bytes.Repeat([]byte{'y'}, 40) // 49 bytes per frame incl. header
	if err := fr.WriteData(1, false, payload); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 0 {
		t.Fatalf("framer flushed below threshold (writes = %d)", cw.writes)
	}
	if err := fr.WriteData(1, false, payload); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 1 {
		t.Fatalf("framer crossed threshold without auto-flush (writes = %d)", cw.writes)
	}
	if cw.bytes != 2*(HeaderLen+len(payload)) {
		t.Fatalf("auto-flush wrote %d bytes, want both frames", cw.bytes)
	}
}

// TestCoalescedBytesDecode round-trips a mixed coalesced burst to prove the
// length back-patching in endWrite produces a valid wire image.
func TestCoalescedBytesDecode(t *testing.T) {
	var buf bytes.Buffer
	fr := NewFramer(&buf, nil)
	fr.SetWriteBuffering(0)
	if err := fr.WriteSettings(Setting{ID: SettingInitialWindowSize, Val: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if err := fr.WriteHeaders(HeadersParams{StreamID: 1, Fragment: []byte{0x82}, EndHeaders: true}); err != nil {
		t.Fatal(err)
	}
	if err := fr.WriteData(1, true, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}

	rd := NewFramer(nil, &buf)
	wantTypes := []Type{TypeSettings, TypeHeaders, TypeData}
	for i, want := range wantTypes {
		f, err := rd.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Header().Type != want {
			t.Fatalf("frame %d type = %v, want %v", i, f.Header().Type, want)
		}
	}
	if d, err := rd.ReadFrame(); err != io.EOF {
		t.Fatalf("trailing frame %v, err %v; want EOF", d, err)
	}
}
