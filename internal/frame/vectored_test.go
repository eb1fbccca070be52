package frame

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
)

// sinkRecorder stands in for the framer's vectored sink. It keeps the slice
// headers of every call (not copies of the bytes, so aliasing stays
// checkable), then either fails or consumes the vector into wire the way
// net.Buffers.WriteTo does on a socket.
type sinkRecorder struct {
	calls [][][]byte
	wire  bytes.Buffer
	err   error
}

func (r *sinkRecorder) writev(v *net.Buffers) (int64, error) {
	r.calls = append(r.calls, append([][]byte(nil), *v...))
	if r.err != nil {
		return 0, r.err
	}
	return v.WriteTo(&r.wire)
}

// vectoredFramer returns a coalescing framer that takes the reference path
// into rec; whatever still goes through Write lands in plain.
func vectoredFramer(rec *sinkRecorder, plain io.Writer) *Framer {
	fr := NewFramer(plain, nil)
	fr.SetWriteBuffering(0)
	fr.writev = rec.writev
	return fr
}

// mixedBurst writes the frames the vectored tests share and returns the two
// payloads large enough to go by reference.
func mixedBurst(t *testing.T, fr *Framer) (big, mid []byte) {
	t.Helper()
	big = bytes.Repeat([]byte{'B'}, 16<<10)
	mid = bytes.Repeat([]byte{'M'}, 9<<10)
	small := bytes.Repeat([]byte{'s'}, 100)
	for _, err := range []error{
		fr.WriteHeaders(HeadersParams{StreamID: 1, Fragment: []byte{0x88}, EndHeaders: true}),
		fr.WriteData(1, false, big),
		fr.WriteData(3, true, small),
		fr.WriteData(1, true, mid),
		fr.WritePing(true, [8]byte{1, 2, 3, 4, 5, 6, 7, 8}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return big, mid
}

// noRefsHeld fails the test if the framer still points at caller memory.
func noRefsHeld(t *testing.T, fr *Framer) {
	t.Helper()
	if len(fr.iov) != 0 || fr.runStart != 0 {
		t.Errorf("%d slices pending from offset %d after Flush, want 0 from 0", len(fr.iov), fr.runStart)
	}
	for i, b := range fr.iov[:cap(fr.iov)] {
		if b != nil {
			t.Errorf("iov[%d] still holds a %d-octet slice after Flush", i, len(b))
		}
	}
}

// TestVectoredFlushAliasesPayloads: a mixed burst leaves in ONE vectored call
// whose slices alternate runs of the framer's copied octets with the caller's
// payloads — the caller's memory, not copies — and whose bytes are exactly
// what the copy path writes.
func TestVectoredFlushAliasesPayloads(t *testing.T) {
	var rec sinkRecorder
	var plain countingWriter
	fr := vectoredFramer(&rec, &plain)
	big, mid := mixedBurst(t, fr)
	if len(rec.calls) != 0 || plain.writes != 0 {
		t.Fatalf("%d vectored calls and %d writes before Flush, want none: referenced octets must not count toward the threshold",
			len(rec.calls), plain.writes)
	}
	wbuf := fr.wbuf
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(rec.calls) != 1 || plain.writes != 0 {
		t.Fatalf("burst left in %d vectored calls and %d plain writes, want 1 and 0", len(rec.calls), plain.writes)
	}
	got := rec.calls[0]
	// HEADERS + DATA header | big | DATA header + small + DATA header | mid | PING
	wantLens := []int{HeaderLen + 1 + HeaderLen, len(big), HeaderLen + 100 + HeaderLen, len(mid), HeaderLen + 8}
	if len(got) != len(wantLens) {
		t.Fatalf("vectored call carries %d slices, want %d", len(got), len(wantLens))
	}
	off := 0
	for i, b := range got {
		if len(b) != wantLens[i] {
			t.Fatalf("slice %d is %d octets, want %d", i, len(b), wantLens[i])
		}
		if i%2 == 1 {
			continue
		}
		// Equal octets, not the same address: this first burst grows wbuf
		// under the runs already cut from it.
		if !bytes.Equal(b, wbuf[off:off+len(b)]) {
			t.Errorf("slice %d is not the framer's copied octets at offset %d", i, off)
		}
		off += len(b)
	}
	if off != len(wbuf) {
		t.Errorf("header runs cover %d of %d buffered octets", off, len(wbuf))
	}
	if &got[1][0] != &big[0] || &got[3][0] != &mid[0] {
		t.Error("a referenced payload was copied: the slice does not alias the caller's memory")
	}
	noRefsHeld(t, fr)

	var want bytes.Buffer
	ref := NewFramer(&want, nil)
	ref.SetWriteBuffering(0)
	mixedBurst(t, ref)
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.wire.Bytes(), want.Bytes()) {
		t.Errorf("vectored wire image (%d octets) differs from the copy path's (%d octets)", rec.wire.Len(), want.Len())
	}
}

// TestVectoredCutoff: a payload one octet under the cutoff is copied and the
// flush is the plain single Write; at the cutoff it goes by reference.
func TestVectoredCutoff(t *testing.T) {
	var rec sinkRecorder
	var plain countingWriter
	fr := vectoredFramer(&rec, &plain)
	for _, p := range [][]byte{nil, make([]byte, refCutoff-1)} {
		if err := fr.WriteData(1, false, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(rec.calls) != 0 || plain.writes != 1 || plain.bytes != 2*HeaderLen+refCutoff-1 {
		t.Fatalf("sub-cutoff frames: %d vectored calls, %d writes of %d octets; want 0, 1, %d",
			len(rec.calls), plain.writes, plain.bytes, 2*HeaderLen+refCutoff-1)
	}
	if err := fr.WriteData(1, true, make([]byte, refCutoff)); err != nil {
		t.Fatal(err)
	}
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(rec.calls) != 1 || plain.writes != 1 {
		t.Fatalf("cutoff-sized frame: %d vectored calls, %d writes; want 1, 1", len(rec.calls), plain.writes)
	}
}

// TestVectoredSinkFailure: a failing sink drops everything pending — copied
// octets and references alike, as a failed Write always has — and the framer
// is usable afterwards.
func TestVectoredSinkFailure(t *testing.T) {
	rec := sinkRecorder{err: errors.New("peer went away")}
	fr := vectoredFramer(&rec, io.Discard)
	mixedBurst(t, fr)
	if err := fr.Flush(); !errors.Is(err, rec.err) {
		t.Fatalf("Flush = %v, want the sink's error", err)
	}
	if len(fr.wbuf) != 0 {
		t.Errorf("%d octets still pending after the failed flush", len(fr.wbuf))
	}
	noRefsHeld(t, fr)

	rec.err = nil
	payload := bytes.Repeat([]byte{'R'}, refCutoff)
	if err := fr.WriteData(5, true, payload); err != nil {
		t.Fatal(err)
	}
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	rd := NewFramer(nil, &rec.wire)
	f, err := rd.ReadFrame()
	if err != nil {
		t.Fatalf("frame after the failed flush: %v", err)
	}
	if d, ok := f.(*DataFrame); !ok || d.Header().StreamID != 5 || !bytes.Equal(d.Data, payload) {
		t.Fatalf("frame after the failed flush = %v, want the stream 5 DATA alone", f.Header())
	}
	if _, err := rd.ReadFrame(); err != io.EOF {
		t.Fatalf("octets of the dropped burst reached the wire (err %v)", err)
	}
}

// TestVectoredRefCapForcesFlush: the reference that fills the vector flushes
// without an explicit Flush, so it is bounded whatever window the peer offers.
func TestVectoredRefCapForcesFlush(t *testing.T) {
	var rec sinkRecorder
	fr := vectoredFramer(&rec, io.Discard)
	payload := make([]byte, refCutoff)
	const maxRefs = maxIovecs / 2
	for i := 1; i <= maxRefs; i++ {
		if err := fr.WriteData(1, false, payload); err != nil {
			t.Fatal(err)
		}
		if want := i / maxRefs; len(rec.calls) != want {
			t.Fatalf("%d vectored calls after %d references, want %d", len(rec.calls), i, want)
		}
	}
	if got := len(rec.calls[0]); got != maxIovecs {
		t.Errorf("forced flush carried %d slices, want %d", got, maxIovecs)
	}
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(rec.calls) != 1 {
		t.Errorf("Flush with nothing pending made vectored call %d", len(rec.calls))
	}
	noRefsHeld(t, fr)
}

// hiddenTCP hides the *net.TCPConn behind a struct, the way tracing and TLS
// wrappers do.
type hiddenTCP struct{ net.Conn }

// tcpPair returns both ends of one loopback TCP connection.
func tcpPair(tb testing.TB) (client, server *net.TCPConn) {
	tb.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer l.Close()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	s, err := l.Accept()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		_ = c.Close()
		_ = s.Close()
	})
	return c.(*net.TCPConn), s.(*net.TCPConn)
}

// TestVectoredOnlyOnTCPConn pins the writer test: references are taken only
// by a coalescing framer writing straight to a *net.TCPConn, and what arrives
// over the socket is what the copy path produces.
func TestVectoredOnlyOnTCPConn(t *testing.T) {
	client, server := tcpPair(t)
	if fr := NewFramer(server, nil); fr.writev != nil {
		t.Error("unbuffered framer took the vectored path")
	}
	for _, w := range []io.Writer{hiddenTCP{server}, &bytes.Buffer{}} {
		fr := NewFramer(w, nil)
		fr.SetWriteBuffering(0)
		if fr.writev != nil {
			t.Errorf("coalescing framer on %T took the vectored path", w)
		}
	}
	fr := NewFramer(server, nil)
	fr.SetWriteBuffering(0)
	if fr.writev == nil {
		t.Fatal("coalescing framer on *net.TCPConn kept the copy path")
	}

	var want bytes.Buffer
	ref := NewFramer(&want, nil)
	ref.SetWriteBuffering(0)
	mixedBurst(t, ref)
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	mixedBurst(t, fr)
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, want.Len())
	if _, err := io.ReadFull(client, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("octets read from the socket differ from the copy path's wire image")
	}
}

// TestVectoredConcurrentFlush is the server's Shutdown shape: one goroutine
// queues DATA by reference and flushes per burst while a second writes and
// flushes control frames of its own, so either may carry out the other's
// pending references. Over a real socket every frame must still arrive whole
// and every payload intact; -race covers the reference scratch.
func TestVectoredConcurrentFlush(t *testing.T) {
	client, server := tcpPair(t)
	fr := NewFramer(server, nil)
	fr.SetWriteBuffering(0)
	payload := bytes.Repeat([]byte{'x'}, 16<<10)
	const bursts, perBurst = 200, 6

	writers := make(chan error, 2)
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		for i := 0; i < bursts; i++ {
			for j := 0; j < perBurst; j++ {
				if err := fr.WriteData(1, false, payload); err != nil {
					writers <- err
					return
				}
			}
			if err := fr.Flush(); err != nil {
				writers <- err
				return
			}
		}
		writers <- nil
	}()
	go func() {
		for {
			select {
			case <-stop:
				writers <- nil
				return
			default:
			}
			if err := fr.WritePing(false, [8]byte{'p'}); err != nil {
				writers <- err
				return
			}
			if err := fr.Flush(); err != nil {
				writers <- err
				return
			}
		}
	}()

	rd := NewFramer(nil, client)
	for data := 0; data < bursts*perBurst; {
		f, err := rd.ReadFrame()
		if err != nil {
			t.Fatalf("after %d DATA frames: %v", data, err)
		}
		switch f := f.(type) {
		case *DataFrame:
			if !bytes.Equal(f.Data, payload) {
				t.Fatalf("DATA frame %d arrived with a wrong payload (%d octets)", data, len(f.Data))
			}
			data++
		case *PingFrame:
		default:
			t.Fatalf("unexpected %v between the bursts", f.Header())
		}
	}
	for i := 0; i < cap(writers); i++ {
		if err := <-writers; err != nil {
			t.Errorf("writer: %v", err)
		}
	}
}

// TestFlushBoundPerWriter pins SetWriteBuffering(0)'s bound per writer:
// 20 KiB of small DATA frames reach a writer that is not a *net.TCPConn in
// two Writes (one when the pending octets pass 16 KiB, one on Flush), while
// over a TCP loopback pair the same frames are all still pending before
// Flush and arrive whole after it.
func TestFlushBoundPerWriter(t *testing.T) {
	payload := bytes.Repeat([]byte{'s'}, 1<<10)
	const frames = 20
	burst := func(fr *Framer) {
		t.Helper()
		for i := 0; i < frames; i++ {
			if err := fr.WriteData(uint32(2*i+1), true, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	const total = frames * (HeaderLen + 1<<10)

	var plain countingWriter
	fr := NewFramer(&plain, nil)
	fr.SetWriteBuffering(0)
	burst(fr)
	if plain.writes != 1 {
		t.Errorf("%d Writes before Flush, want 1: the 16 KiB bound", plain.writes)
	}
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	if plain.writes != 2 || plain.bytes != total {
		t.Errorf("%d Writes of %d octets, want 2 of %d", plain.writes, plain.bytes, total)
	}

	client, server := tcpPair(t)
	fr = NewFramer(server, nil)
	fr.SetWriteBuffering(0)
	burst(fr)
	if len(fr.wbuf) != total {
		t.Errorf("%d octets pending before Flush over TCP, want all %d", len(fr.wbuf), total)
	}
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, total)
	if _, err := io.ReadFull(client, got); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		frame := got[i*(HeaderLen+1<<10):]
		if hdr := parseHeader(frame); hdr.Type != TypeData || hdr.StreamID != uint32(2*i+1) || hdr.Length != 1<<10 {
			t.Fatalf("frame %d arrived as %v", i, hdr)
		}
	}
}
