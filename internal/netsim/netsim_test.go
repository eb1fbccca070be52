package netsim

import (
	"bytes"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"
)

// raceEnabled is set under -race, whose runtime drops a share of
// sync.Pool puts on purpose.
var raceEnabled bool

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer func() {
		_ = a.Close()
		_ = b.Close()
	}()
	msg := []byte("hello over the simulated wire")
	go func() {
		if _, err := a.Write(msg); err != nil {
			t.Errorf("write: %v", err)
		}
	}()
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("got %q, want %q", buf, msg)
	}
}

func TestPipeWritesDoNotRendezvous(t *testing.T) {
	// Unlike net.Pipe, both ends must be able to write a burst before
	// either reads — this is exactly the simultaneous-SETTINGS pattern
	// that deadlocks protocol endpoints on synchronous pipes.
	a, b := Pipe()
	defer func() {
		_ = a.Close()
		_ = b.Close()
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			if _, err := a.Write(make([]byte, 1024)); err != nil {
				t.Errorf("a.Write: %v", err)
				return
			}
			if _, err := b.Write(make([]byte, 1024)); err != nil {
				t.Errorf("b.Write: %v", err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("writes blocked: pipe is rendezvous-based")
	}
}

func TestPipeEOFAfterClose(t *testing.T) {
	a, b := Pipe()
	if _, err := a.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	_ = a.Close()
	buf := make([]byte, 4)
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatalf("read buffered data after close: %v", err)
	}
	if _, err := b.Read(buf); err != io.EOF {
		t.Fatalf("read after drain = %v, want io.EOF", err)
	}
	if _, err := b.Write([]byte("x")); err == nil {
		t.Fatal("write to closed peer succeeded")
	}
}

func TestLatencyPipeDelaysDelivery(t *testing.T) {
	const owd = 20 * time.Millisecond
	a, b := LatencyPipe(owd, 0)
	defer func() {
		_ = a.Close()
		_ = b.Close()
	}()
	start := time.Now()
	if _, err := a.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := b.Read(buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < owd {
		t.Errorf("delivery took %v, want >= %v", elapsed, owd)
	}
}

func TestListenerAcceptDial(t *testing.T) {
	l := NewListener("site-a")
	defer func() {
		_ = l.Close()
	}()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		defer func() {
			_ = c.Close()
		}()
		buf := make([]byte, 2)
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Errorf("server read: %v", err)
			return
		}
		if _, err := c.Write(buf); err != nil {
			t.Errorf("server write: %v", err)
		}
	}()
	c, err := l.Dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() {
		_ = c.Close()
	}()
	if _, err := c.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if string(buf) != "hi" {
		t.Fatalf("echo = %q", buf)
	}
}

func TestListenerDialAfterClose(t *testing.T) {
	l := NewListener("dead")
	_ = l.Close()
	if _, err := l.Dial(); err == nil {
		t.Fatal("dial to closed listener succeeded")
	}
	if _, err := l.Accept(); err == nil {
		t.Fatal("accept on closed listener succeeded")
	}
}

func TestPathEstimators(t *testing.T) {
	const base = 10 * time.Millisecond
	p := NewPath(base, 2*time.Millisecond, 7)

	icmp, err := p.ICMPPing()
	if err != nil {
		t.Fatalf("ICMPPing: %v", err)
	}
	tcp, err := p.TCPHandshakeRTT()
	if err != nil {
		t.Fatalf("TCPHandshakeRTT: %v", err)
	}
	for name, rtt := range map[string]time.Duration{"icmp": icmp, "tcp": tcp} {
		if rtt < base {
			t.Errorf("%s RTT %v below ground truth %v", name, rtt, base)
		}
		if rtt > base+30*time.Millisecond {
			t.Errorf("%s RTT %v implausibly large", name, rtt)
		}
	}
}

func TestPipeConcurrentStress(t *testing.T) {
	// Many writers and one reader per direction, under load: all bytes
	// arrive, none duplicated.
	a, b := Pipe()
	defer func() {
		_ = a.Close()
		_ = b.Close()
	}()
	const (
		writers = 8
		chunks  = 200
		size    = 512
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, size)
			for i := 0; i < chunks; i++ {
				if _, err := a.Write(buf); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}()
	}
	done := make(chan int, 1)
	go func() {
		total := 0
		buf := make([]byte, 4096)
		for total < writers*chunks*size {
			n, err := b.Read(buf)
			if err != nil {
				t.Errorf("read: %v", err)
				break
			}
			total += n
		}
		done <- total
	}()
	wg.Wait()
	select {
	case total := <-done:
		if total != writers*chunks*size {
			t.Fatalf("read %d bytes, want %d", total, writers*chunks*size)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reader stalled")
	}
}

func TestLatencyPipePreservesOrder(t *testing.T) {
	a, b := LatencyPipe(2*time.Millisecond, 0)
	defer func() {
		_ = a.Close()
		_ = b.Close()
	}()
	for i := 0; i < 50; i++ {
		if _, err := a.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 50)
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	for i, v := range buf {
		if v != byte(i) {
			t.Fatalf("byte %d = %d: reordered", i, v)
		}
	}
}

func TestPathGroundTruthTracking(t *testing.T) {
	// Jitter-free path: both estimators must land within a small overhead
	// of the configured RTT.
	const base = 30 * time.Millisecond
	p := NewPath(base, 0, 1)
	icmp, err := p.ICMPPing()
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := p.TCPHandshakeRTT()
	if err != nil {
		t.Fatal(err)
	}
	for name, rtt := range map[string]time.Duration{"icmp": icmp, "tcp": tcp} {
		if rtt < base || rtt > base+15*time.Millisecond {
			t.Errorf("%s = %v, want %v..%v", name, rtt, base, base+15*time.Millisecond)
		}
	}
}

// poolPattern is byte i of the size-byte write a pipe sends in a round; it
// differs between pipes, rounds and sizes so a chunk array handed to the
// wrong pipe, or overwritten while still queued, shows up as a mismatch.
func poolPattern(pipe, round, size, i int) byte {
	return byte(pipe*31 + round*7 + size + i*13)
}

// TestPipePoolKeepsEachPipesBytes drives several pipes at once through the
// pooled chunk arrays: writes below, inside and above the pooled size range,
// each from a source slice the writer overwrites right after. Every reader
// must get exactly its own pipe's bytes, in order.
func TestPipePoolKeepsEachPipesBytes(t *testing.T) {
	sizes := []int{1, 9, 16393, 70 << 10}
	const (
		pipes  = 4
		rounds = 6
		readSz = 3000 // not a divisor of any write: reads straddle chunks
	)
	for _, tc := range []struct {
		name string
		pipe func() (*Conn, *Conn)
	}{
		{"Pipe", Pipe},
		{"LatencyPipe", func() (*Conn, *Conn) { return LatencyPipe(50*time.Microsecond, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var wg sync.WaitGroup
			for p := 0; p < pipes; p++ {
				a, b := tc.pipe()
				wg.Add(2)
				go func() {
					defer wg.Done()
					src := make([]byte, 70<<10)
					for r := 0; r < rounds; r++ {
						for _, size := range sizes {
							for i := range src[:size] {
								src[i] = poolPattern(p, r, size, i)
							}
							if _, err := a.Write(src[:size]); err != nil {
								t.Errorf("pipe %d: write: %v", p, err)
								return
							}
							clear(src) // the pipe must have copied
						}
					}
				}()
				go func() {
					defer wg.Done()
					defer func() {
						_ = a.Close()
						_ = b.Close()
					}()
					buf := make([]byte, readSz)
					for r := 0; r < rounds; r++ {
						for _, size := range sizes {
							for i := 0; i < size; {
								n, err := b.Read(buf[:min(readSz, size-i)])
								if err != nil {
									t.Errorf("pipe %d: read: %v", p, err)
									return
								}
								for k, v := range buf[:n] {
									if want := poolPattern(p, r, size, i+k); v != want {
										t.Errorf("pipe %d round %d: byte %d of the %d-byte write = %d, want %d",
											p, r, i+k, size, v, want)
										return
									}
								}
								i += n
							}
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestPipeChunkAllocs bounds what a write plus its read allocates once the
// pipe has warmed up: chunk arrays are recycled, not allocated per write.
func TestPipeChunkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops a share of sync.Pool puts on purpose")
	}
	a, b := Pipe()
	defer func() {
		_ = a.Close()
		_ = b.Close()
	}()
	src, dst := make([]byte, 16<<10), make([]byte, 16<<10)
	round := func() {
		if _, err := a.Write(src); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(b, dst); err != nil {
			t.Fatal(err)
		}
	}
	round()
	const rounds = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per >= 1<<10 {
		t.Errorf("a 16 KiB write plus read allocates %d B per round, want < 1 KiB", per)
	}
}

// BenchmarkPipeWriteRead16K is one 16 KiB write and the read that drains it.
func BenchmarkPipeWriteRead16K(b *testing.B) {
	a, c := Pipe()
	defer func() {
		_ = a.Close()
		_ = c.Close()
	}()
	src, dst := make([]byte, 16<<10), make([]byte, 16<<10)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := a.Write(src); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(c, dst); err != nil {
			b.Fatal(err)
		}
	}
}
