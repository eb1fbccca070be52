package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"h2scope/internal/frame"
)

// lockedBuffer is run's stdout: written by run's goroutines, polled by the
// test.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var servingLine = regexp.MustCompile(`on h2c-prior-knowledge (\S+)`)

// TestStopSignalShutsDownGracefully is the SIGINT/SIGTERM path with the
// signal replaced by the context main derives from it: a connected client
// reads GOAWAY(NO_ERROR), run returns nil well inside the grace once the
// client hangs up, and the deferred flight-recorder Close — the only writer
// of manifest.json — has run.
func TestStopSignalShutsDownGracefully(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out lockedBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-profile", "nghttpd", "-addr", "127.0.0.1:0", "-flightrec", dir}, &out)
	}()

	var addr string
	for deadline := time.Now().Add(5 * time.Second); addr == ""; time.Sleep(time.Millisecond) {
		if m := servingLine.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		}
		select {
		case err := <-done:
			t.Fatalf("run returned before serving: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no serving line on stdout:\n%s", out.String())
		}
	}

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nc.Close() }()
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	fr := frame.NewFramer(nc, nc)
	if err := fr.WriteRawBytes([]byte(frame.ClientPreface)); err != nil {
		t.Fatal(err)
	}
	if err := fr.WriteSettings(); err != nil {
		t.Fatal(err)
	}
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	// The server's SETTINGS proves the connection is being served (and so is
	// in the table Shutdown sweeps) before the stop is delivered.
	if f, err := fr.ReadFrame(); err != nil {
		t.Fatalf("reading server SETTINGS: %v", err)
	} else if _, ok := f.(*frame.SettingsFrame); !ok {
		t.Fatalf("first frame = %T, want SETTINGS", f)
	}

	stopped := time.Now()
	cancel()
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			t.Fatalf("connection ended before GOAWAY: %v", err)
		}
		if ga, ok := f.(*frame.GoAwayFrame); ok {
			if ga.Code != frame.ErrCodeNo {
				t.Errorf("GOAWAY code = %v, want NO_ERROR", ga.Code)
			}
			break
		}
	}
	_ = nc.Close()

	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run = %v after stop, want nil", err)
		}
	case <-time.After(shutdownGrace):
		t.Fatal("run still serving a full grace after the client hung up")
	}
	if took := time.Since(stopped); took >= shutdownGrace {
		t.Errorf("stop took %v, want well under the %v grace", took, shutdownGrace)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Errorf("flight-recorder manifest not written on stop: %v", err)
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Errorf("stdout does not announce the shutdown:\n%s", out.String())
	}
}

// TestShardsFlagIsGone pins the removed surface: the flag is an error, not
// accepted and ignored.
func TestShardsFlagIsGone(t *testing.T) {
	err := run(context.Background(), []string{"-shards", "2"}, &lockedBuffer{})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -shards") {
		t.Fatalf("run(-shards 2) = %v, want an unknown-flag error", err)
	}
}
