package conformance

import (
	"net"
	"runtime"
	"testing"
	"time"
)

// TestAbandonedServerHelloReaderExits pins the buffer on readServerHelloALPN's
// result channel: when the timeout wins the select nobody receives, so on an
// unbuffered channel the reader goroutine would block in its send for the
// life of the process — one per silent TLS target.
func TestAbandonedServerHelloReaderExits(t *testing.T) {
	client, silent := net.Pipe()
	defer silent.Close()
	base := runtime.NumGoroutine()
	if _, err := readServerHelloALPN(client, 10*time.Millisecond); err == nil {
		t.Fatal("a peer that never answers produced a ServerHello")
	}
	_ = client.Close() // fails the abandoned read; the reader now reports to nobody
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("reader goroutine still alive: %d goroutines, %d before the call", runtime.NumGoroutine(), base)
		}
	}
}
