package h2conn_test

import (
	"io"
	"net"
	"sync"
	"testing"

	"h2scope/internal/frame"
	"h2scope/internal/h2conn"
	"h2scope/internal/netsim"
)

// countingConn wraps a net.Conn and counts Write calls. On a real socket
// each call is one syscall, so the counts below are the syscall-reduction
// claim of write coalescing measured end to end.
type countingConn struct {
	net.Conn
	mu     sync.Mutex
	writes int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *countingConn) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes
}

// TestDialPreambleSingleWrite proves the connection preamble — client
// preface plus initial SETTINGS — leaves in one coalesced write instead of
// one write per element.
func TestDialPreambleSingleWrite(t *testing.T) {
	clientNC, serverNC := netsim.Pipe()
	cc := &countingConn{Conn: clientNC}
	c, err := h2conn.Dial(cc, h2conn.DefaultOptions())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() {
		_ = c.Close()
		_ = serverNC.Close()
	})
	if got := cc.count(); got != 1 {
		t.Errorf("connection preamble used %d writes, want 1", got)
	}

	// The peer must still see a well-formed byte stream: preface first,
	// then a non-ACK SETTINGS frame.
	buf := make([]byte, len(frame.ClientPreface))
	if _, err := io.ReadFull(serverNC, buf); err != nil {
		t.Fatalf("reading preface: %v", err)
	}
	if string(buf) != frame.ClientPreface {
		t.Fatalf("preface = %q", buf)
	}
	fr := frame.NewFramer(serverNC, serverNC)
	f, err := fr.ReadFrame()
	if err != nil {
		t.Fatalf("reading SETTINGS: %v", err)
	}
	if sf, ok := f.(*frame.SettingsFrame); !ok || sf.IsAck() {
		t.Fatalf("first frame after preface = %+v", f)
	}
}
