package main

import (
	"io"
	"net"
	"testing"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/hpack"
	"h2scope/internal/netsim"
)

// fakeServer is a scripted HTTP/2 peer for the driver: it completes the
// connection set-up advertising maxConc concurrent streams, then answers
// each request the way script says for its position in the connection.
type fakeServer struct {
	nc      net.Conn
	fr      *frame.Framer
	enc     *hpack.Encoder
	maxConc uint32
	script  func(n int, id uint32, fs *fakeServer)
	done    chan struct{}
	// sawAck and windowUpdates record what the driver sent back.
	sawAck        bool
	windowUpdates int
}

func (fs *fakeServer) serve() {
	defer close(fs.done)
	defer fs.nc.Close()
	preface := make([]byte, len(frame.ClientPreface))
	if _, err := io.ReadFull(fs.nc, preface); err != nil {
		return
	}
	_ = fs.fr.WriteSettings(frame.Setting{ID: frame.SettingMaxConcurrentStreams, Val: fs.maxConc})
	_ = fs.fr.WriteSettingsAck()
	n := 0
	for {
		f, err := fs.fr.ReadFrame()
		if err != nil {
			return
		}
		switch f := f.(type) {
		case *frame.SettingsFrame:
			fs.sawAck = fs.sawAck || f.IsAck()
		case *frame.WindowUpdateFrame:
			fs.windowUpdates++
		case *frame.HeadersFrame:
			id := f.Header().StreamID
			fs.script(n, id, fs)
			n++
		case *frame.GoAwayFrame:
			return
		}
	}
}

func (fs *fakeServer) respond(id uint32, status string, body []byte) {
	block := fs.enc.AppendBlock(nil, []hpack.HeaderField{{Name: ":status", Value: status}})
	_ = fs.fr.WriteHeaders(frame.HeadersParams{StreamID: id, Fragment: block, EndHeaders: true, EndStream: len(body) == 0})
	for len(body) > 0 {
		n := min(len(body), frame.DefaultMaxFrameSize)
		_ = fs.fr.WriteData(id, n == len(body), body[:n])
		body = body[n:]
	}
}

// fakeDriver returns a driver whose every connection is answered by a
// fakeServer running script, and the servers it started.
func fakeDriver(t *testing.T, objects []object, maxConc uint32, timeout time.Duration,
	script func(n int, id uint32, fs *fakeServer)) (*driver, *[]*fakeServer) {
	t.Helper()
	var servers []*fakeServer
	next := 0
	d := &driver{
		objects:     objects,
		next:        func() int { next++; return (next - 1) % len(objects) },
		timeout:     timeout,
		perRequest:  true,
		verifyEvery: 1,
		readBuf:     8 << 10,
		sink:        &opSink{},
		dial: func() (io.ReadWriteCloser, error) {
			cli, srv := netsim.Pipe() // buffered: net.Pipe would deadlock a batch against its answers
			fs := &fakeServer{nc: srv, fr: frame.NewFramer(srv, srv), enc: hpack.NewEncoder(hpack.PolicyIndexAll),
				maxConc: maxConc, script: script, done: make(chan struct{})}
			servers = append(servers, fs)
			go fs.serve()
			return cli, nil
		},
	}
	t.Cleanup(func() {
		for _, fs := range servers {
			_ = fs.nc.Close()
			<-fs.done
		}
	})
	return d, &servers
}

func testObjects() []object {
	return []object{
		{Path: "/a", Body: []byte("alpha")},
		{Path: "/b", Body: []byte("bravo")},
		{Path: "/c", Body: []byte("charlie")},
		{Path: "/d", Body: []byte("delta")},
	}
}

// Every way a request can go wrong is a failed op, and none of them hangs
// or ends the batch early.
func TestDriverCountsFailuresAndHonoursMaxConcurrent(t *testing.T) {
	objs := testObjects()
	d, servers := fakeDriver(t, objs, 4, 2*time.Second, func(n int, id uint32, fs *fakeServer) {
		switch n {
		case 0:
			fs.respond(id, "200", objs[0].Body)
		case 1:
			_ = fs.fr.WriteRSTStream(id, frame.ErrCodeRefusedStream)
		case 2:
			fs.respond(id, "404", []byte("nope"))
		case 3:
			fs.respond(id, "200", objs[3].Body[:2]) // short body
		}
	})
	c, _, err := d.connect()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if c.maxConc != 4 {
		t.Fatalf("maxConc = %d, want the server's 4", c.maxConc)
	}
	d.runBatch(c, 32) // asks for 32, may open 4
	if d.b.n != 4 || d.sink.allOps != 4 {
		t.Errorf("batch opened %d streams and settled %d ops, want 4 and 4", d.b.n, d.sink.allOps)
	}
	if d.sink.allFailed != 3 || d.b.okOps != 1 || d.b.okBytes != len(objs[0].Body) {
		t.Errorf("failed %d, ok %d (%d B); want 3 failed, 1 ok of %d B", d.sink.allFailed, d.b.okOps, d.b.okBytes, len(objs[0].Body))
	}
	if c.dead || c.goaway {
		t.Errorf("stream-level failures ended the connection: dead=%v goaway=%v err=%v", c.dead, c.goaway, c.err)
	}
	if err := c.goAwayAndClose(); err != nil {
		t.Errorf("goAwayAndClose: %v", err)
	}
	<-(*servers)[0].done
	if !(*servers)[0].sawAck {
		t.Error("driver never ACKed the server's SETTINGS")
	}
}

func TestDriverWrongBytesSameLength(t *testing.T) {
	objs := testObjects()
	d, _ := fakeDriver(t, objs, 100, 2*time.Second, func(n int, id uint32, fs *fakeServer) {
		fs.respond(id, "200", []byte("alphA"))
	})
	c, _, err := d.connect()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	d.runBatch(c, 1)
	if d.sink.allFailed != 1 {
		t.Errorf("a body of the right length and wrong bytes passed verification")
	}
}

func TestDriverGoAwayCutsBatch(t *testing.T) {
	objs := testObjects()
	d, _ := fakeDriver(t, objs, 100, 2*time.Second, func(n int, id uint32, fs *fakeServer) {
		if n == 0 {
			// Promise the first stream only, then keep the promise.
			_ = fs.fr.WriteGoAway(id, frame.ErrCodeNo, nil)
			fs.respond(id, "200", objs[0].Body)
		}
	})
	c, _, err := d.connect()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	d.runBatch(c, 4)
	if !c.goaway {
		t.Error("GOAWAY not noticed")
	}
	if d.sink.allOps != 4 || d.sink.allFailed != 3 {
		t.Errorf("settled %d ops, %d failed; want 4 and 3 (streams past the GOAWAY cutoff)", d.sink.allOps, d.sink.allFailed)
	}
}

func TestDriverWatchdogEndsSilentBatch(t *testing.T) {
	objs := testObjects()
	d, _ := fakeDriver(t, objs, 100, 50*time.Millisecond, func(n int, id uint32, fs *fakeServer) {
		if n == 0 {
			fs.respond(id, "200", objs[0].Body)
		} // and silence for the rest
	})
	c, _, err := d.connect()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	d.runBatch(c, 3)
	if took := time.Since(start); took > time.Second {
		t.Errorf("silent server held the batch for %v", took)
	}
	if !c.dead || d.sink.allOps != 3 || d.sink.allFailed != 2 {
		t.Errorf("dead=%v ops=%d failed=%d; want the connection closed, 3 ops, 2 failed", c.dead, d.sink.allOps, d.sink.allFailed)
	}
}

func TestDriverReplenishesConnectionWindow(t *testing.T) {
	big := []object{{Path: "/big", Body: make([]byte, 1<<20)}}
	d, servers := fakeDriver(t, big, 100, 5*time.Second, func(n int, id uint32, fs *fakeServer) {
		fs.respond(id, "200", big[0].Body)
	})
	d.verifyEvery = 1 << 30
	c, _, err := d.connect()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	// 16 MiB of bodies cross the 7.5 MiB refill mark twice.
	for i := 0; i < 16; i++ {
		d.runBatch(c, 1)
	}
	if d.sink.allFailed != 0 || c.wuSent != 2 {
		t.Errorf("failed %d, connection WINDOW_UPDATEs sent %d; want 0 and 2", d.sink.allFailed, c.wuSent)
	}
	if err := c.goAwayAndClose(); err != nil {
		t.Errorf("goAwayAndClose: %v", err)
	}
	<-(*servers)[0].done
	// The handshake's own connection-window raise is one more.
	if got := (*servers)[0].windowUpdates; got != 3 {
		t.Errorf("server saw %d WINDOW_UPDATEs, want 3", got)
	}
}
