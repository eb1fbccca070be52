package main

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// tracedPair returns the server half of a fresh TCP loopback connection,
// wrapped by hub, and the bare client half.
func tracedPair(t *testing.T, hub *traceHub) (*tracedConn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cli, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	nc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return hub.wrap(nc, time.Now()), cli
}

func TestTracedConnAccounting(t *testing.T) {
	hub := newTraceHub(8, 1)
	srv, cli := tracedPair(t, hub)
	port := cli.LocalAddr().(*net.TCPAddr).Port
	if hub.lookup(port) != srv {
		t.Fatal("hub does not find the server half by the client's port")
	}

	const wait = 30 * time.Millisecond
	go func() {
		time.Sleep(wait)
		_, _ = cli.Write(bytes.Repeat([]byte{'i'}, 100))
	}()
	buf := make([]byte, 4096)
	before := time.Now()
	if n, err := srv.Read(buf); err != nil || n != 100 {
		t.Fatalf("Read = %d, %v; want 100, nil", n, err)
	}
	if n, err := srv.Write(bytes.Repeat([]byte{'o'}, 300)); err != nil || n != 300 {
		t.Fatalf("Write = %d, %v; want 300, nil", n, err)
	}
	after := time.Now()
	if _, err := io.ReadFull(cli, make([]byte, 300)); err != nil {
		t.Fatal(err)
	}

	if srv.reads != 1 || srv.writes != 1 || srv.bytesIn != 100 || srv.bytesOut != 300 {
		t.Errorf("reads %d writes %d bytesIn %d bytesOut %d; want 1 1 100 300",
			srv.reads, srv.writes, srv.bytesIn, srv.bytesOut)
	}
	// The Read blocked until the client wrote; that wait is read time.
	if got := time.Duration(srv.readNS); got < wait*8/10 || got > after.Sub(before) {
		t.Errorf("readNS = %v, want between %v and %v", got, wait*8/10, after.Sub(before))
	}
	if srv.writeNS <= 0 || time.Duration(srv.writeNS) > after.Sub(before) {
		t.Errorf("writeNS = %v, want in (0, %v]", time.Duration(srv.writeNS), after.Sub(before))
	}
	if srv.firstWrite.IsZero() || srv.firstWrite.Before(srv.acceptedAt) {
		t.Errorf("firstWrite %v not after accept %v", srv.firstWrite, srv.acceptedAt)
	}
	if !bytes.Equal(srv.cap.ingress, buf[:100]) || len(srv.cap.egress) != 300 {
		t.Errorf("captured %d B in, %d B out; want 100, 300", len(srv.cap.ingress), len(srv.cap.egress))
	}
	if want := []ioEvent{{false, 100}, {true, 300}}; len(srv.cap.events) != 2 ||
		srv.cap.events[0] != want[0] || srv.cap.events[1] != want[1] {
		t.Errorf("events = %v, want %v", srv.cap.events, want)
	}
	// One busy interval: Read return → Write return.
	busy := srv.busyIntervals(before, after)
	if len(busy) != 1 || busy[0][1].Before(busy[0][0]) || busy[0][1].Sub(busy[0][0]) > after.Sub(before)-wait*8/10 {
		t.Errorf("busy intervals = %v, want one short Read-return → Write-return interval", busy)
	}

	_ = srv.Close()
	_ = srv.Close() // folding happens once
	if !hub.quiesce(time.Second) {
		t.Fatal("hub still has active connections after Close")
	}
	tot := hub.totals()
	if tot.conns != 1 || tot.reads != 1 || tot.writes != 1 || tot.bytesIn != 100 || tot.bytesOut != 300 {
		t.Errorf("totals = %+v; want 1 conn, 1 read, 1 write, 100 B in, 300 B out", tot)
	}
	if tot.setupConns != 1 || tot.setupNS <= 0 || tot.lifeNS < tot.readNS+tot.writeNS {
		t.Errorf("totals = %+v; want set-up time of 1 conn and life >= read+write", tot)
	}
	if hub.lookup(port) != nil {
		t.Error("closed connection still registered under its port")
	}
	if caps := hub.captured(); len(caps) != 1 || len(caps[0].ingress) != 100 {
		t.Errorf("captured() = %d captures", len(caps))
	}
}

func TestTracedConnRingWrapsAndCaptureStops(t *testing.T) {
	hub := newTraceHub(4, 1)
	srv, cli := tracedPair(t, hub)
	go func() { _, _ = io.Copy(io.Discard, cli) }()

	chunk := make([]byte, 1<<20)
	for i := 0; i < 6; i++ {
		if _, err := srv.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if len(srv.ring) != 4 || srv.ringN != 6 {
		t.Errorf("ring holds %d of %d stamps, want 4 of 6", len(srv.ring), srv.ringN)
	}
	// The write that crosses the limit is kept whole; nothing after it is.
	if got := len(srv.cap.egress); got != captureLimit {
		t.Errorf("captured %d B of 6 MiB written, want %d", got, captureLimit)
	}
	if srv.bytesOut != 6<<20 || srv.writes != 6 {
		t.Errorf("counted %d B in %d writes, want all 6 MiB in 6", srv.bytesOut, srv.writes)
	}
	_ = srv.Close()

	// A second connection is counted but, with one capture slot, not kept.
	srv2, _ := tracedPair(t, hub)
	if srv2.cap != nil {
		t.Error("hub kept more captures than asked for")
	}
	_ = srv2.Close()
}
