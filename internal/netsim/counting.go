package netsim

import (
	"net"
	"sync"
	"sync/atomic"
)

// CountingDialer dials through DialFunc and counts the connections it opened
// and how many of them have been closed. It is the leak check the probe,
// census and conformance tests end on: a client closes every transport it
// opened, the ones the server hung up on first included.
type CountingDialer struct {
	DialFunc func() (net.Conn, error)

	opened, closed atomic.Int64
}

// Dial opens one counted connection.
func (d *CountingDialer) Dial() (net.Conn, error) {
	nc, err := d.DialFunc()
	if err != nil {
		return nil, err
	}
	d.opened.Add(1)
	return &countedConn{Conn: nc, d: d}, nil
}

// Counts returns how many connections Dial has opened and how many of those
// have had Close called on them.
func (d *CountingDialer) Counts() (opened, closed int64) {
	return d.opened.Load(), d.closed.Load()
}

// countedConn reports its first Close to the dialer that opened it.
type countedConn struct {
	net.Conn
	d    *CountingDialer
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.d.closed.Add(1) })
	return c.Conn.Close()
}
