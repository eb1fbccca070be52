package core_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"h2scope/internal/core"
	"h2scope/internal/http1"
	"h2scope/internal/netsim"
	"h2scope/internal/server"
)

// faultConn is a transport that fails where a case arms it: every
// SetDeadline, or every Write after the first okWrites.
type faultConn struct {
	net.Conn
	deadlineErr error
	writeErr    error
	okWrites    int
}

func (c *faultConn) SetDeadline(t time.Time) error {
	if c.deadlineErr != nil {
		return c.deadlineErr
	}
	return c.Conn.SetDeadline(t)
}

func (c *faultConn) Write(p []byte) (int, error) {
	if c.writeErr != nil {
		if c.okWrites == 0 {
			return 0, c.writeErr
		}
		c.okWrites--
	}
	return c.Conn.Write(p)
}

// TestErrorPathsCloseTheTransport walks the returns a probe takes when
// setting a connection up fails, where no h2conn.Conn exists yet to own the
// socket: Prober.connect, ProbeH2CUpgrade and verifyH2 must close what they
// dialed (h2conn.Dial closes the transport it was handed when it fails). It
// is what h2lint's connclose analyzer checked statically (DESIGN.md §8.5).
func TestErrorPathsCloseTheTransport(t *testing.T) {
	site := server.DefaultSite("errpath.example")
	start := func(h *http1.Handler) *netsim.Listener {
		l := netsim.NewListener("errpath")
		go func() {
			for {
				nc, err := l.Accept()
				if err != nil {
					return
				}
				go func() { _ = h.ServeConn(nc) }()
			}
		}()
		t.Cleanup(func() { _ = l.Close() })
		return l
	}
	refusing := start(&http1.Handler{Site: site, ServerName: "front/1.0"})
	upgrading := start(&http1.Handler{Site: site, ServerName: "front/1.0", H2C: server.New(server.NginxProfile(), site)})
	broken := errors.New("transport fault")

	settings := func(p *core.Prober, ctx context.Context) (any, error) { return p.ProbeSettings(ctx) }
	h2c := func(p *core.Prober, ctx context.Context) (any, error) { return p.ProbeH2CUpgrade(ctx) }
	for _, tc := range []struct {
		name    string
		peer    *netsim.Listener
		fault   faultConn
		probe   func(*core.Prober, context.Context) (any, error)
		wantErr bool
	}{
		{"connect: SetDeadline fails", refusing, faultConn{deadlineErr: broken}, settings, true},
		{"h2c: SetDeadline fails", refusing, faultConn{deadlineErr: broken}, h2c, true},
		{"connect: first Write fails", refusing, faultConn{writeErr: broken}, settings, true},
		{"verifyH2: first Write after the upgrade fails", upgrading, faultConn{writeErr: broken, okWrites: 1}, h2c, false},
		{"h2c: upgrade refused", refusing, faultConn{}, h2c, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dialer := &netsim.CountingDialer{DialFunc: func() (net.Conn, error) {
				nc, err := tc.peer.Dial()
				if err != nil {
					return nil, err
				}
				fc := tc.fault
				fc.Conn = nc
				return &fc, nil
			}}
			cfg := core.DefaultConfig("errpath.example")
			cfg.Timeout = 2 * time.Second
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			res, err := tc.probe(core.NewProber(dialer, cfg), ctx)
			if (err != nil) != tc.wantErr {
				t.Fatalf("probe returned (%+v, %v), want an error: %v", res, err, tc.wantErr)
			}
			if r, ok := res.(*core.H2CResult); ok && err == nil && r.H2Works {
				t.Errorf("h2c result %+v over a transport that cannot carry HTTP/2", r)
			}
			if opened, closed := dialer.Counts(); opened != 1 || closed != 1 {
				t.Errorf("the probe opened %d connections and closed %d, want 1 and 1", opened, closed)
			}
		})
	}
}
