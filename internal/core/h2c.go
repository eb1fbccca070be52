package core

import (
	"context"
	"fmt"
	"net"

	"h2scope/internal/h2conn"
	"h2scope/internal/http1"
)

// H2CResult reports the cleartext-upgrade detection of Section IV-A: when
// no TLS is used, a client sends an HTTP/1.1 request with "Upgrade: h2c"
// and a server that supports HTTP/2 answers 101 Switching Protocols.
type H2CResult struct {
	// UpgradeAccepted reports whether the server answered 101.
	UpgradeAccepted bool
	// H2Works reports whether an HTTP/2 request succeeded on the upgraded
	// connection.
	H2Works bool
}

// ProbeH2CUpgrade performs the cleartext upgrade handshake against the
// target and, if accepted, verifies HTTP/2 works on the connection.
func (p *Prober) ProbeH2CUpgrade(ctx context.Context) (*H2CResult, error) {
	ctx, end := p.phase(ctx, "h2c-upgrade")
	defer end()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	nc, err := p.dialer.Dial()
	if err != nil {
		return nil, fmt.Errorf("core: dial: %w", err)
	}
	if d, ok := ctx.Deadline(); ok {
		if err := nc.SetDeadline(d); err != nil {
			_ = nc.Close()
			return nil, fmt.Errorf("core: set deadline: %w", err)
		}
	}
	res := &H2CResult{}
	if err := http1.UpgradeH2C(nc, p.cfg.Authority); err != nil {
		_ = nc.Close()
		return res, nil // refusal is a result, not a probe failure
	}
	res.UpgradeAccepted = true
	res.H2Works = p.verifyH2(nc)
	return res, nil
}

func (p *Prober) verifyH2(nc net.Conn) bool {
	c, err := h2conn.Dial(nc, h2conn.DefaultOptions())
	if err != nil {
		return false // h2conn.Dial closed nc
	}
	defer closeConn(c)
	resp, err := c.FetchBody(h2conn.Request{
		Authority: p.cfg.Authority,
		Scheme:    "http",
		Path:      p.cfg.SmallPath,
	}, p.cfg.Timeout)
	return err == nil && resp.Status() == "200"
}
