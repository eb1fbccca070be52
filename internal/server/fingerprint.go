package server

import (
	"crypto/tls"
	"encoding/json"
	"net"

	"h2scope/internal/fingerprint"
	"h2scope/internal/frame"
	"h2scope/internal/hpack"
	"h2scope/internal/tlsutil"
)

// This file is the server half of the passive fingerprinting plane: the
// frame handlers feed an H2Assembler on the serve goroutine, the sealed
// akamai string is counted in the metrics registry, and the /fp endpoint
// echoes everything back to the client.

// fingerprintPath is the reserved echo endpoint: a GET here returns the
// requesting client's own fingerprints as JSON instead of site content.
const fingerprintPath = "/fp"

// fpInit arms the fingerprint plane for one connection. The TLS hello
// accessor comes from the conn itself, when the listener stack used
// tlsutil.NewFingerprintListener.
func (c *conn) fpInit(nc net.Conn) {
	if c.srv.DisableFingerprint {
		return
	}
	c.fpa = &fingerprint.H2Assembler{}
	if hc, ok := nc.(tlsutil.HelloConn); ok {
		c.helloFn = hc.ClientHello
	}
}

// clientHello resolves the connection's TLS ClientHello, nil over
// cleartext transports or when fingerprinting is disabled.
func (c *conn) clientHello() *fingerprint.ClientHello {
	if c.helloFn == nil {
		return nil
	}
	return c.helloFn()
}

func (c *conn) fpOnSettings(settings []frame.Setting) {
	if c.fpa != nil {
		c.fpa.OnSettings(settings)
	}
}

func (c *conn) fpOnWindowUpdate(streamID, increment uint32) {
	if c.fpa != nil {
		c.fpa.OnWindowUpdate(streamID, increment)
	}
}

func (c *conn) fpOnPriority(f *frame.PriorityFrame) {
	if c.fpa != nil {
		c.fpa.OnPriority(fingerprint.H2Priority{
			StreamID:  f.Header().StreamID,
			Exclusive: f.Priority.Exclusive,
			DepStream: f.Priority.StreamDep,
			Weight:    f.Priority.Weight,
		})
	}
}

// fpOnHeaders seals the behavioral fingerprint on the first request and,
// with Metrics set, counts its akamai rendering in the registry. What the
// server sends never depends on it.
func (c *conn) fpOnHeaders(fields []hpack.HeaderField) {
	if c.fpa == nil || c.fpa.Complete() {
		return
	}
	c.fpa.OnRequestHeaders(fields)
	if m := c.srv.Metrics; m != nil {
		ja4 := "none"
		if h := c.clientHello(); h != nil {
			ja4 = h.JA4()
		}
		m.fingerprintSeen(ja4, c.fpa.Fingerprint().Akamai())
	}
}

// fpEcho assembles the /fp response document for the requesting client.
func (c *conn) fpEcho(st *stream) *fingerprint.Echo {
	echo := &fingerprint.Echo{JA4H: fingerprint.JA4H(st.reqHeaders)}
	if c.fpa != nil {
		fp := c.fpa.Fingerprint()
		echo.H2 = fp.Akamai()
		echo.H2Detail = fp
	}
	if h := c.clientHello(); h != nil {
		echo.JA3 = h.JA3()
		echo.JA3Hash = h.JA3Hash()
		echo.JA4 = h.JA4()
		echo.SNI = h.ServerName
	}
	if cs, ok := c.nc.(interface{ ConnectionState() tls.ConnectionState }); ok {
		echo.ALPN = cs.ConnectionState().NegotiatedProtocol
	}
	return echo
}

// respondFingerprint serves the /fp echo endpoint. It answers even with
// fingerprinting disabled (with an empty document) so probes can tell
// "endpoint exists" apart from "server fingerprints clients".
func (c *conn) respondFingerprint(st *stream) {
	body, err := json.Marshal(c.fpEcho(st))
	if err != nil {
		body = []byte("{}")
	}
	body = append(body, '\n')
	c.queue(st, buildResponseFields(c.srv.profile.Name, "200", "application/json", len(body), nil), body)
}
