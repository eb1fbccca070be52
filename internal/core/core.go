// Package core implements H2Scope, the paper's probing methodology
// (Section III): a battery of probes that send deliberately unusual frame
// sequences to an HTTP/2 server and classify its feature support and RFC
// 7540 compliance from the frame-level reactions.
//
// Each probe runs on a fresh connection, because most probes hinge on
// connection-scoped state (client SETTINGS, the connection flow-control
// window, the HPACK dynamic table). The full battery is assembled into a
// Report, one row of the paper's Table III.
package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/h2conn"
	"h2scope/internal/trace"
)

// Dialer opens transport connections to the probe target.
type Dialer interface {
	Dial() (net.Conn, error)
}

// DialerFunc adapts a function to the Dialer interface.
type DialerFunc func() (net.Conn, error)

// Dial implements Dialer.
func (f DialerFunc) Dial() (net.Conn, error) { return f() }

// Negotiator optionally reports TLS protocol-negotiation support, for
// targets fronted by a TLS layer (Section IV-A).
type Negotiator interface {
	// NegotiateALPN returns the protocol the server selects via ALPN.
	NegotiateALPN(protos []string) (string, error)
	// NegotiateNPN returns the server's advertised NPN protocol list.
	NegotiateNPN() ([]string, error)
}

// Observation classifies how a server reacted to a probe frame.
type Observation int

// Observations mirror the vocabulary of the paper's Table III.
const (
	// ObserveIgnore means the server kept the connection open and sent no
	// error frame.
	ObserveIgnore Observation = iota + 1
	// ObserveRSTStream means the server reset the affected stream.
	ObserveRSTStream
	// ObserveGoAway means the server sent GOAWAY.
	ObserveGoAway
	// ObserveNoResponse means the connection produced nothing (including
	// dying without GOAWAY).
	ObserveNoResponse
)

// String renders the observation the way Table III does.
func (o Observation) String() string {
	switch o {
	case ObserveIgnore:
		return "ignore"
	case ObserveRSTStream:
		return "RST_STREAM"
	case ObserveGoAway:
		return "GOAWAY"
	case ObserveNoResponse:
		return "no response"
	default:
		return "unknown"
	}
}

// Config parameterizes a probe battery against one target.
type Config struct {
	// Authority is the :authority of requests.
	Authority string
	// Timeout bounds each wait inside a probe.
	Timeout time.Duration
	// QuietWindow is how long the event log must stay idle before a probe
	// concludes a server will not react.
	QuietWindow time.Duration
	// DrainPath is an object of at least 65,535 bytes used to deplete the
	// connection-level flow-control window (Algorithm 1, lines 15-16).
	DrainPath string
	// LargePaths are large objects for the multiplexing and priority
	// probes; at least six are needed.
	LargePaths []string
	// SmallPath is a small page used for settings/HPACK/ping probes.
	SmallPath string
	// PagePaths are the pages browsed by the server-push probe.
	PagePaths []string
	// Tracer, when non-nil, records every probe connection's frames plus
	// probe-phase annotations, so a trace shows which probe step each
	// frame belongs to. Nil disables tracing with no overhead.
	Tracer *trace.Tracer
	// Metrics, when non-nil, is attached to every connection the battery
	// dials (frames, bytes, streams, resets — see h2conn.NewMetrics). Nil
	// disables metrics with no overhead.
	Metrics *h2conn.Metrics
}

// DefaultConfig returns a config matched to server.DefaultSite's document
// tree.
func DefaultConfig(authority string) Config {
	return Config{
		Authority:   authority,
		Timeout:     5 * time.Second,
		QuietWindow: 40 * time.Millisecond,
		DrainPath:   "/drain/64k",
		LargePaths: []string{
			"/large/1", "/large/2", "/large/3",
			"/large/4", "/large/5", "/large/6",
		},
		SmallPath: "/about.html",
		PagePaths: []string{"/", "/about.html"},
	}
}

// Prober runs the H2Scope probe battery.
type Prober struct {
	dialer Dialer
	cfg    Config
}

// NewProber returns a prober for the target reachable through dialer.
func NewProber(dialer Dialer, cfg Config) *Prober {
	if cfg.Timeout == 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.QuietWindow == 0 {
		cfg.QuietWindow = 40 * time.Millisecond
	}
	return &Prober{dialer: dialer, cfg: cfg}
}

// phase marks a probe phase on the battery's tracer (a no-op without one)
// and returns the closer; probes use `defer p.phase("name")()`.
func (p *Prober) phase(name string) func() {
	return p.cfg.Tracer.Phase(name)
}

// connect dials and establishes an HTTP/2 connection with the given client
// options. The battery's tracer, when set, is attached to every connection
// here — the single point all probes dial through. A deadline carried by
// ctx is applied to the transport before the HTTP/2 handshake, so a probe
// against a tarpit target fails instead of wedging its worker.
func (p *Prober) connect(ctx context.Context, opts h2conn.Options) (*h2conn.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if opts.Tracer == nil {
		opts.Tracer = p.cfg.Tracer
	}
	if opts.Metrics == nil {
		opts.Metrics = p.cfg.Metrics
	}
	// Reserve the trace connection ID before dialing so the dial region
	// (and any TLS-handshake region the dialer itself emits) is attributed
	// to the connection the frames will belong to.
	if opts.Tracer != nil && opts.TraceConnID == 0 {
		opts.TraceConnID = opts.Tracer.ConnID()
	}
	endDial := opts.Tracer.Region(opts.TraceConnID, "dial")
	nc, err := p.dialer.Dial()
	endDial()
	if err != nil {
		return nil, fmt.Errorf("core: dial: %w", err)
	}
	if d, ok := ctx.Deadline(); ok {
		if err := nc.SetDeadline(d); err != nil {
			_ = nc.Close()
			return nil, fmt.Errorf("core: set deadline: %w", err)
		}
	}
	c, err := h2conn.Dial(nc, opts)
	if err != nil {
		_ = nc.Close()
		return nil, err
	}
	return c, nil
}

// reactionWindow is how long a probe listens for an error frame after a
// provocation before concluding the server ignored it.
func (p *Prober) reactionWindow() time.Duration {
	w := 5 * p.cfg.QuietWindow
	if w < 100*time.Millisecond {
		w = 100 * time.Millisecond
	}
	return w
}

// classifyReaction inspects events after a provocation and maps them to an
// Observation. streamID scopes RST_STREAM matching; GOAWAY always counts.
func classifyReaction(c *h2conn.Conn, streamID uint32, window time.Duration) Observation {
	events, err := c.WaitFor(window, func(evs []h2conn.Event) bool {
		return reactionIn(evs, streamID) != 0
	})
	if o := reactionIn(events, streamID); o != 0 {
		return o
	}
	if errors.Is(err, h2conn.ErrConnClosed) {
		// Connection died without an error frame.
		return ObserveNoResponse
	}
	return ObserveIgnore
}

func reactionIn(events []h2conn.Event, streamID uint32) Observation {
	for _, e := range events {
		switch e.Type {
		case frame.TypeGoAway:
			return ObserveGoAway
		case frame.TypeRSTStream:
			if streamID == 0 || e.StreamID == streamID {
				return ObserveRSTStream
			}
		}
	}
	return 0
}

// GoAwayDebug returns the debug data of the first GOAWAY in the log.
func goAwayDebug(events []h2conn.Event) string {
	for _, e := range events {
		if e.Type == frame.TypeGoAway {
			return string(e.DebugData)
		}
	}
	return ""
}
