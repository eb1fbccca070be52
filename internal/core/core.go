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
	"sync"
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
	// QuietWindow raises the reaction floor, the least time a probe gives a
	// server to react (h2conn.Conn.AwaitReaction), to five times its value.
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

// phaseKey keys the name of the probe phase a context was derived for.
type phaseKey struct{}

// phase opens a named probe phase on the battery's tracer (a no-op without
// one) and returns ctx carrying the name, so connect tags every connection
// the probe opens with it, plus the phase's closer; probes use
// `ctx, end := p.phase(ctx, "name"); defer end()`. The tag, not the time,
// ties a frame to its probe: the battery's probes run at once.
func (p *Prober) phase(ctx context.Context, name string) (context.Context, func()) {
	if p.cfg.Tracer == nil {
		return ctx, func() {}
	}
	return context.WithValue(ctx, phaseKey{}, name), p.cfg.Tracer.Phase(name)
}

// connect dials and establishes an HTTP/2 connection with the given client
// options. The battery's tracer, when set, is attached to every connection
// here — the single point all probes dial through — and every connection
// discards DATA payloads: the probes count octets and never read one. A
// deadline carried by ctx is applied to the transport before the HTTP/2
// handshake, so a probe against a tarpit target fails instead of wedging its
// worker.
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
	opts.DiscardData = true
	// Reserve the trace connection ID before dialing so the dial region
	// (and any TLS-handshake region the dialer itself emits) is attributed
	// to the connection the frames will belong to.
	if opts.Tracer != nil && opts.TraceConnID == 0 {
		opts.TraceConnID = opts.Tracer.ConnID()
		if name, ok := ctx.Value(phaseKey{}).(string); ok {
			opts.Tracer.ConnPhase(opts.TraceConnID, name)
		}
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
	return h2conn.Dial(nc, opts) // which closes nc when it fails
}

// together runs fns at once and returns when every one has: the probes of a
// battery each wait on their own connections, so their reaction windows
// overlap instead of adding up.
func together(fns ...func()) {
	var wg sync.WaitGroup
	wg.Add(len(fns))
	for _, fn := range fns {
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	wg.Wait()
}

// reactionFloor is how long a probe gives a server to react to a provocation
// before a fence ACK may conclude it did not (h2conn.Conn.AwaitReaction).
func (p *Prober) reactionFloor() time.Duration {
	return max(h2conn.ReactionFloor, 5*p.cfg.QuietWindow)
}

// classifyReaction waits for the first error frame after a provocation and
// maps it to an Observation, returning the frame with it. streamID scopes
// RST_STREAM matching; GOAWAY always counts.
func (p *Prober) classifyReaction(c *h2conn.Conn, streamID uint32) (Observation, h2conn.Event) {
	ev, err := c.AwaitReaction(0, p.reactionFloor(), p.cfg.Timeout, func(e h2conn.Event) bool {
		return e.Type == frame.TypeGoAway ||
			e.Type == frame.TypeRSTStream && (streamID == 0 || e.StreamID == streamID)
	})
	switch {
	case err == nil && ev.Type == frame.TypeGoAway:
		return ObserveGoAway, ev
	case err == nil:
		return ObserveRSTStream, ev
	case errors.Is(err, h2conn.ErrConnClosed):
		// Connection died without an error frame.
		return ObserveNoResponse, ev
	default:
		return ObserveIgnore, ev
	}
}

// streamsAllowed reads SETTINGS_MAX_CONCURRENT_STREAMS from the server's
// SETTINGS frame and reports how many of the want streams a probe may open
// at once: all of them when the server names no limit.
func streamsAllowed(settings h2conn.Event, want int) int {
	allowed := want
	for _, s := range settings.Settings {
		if s.ID == frame.SettingMaxConcurrentStreams {
			allowed = int(min(uint64(s.Val), uint64(want)))
		}
	}
	return allowed
}

// errNotMeasurable is a probe's answer for a server that allows fewer
// concurrent streams than the probe's method needs: the streams past the
// limit are refused, and a verdict read from refusals would be about the
// limit, not the feature. The battery records it as a step error and the
// report carries no verdict for that probe.
func errNotMeasurable(probe string, allowed, need int) error {
	return fmt.Errorf("core: %s not measurable: server allows %d concurrent stream(s), the probe needs %d", probe, allowed, need)
}

// streamSpan is where one stream's DATA frames fell in the connection's
// receive order.
type streamSpan struct {
	id uint32
	// first and last are the Seq of the stream's first and last DATA frame
	// (-1 before any).
	first, last int
	ended       bool
}

// streamOrder folds the spans of a fixed set of streams as the events pass;
// the ordering probes read DATA positions from it rather than assembling
// bodies they never look at.
type streamOrder struct {
	spans []streamSpan // in the order the IDs were given
	open  int          // streams of the set that have not ended yet
}

func newStreamOrder(ids []uint32) *streamOrder {
	o := &streamOrder{spans: make([]streamSpan, len(ids)), open: len(ids)}
	for i, id := range ids {
		o.spans[i] = streamSpan{id: id, first: -1, last: -1}
	}
	return o
}

// add folds one event and reports whether every stream of the set has now
// ended (Event.Ends).
func (o *streamOrder) add(e h2conn.Event) bool {
	for i := range o.spans {
		sp := &o.spans[i]
		if sp.id != e.StreamID {
			continue
		}
		if e.Type == frame.TypeData {
			if sp.first < 0 {
				sp.first = e.Seq
			}
			sp.last = e.Seq
		}
		if e.Ends() && !sp.ended {
			sp.ended = true
			o.open--
		}
	}
	return o.open == 0
}

// ended counts the streams of the set that have ended.
func (o *streamOrder) ended() int { return len(o.spans) - o.open }
