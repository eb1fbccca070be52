package server

import (
	"sync"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/metrics"
)

// Metrics is the server's pre-built instrument set. Like Trace it is shared
// by every connection the server handles; build it once per registry and
// assign it before serving.
type Metrics struct {
	framer *frame.Metrics

	connsAccepted *metrics.Counter
	activeConns   *metrics.Gauge

	streamsOpened  *metrics.Counter
	activeStreams  *metrics.Gauge
	streamDuration *metrics.Histogram

	stallsConn   *metrics.Counter
	stallsStream *metrics.Counter

	egressQueue *metrics.Gauge
	egressReady *metrics.Histogram

	// reg backs the dynamically labeled fingerprint counters; fpSeen
	// caches them per label pair so the hot path registers each
	// fingerprint once. The cache (and so the registry) is bounded:
	// past maxFingerprintSeries new pairs collapse into an overflow
	// series, keeping a hostile client from minting unbounded metrics.
	reg    *metrics.Registry
	fpMu   sync.Mutex
	fpSeen map[string]*metrics.Counter
}

// maxFingerprintSeries bounds distinct h2_client_fingerprints_total label
// pairs; a census hits a handful, a label-minting attacker hits the wall.
const maxFingerprintSeries = 256

// NewMetrics registers the server instrument set in r:
//
//	h2_server_conns_accepted_total       connections accepted
//	h2_server_active_conns               connections currently being served
//	h2_server_streams_opened_total       streams opened (request + push)
//	h2_server_active_streams             streams currently open
//	h2_server_stream_duration_ns         stream open-to-close wall time
//	h2_window_stalls_total{scope=...}    transitions into a window-blocked state
//	h2_client_fingerprints_total{ja4=...,h2fp=...}  connections per client fingerprint
//
// plus the shared framer set (h2_frames_*, h2_frame_bytes_*).
//
// A window stall is counted once per transition: when the server has response
// bytes pending but the connection-level (scope="conn") or a stream-level
// (scope="stream") send window is exhausted. The stalled state is re-armed by
// the WINDOW_UPDATE (or SETTINGS_INITIAL_WINDOW_SIZE increase) that unblocks
// it, so a long stall counts once, not once per flush pass.
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		reg:    r,
		fpSeen: make(map[string]*metrics.Counter),
		framer: frame.NewMetrics(r),
		connsAccepted: r.Counter("h2_server_conns_accepted_total",
			"HTTP/2 connections accepted by the server"),
		activeConns: r.Gauge("h2_server_active_conns",
			"HTTP/2 connections currently being served"),
		streamsOpened: r.Counter("h2_server_streams_opened_total",
			"server streams opened (request and push)"),
		activeStreams: r.Gauge("h2_server_active_streams",
			"server streams currently open"),
		streamDuration: r.Histogram("h2_server_stream_duration_ns",
			"stream open-to-close wall time", int64(time.Microsecond), metrics.DefaultBuckets),
		stallsConn: r.Counter(metrics.Label("h2_window_stalls_total", "scope", "conn"),
			"transitions into a send-window-blocked state while response bytes were pending"),
		stallsStream: r.Counter(metrics.Label("h2_window_stalls_total", "scope", "stream"),
			"transitions into a send-window-blocked state while response bytes were pending"),
		egressQueue: r.Gauge("h2_egress_queue_depth",
			"streams with a queued response not yet fully transmitted"),
		egressReady: r.Histogram("h2_egress_ready_streams",
			"eligible ready streams per egress scheduling pass", 1, metrics.DefaultBuckets),
	}
}

// fingerprintSeen counts one sealed client fingerprint under its JA4 and
// akamai-format h2 labels, minting the labeled counter on first sight.
func (m *Metrics) fingerprintSeen(ja4, akamai string) {
	key := ja4 + "\x00" + akamai
	m.fpMu.Lock()
	ctr, ok := m.fpSeen[key]
	if !ok {
		if len(m.fpSeen) >= maxFingerprintSeries {
			ja4, akamai = "overflow", "overflow"
			key = ja4 + "\x00" + akamai
		}
		if ctr, ok = m.fpSeen[key]; !ok {
			name := metrics.Label(metrics.Label("h2_client_fingerprints_total", "ja4", ja4), "h2fp", akamai)
			ctr = m.reg.Counter(name, "connections observed per client fingerprint")
			m.fpSeen[key] = ctr
		}
	}
	m.fpMu.Unlock()
	ctr.Inc()
}

// settleOnClose runs at connection teardown. Streams abandoned by a dying
// connection never pass through closeStream, so their active-stream gauge
// entries, queue-depth contributions, and open-to-close durations are
// settled here, along with the connection's own gauge.
func (c *conn) settleOnClose() {
	m := c.srv.Metrics
	if m == nil {
		return
	}
	for _, st := range c.streams {
		m.activeStreams.Add(-1)
		m.streamDuration.Observe(int64(time.Since(st.openedAt)))
		if st.state >= stateQueued {
			m.egressQueue.Add(-1)
		}
	}
	m.activeConns.Add(-1)
}

// noteEgressReady observes the size of the scheduler's eligible set for the
// ready-stream histogram, once per egress pass: the count the pass's opening
// Pick left behind when picked is set, a walk of the tree otherwise.
func (c *conn) noteEgressReady(picked bool) {
	m := c.srv.Metrics
	if m == nil {
		return
	}
	n := c.sched.Eligible()
	if !picked {
		c.eligScratch = c.tree.AppendEligible(c.eligScratch[:0], c.readyFn)
		n = len(c.eligScratch)
	}
	m.egressReady.Observe(int64(n))
}

// pendingBody reports whether any stream has announced response bytes it has
// not yet transmitted — the precondition for a window stall to mean anything.
func (c *conn) pendingBody() bool {
	for _, st := range c.streams {
		if st.state >= stateHeadersSent {
			return true
		}
	}
	return false
}

// noteConnStall counts the transition into a connection-window stall. Called
// from the flush path when the connection send window is exhausted.
func (c *conn) noteConnStall() {
	m := c.srv.Metrics
	if m == nil || c.connStalled || !c.pendingBody() {
		return
	}
	c.connStalled = true
	m.stallsConn.Inc()
}

// noteStreamStalls counts, per stream, the transition into a stream-window
// stall. Called from the flush path when no stream is ready even though the
// connection window has room.
func (c *conn) noteStreamStalls() {
	m := c.srv.Metrics
	if m == nil {
		return
	}
	for _, st := range c.streams {
		if st.stalled || st.state < stateHeadersSent {
			continue
		}
		if st.window.Available() <= 0 {
			st.stalled = true
			m.stallsStream.Inc()
		}
	}
}
