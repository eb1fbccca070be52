package server

import (
	"sync"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/metrics"
	"h2scope/internal/trace"
)

// This file is the defense half of the adversarial battery (see
// internal/attack): a real-time, per-connection event-sequence detector in
// the spirit of "Delays have Dangerous Ends" (slow HTTP/2 DoS detection via
// event-sequence analysis). The detector consumes the server's existing
// trace bus through a bounded trace.Subscription — the same event stream
// every other observer uses — and keeps a sliding window of sequence
// statistics per connection: frame-type rates, the reset ratio, and
// window-update starvation time. Windows are scored against per-profile
// thresholds (the Table III personalities tolerate different client
// behavior), and a firing score triggers a mitigation: rate-limiting the
// connection's read loop, capping its concurrent streams, or
// GOAWAY(ENHANCE_YOUR_CALM) plus close.

// AttackKind names a detected attack pattern. Each kind is named after the
// internal/attack scenario it catches; the catalog's hpack-bomb and
// continuation-flood have no kind, because the header-list guard and the
// header-block bound end them first (DESIGN.md §8.14).
type AttackKind string

// Detected attack kinds.
const (
	// AttackRapidReset is HEADERS+RST_STREAM churn (CVE-2023-44487 shape).
	AttackRapidReset AttackKind = "rapid-reset"
	// AttackSlowDrip is a drip-fed request body pinning stream state.
	AttackSlowDrip AttackKind = "slow-drip"
	// AttackSettingsFlood is a SETTINGS frame flood forcing ACK work.
	AttackSettingsFlood AttackKind = "settings-flood"
	// AttackZeroWindowStarve is a receiver that requests data and never
	// opens its flow-control windows.
	AttackZeroWindowStarve AttackKind = "zero-window-starvation"
)

// AttackKinds lists every kind the detector can report, in catalog order.
func AttackKinds() []AttackKind {
	return []AttackKind{
		AttackRapidReset, AttackSlowDrip, AttackSettingsFlood, AttackZeroWindowStarve,
	}
}

// MitigationAction is what the detector does to a flagged connection.
type MitigationAction string

// Mitigation actions, mildest first.
const (
	// ActionNone records the detection without touching the connection.
	ActionNone MitigationAction = "none"
	// ActionRateLimit delays the connection's read loop between frames.
	ActionRateLimit MitigationAction = "rate-limit"
	// ActionStreamCap refuses new streams beyond a small cap.
	ActionStreamCap MitigationAction = "stream-cap"
	// ActionGoAway sends GOAWAY(ENHANCE_YOUR_CALM) and closes the socket.
	ActionGoAway MitigationAction = "goaway"
)

// Thresholds are the per-signal firing levels one connection is scored
// against. Rates are events per second sustained across the sliding window;
// a signal's ratio is observed/threshold and the connection's score is the
// maximum ratio, so a score >= 1 means at least one signal fired.
type Thresholds struct {
	// HeaderRate is the HEADERS-received rate (streams opened per second).
	HeaderRate float64
	// ResetRate is the RST_STREAM-received rate. MinResets gates it so a
	// handful of legitimate cancellations can never fire; ResetRatio
	// additionally requires resets to track stream opens (churn, not
	// cleanup after an error burst).
	ResetRate  float64
	MinResets  int
	ResetRatio float64
	// SettingsRate is the non-ACK SETTINGS-received rate.
	SettingsRate float64
	// TinyDataRate is the rate of sub-TinyDataBytes non-END_STREAM DATA
	// frames — the slow-drip signature.
	TinyDataRate  float64
	TinyDataBytes int
	// StarvationTime is how long the connection may hold requests open
	// with zero transmit progress (no DATA sent, no WINDOW_UPDATE
	// received, nothing completing) before the starvation signal fires.
	StarvationTime time.Duration
}

// DefaultThresholds returns the baseline personality-independent levels.
// They are set an order of magnitude above anything the conformance suite,
// the probe battery, or a page load produces on one connection, so replaying
// that traffic yields no detections.
func DefaultThresholds() Thresholds {
	return Thresholds{
		HeaderRate:     300,
		ResetRate:      60,
		MinResets:      20,
		ResetRatio:     0.5,
		SettingsRate:   40,
		TinyDataRate:   10,
		TinyDataBytes:  16,
		StarvationTime: 2 * time.Second,
	}
}

// ThresholdsForProfile keys the baseline off a Table III personality.
// Profiles that advertise more concurrency tolerate proportionally faster
// stream churn, and LiteSpeed's flow-controlled HEADERS make honest clients
// with small windows look starved for longer, so its starvation fuse is
// slower.
func ThresholdsForProfile(p Profile) Thresholds {
	t := DefaultThresholds()
	if p.AdvertiseMaxStreams && p.MaxConcurrentStreams > 0 {
		// Tolerate three full refills of the advertised stream limit per
		// second before calling churn an attack.
		if r := 3 * float64(p.MaxConcurrentStreams); r > t.HeaderRate {
			t.HeaderRate = r
		}
	}
	if p.FlowControlHeaders {
		t.StarvationTime *= 2
	}
	if p.TinyWindow != TinyWindowComply {
		// Personalities that misbehave under tiny windows see more
		// zero-length client DATA in legitimate retry traffic.
		t.TinyDataRate *= 2
	}
	return t
}

// The sliding window: rates are computed over the last detectorWindow with
// detectorWindow/detectorBuckets eviction granularity, and idle connections
// are re-scored every sweepInterval (the starvation signal advances with wall
// time, not events).
const (
	detectorWindow  = time.Second
	detectorBuckets = 8
	sweepInterval   = detectorWindow / detectorBuckets
)

// DetectorConfig tunes the detector.
type DetectorConfig struct {
	// Thresholds overrides ThresholdsForProfile when non-zero (a zero
	// Thresholds struct selects the profile defaults). No program sets it:
	// the detector tests score one signal at a time, and cross sub-second
	// test attacks, with it.
	Thresholds Thresholds
	// OnDetect, when non-nil, observes every detection (after metrics and
	// mitigation bookkeeping). Called from the detector goroutine.
	OnDetect func(Detection)
}

// DefaultMitigations is the kind-to-action matrix: protocol floods draw
// GOAWAY+close, the slow shapes draw containment first (a capped or
// rate-limited attacker is evidence; a closed one reconnects).
func DefaultMitigations() map[AttackKind]MitigationAction {
	return map[AttackKind]MitigationAction{
		AttackRapidReset:       ActionGoAway,
		AttackSlowDrip:         ActionStreamCap,
		AttackSettingsFlood:    ActionRateLimit,
		AttackZeroWindowStarve: ActionGoAway,
	}
}

// escalationScore promotes a contained-but-still-misbehaving connection
// (rate-limited or stream-capped) to GOAWAY when its score keeps climbing.
const escalationScore = 4.0

// Detection is one flagged connection.
type Detection struct {
	// At is the sweep time of the detection.
	At time.Time
	// Conn is the server's trace connection ID.
	Conn uint64
	// Kind is the classified attack pattern and Score its firing ratio.
	Kind  AttackKind
	Score float64
	// Action is the mitigation applied (ActionNone when the connection
	// had already ended or mitigation is disabled).
	Action MitigationAction
	// Fingerprint is the connection's akamai-format HTTP/2 behavioral
	// fingerprint, when the client completed a request before being
	// flagged ("" otherwise — frame floods often never get that far).
	Fingerprint string
}

// Detector scores live connections in real time and mitigates the ones that
// cross their thresholds. Construct with Server.StartDetector.
type Detector struct {
	cfg     DetectorConfig
	th      Thresholds
	actions map[AttackKind]MitigationAction
	sub     *trace.Subscription
	now     func() time.Time

	mu         sync.Mutex
	states     map[uint64]*connStats
	targets    map[uint64]*conn
	detections []Detection

	detected  map[AttackKind]*metrics.Counter
	mitigated map[MitigationAction]*metrics.Counter

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	scratch []trace.Event
}

// StartDetector attaches a real-time attack detector to the server and
// starts its consumer goroutine. It must be called before serving: it
// installs a trace bus (reusing s.Trace when already set) and registers
// every subsequent connection for mitigation. Thresholds default to
// ThresholdsForProfile of the server's profile. reg, when non-nil, receives
// h2_attacks_detected_total{kind} and h2_mitigations_total{action}
// counters. The detector stops when the server closes (or via Stop).
func (s *Server) StartDetector(cfg DetectorConfig, reg *metrics.Registry) *Detector {
	th := cfg.Thresholds
	if th == (Thresholds{}) {
		th = ThresholdsForProfile(s.profile)
	}
	if s.Trace == nil {
		s.Trace = trace.New(0)
	}
	d := &Detector{
		cfg:       cfg,
		th:        th,
		actions:   DefaultMitigations(),
		sub:       s.Trace.Subscribe(0),
		now:       time.Now,
		states:    make(map[uint64]*connStats),
		targets:   make(map[uint64]*conn),
		detected:  make(map[AttackKind]*metrics.Counter),
		mitigated: make(map[MitigationAction]*metrics.Counter),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	for _, k := range AttackKinds() {
		d.detected[k] = reg.Counter(metrics.Label("h2_attacks_detected_total", "kind", string(k)),
			"connections flagged by the attack detector")
	}
	for _, a := range []MitigationAction{ActionNone, ActionRateLimit, ActionStreamCap, ActionGoAway} {
		d.mitigated[a] = reg.Counter(metrics.Label("h2_mitigations_total", "action", string(a)),
			"mitigations applied to flagged connections")
	}
	// Queue health alongside the ring gauges: a climbing sub-drop count
	// means the detector is lagging the bus and may miss attack frames.
	d.sub.ExportMetrics(reg, "detector")
	s.mu.Lock()
	s.det = d
	s.mu.Unlock()
	go d.loop()
	return d
}

// Stop ends the detector goroutine and detaches it from the trace bus. Safe
// to call multiple times, including concurrently; the server's Close calls
// it automatically.
func (d *Detector) Stop() {
	if d == nil {
		return
	}
	// A select-on-closed guard here would race: two concurrent Stops could
	// both see the channel open and both close it. Once serializes them.
	d.stopOnce.Do(func() { close(d.stop) })
	<-d.done
	d.sub.Close()
}

// Detections returns a copy of every detection so far, in order.
func (d *Detector) Detections() []Detection {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Detection(nil), d.detections...)
}

// register attaches a live connection for mitigation, keyed by its trace
// connection ID.
func (d *Detector) register(id uint64, c *conn) {
	d.mu.Lock()
	d.targets[id] = c
	d.mu.Unlock()
}

func (d *Detector) unregister(id uint64) {
	d.mu.Lock()
	delete(d.targets, id)
	d.mu.Unlock()
}

// loop is the detector goroutine: drain the subscription, fold events into
// per-connection windows, and sweep scores. A ticker backs the wakeup
// channel because the deadliest slow attacks generate no events at all —
// starvation advances with wall time.
func (d *Detector) loop() {
	defer close(d.done)
	ticker := time.NewTicker(sweepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-d.sub.C():
		case <-ticker.C:
		}
		d.scratch = d.sub.Drain(d.scratch[:0])
		d.mu.Lock()
		for i := range d.scratch {
			d.observeLocked(&d.scratch[i])
		}
		d.sweepLocked(d.now())
		d.mu.Unlock()
	}
}

// observeLocked folds one trace event into its connection's window.
func (d *Detector) observeLocked(ev *trace.Event) {
	if ev.Conn == 0 {
		return
	}
	switch ev.Kind {
	case trace.KindConnClose:
		// Final score before the state is discarded: a fast flood can end
		// within one sweep interval, and the detection must still be
		// recorded even though there is nothing to mitigate.
		if st, ok := d.states[ev.Conn]; ok {
			d.scoreLocked(ev.Conn, st, ev.At)
			delete(d.states, ev.Conn)
		}
		return
	case trace.KindConnOpen:
		d.stateLocked(ev.Conn, ev.At)
		return
	case trace.KindFrameSent, trace.KindFrameRecv:
		d.stateLocked(ev.Conn, ev.At).observe(ev)
	}
}

func (d *Detector) stateLocked(id uint64, at time.Time) *connStats {
	st, ok := d.states[id]
	if !ok {
		st = newConnStats(detectorWindow, detectorBuckets, d.th.TinyDataBytes, at)
		d.states[id] = st
	}
	return st
}

// sweepLocked re-scores every live connection and fires mitigations.
func (d *Detector) sweepLocked(now time.Time) {
	for id, st := range d.states {
		d.scoreLocked(id, st, now)
	}
}

// scoreLocked scores one connection, firing its detection and mitigation
// (or escalating an already-contained one).
func (d *Detector) scoreLocked(id uint64, st *connStats, now time.Time) {
	if st.flagged {
		// Already detected once: only escalate contained actions.
		if st.action == ActionRateLimit || st.action == ActionStreamCap {
			if score, _ := st.score(now, &d.th); score >= escalationScore {
				if c := d.targets[id]; c != nil {
					c.mitigateGoAway()
				}
				st.action = ActionGoAway
				d.mitigated[ActionGoAway].Inc()
			}
		}
		return
	}
	score, kind := st.score(now, &d.th)
	if score < 1 {
		return
	}
	st.flagged = true
	action := d.actions[kind]
	if action == "" {
		action = ActionNone
	}
	c := d.targets[id]
	if c == nil {
		// The connection already ended (floods often kill themselves
		// against protocol bounds before the sweep); record the detection,
		// mitigate nothing.
		action = ActionNone
	} else {
		switch action {
		case ActionRateLimit:
			c.mitigateRateLimit(sweepInterval)
		case ActionStreamCap:
			c.mitigateStreamCap(2)
		case ActionGoAway:
			c.mitigateGoAway()
		}
	}
	st.action = action
	d.detected[kind].Inc()
	d.mitigated[action].Inc()
	det := Detection{At: now, Conn: id, Kind: kind, Score: score, Action: action}
	if c != nil {
		if fp := c.fpAkamai.Load(); fp != nil {
			det.Fingerprint = *fp
		}
	}
	d.detections = append(d.detections, det)
	if d.cfg.OnDetect != nil {
		d.cfg.OnDetect(det)
	}
}

// --- per-connection sliding window ---

// maxTrackedStreams bounds the open-request set a hostile peer can grow; a
// connection holding more half-open requests than this is scored as starved
// regardless (the set stops admitting, the count keeps climbing).
const maxTrackedStreams = 1024

// statBucket is one granule of the sliding window.
type statBucket struct {
	headersRecv  int
	rstRecv      int
	settingsRecv int
	tinyDataRecv int
}

func (b *statBucket) reset() { *b = statBucket{} }

// connStats is one connection's sliding-window sequence statistics. Buckets
// are indexed by absolute time (UnixNano / granule), so feeding the same
// timestamped events always lands them in the same buckets — the property
// the fuzz and equivalence tests pin. Events older than the window are
// ignored; advancing time evicts whole buckets and never resurrects counts.
type connStats struct {
	granule time.Duration
	buckets []statBucket
	cur     int64 // absolute index of the newest bucket
	// tinyBytes is the Thresholds.TinyDataBytes cut applied when bucketing
	// DATA frames (fixed at window creation).
	tinyBytes int

	// openReqs tracks streams with a request seen and no terminal event;
	// lastProgress is the last time the connection transmitted DATA,
	// received a WINDOW_UPDATE, or completed a stream.
	openReqs     map[uint32]struct{}
	openOverflow int
	lastProgress time.Time

	// flagged and action are the detector's bookkeeping for this conn.
	flagged bool
	action  MitigationAction
}

func newConnStats(window time.Duration, buckets, tinyBytes int, at time.Time) *connStats {
	g := window / time.Duration(buckets)
	if g <= 0 {
		g = time.Millisecond
	}
	if tinyBytes <= 0 {
		tinyBytes = DefaultThresholds().TinyDataBytes
	}
	return &connStats{
		granule:      g,
		buckets:      make([]statBucket, buckets),
		cur:          at.UnixNano() / int64(g),
		tinyBytes:    tinyBytes,
		openReqs:     make(map[uint32]struct{}),
		lastProgress: at,
	}
}

// advance moves the window head to absolute index idx, evicting buckets
// that fell out. Moving backwards is a no-op (out-of-order events land in
// their own, still-retained buckets).
func (s *connStats) advance(idx int64) {
	if idx <= s.cur {
		return
	}
	n := int64(len(s.buckets))
	if idx-s.cur >= n {
		for i := range s.buckets {
			s.buckets[i].reset()
		}
	} else {
		for i := s.cur + 1; i <= idx; i++ {
			s.buckets[i%n].reset()
		}
	}
	s.cur = idx
}

// bucketFor returns the bucket for an event at absolute index idx, or nil
// when the event predates the retained window.
func (s *connStats) bucketFor(idx int64) *statBucket {
	s.advance(idx)
	if idx <= s.cur-int64(len(s.buckets)) {
		return nil
	}
	return &s.buckets[idx%int64(len(s.buckets))]
}

// observe folds one frame event into the window.
func (s *connStats) observe(ev *trace.Event) {
	idx := ev.At.UnixNano() / int64(s.granule)
	b := s.bucketFor(idx)
	if b == nil {
		return
	}
	switch ev.Kind {
	case trace.KindFrameRecv:
		switch ev.FrameType {
		case frame.TypeHeaders:
			// A complete one-frame request still counts as open server-side
			// until the response ends; DATA-sent below closes it.
			b.headersRecv++
			s.trackRequest(ev.StreamID)
		case frame.TypeRSTStream:
			b.rstRecv++
			s.endRequest(ev.StreamID, ev.At)
		case frame.TypeSettings:
			if !ev.Flags.Has(frame.FlagAck) {
				b.settingsRecv++
			}
		case frame.TypeWindowUpdate:
			s.lastProgress = ev.At
		case frame.TypeData:
			if !ev.Flags.Has(frame.FlagEndStream) && ev.Length < s.tinyBytes {
				b.tinyDataRecv++
			}
		}
	case trace.KindFrameSent:
		switch ev.FrameType {
		case frame.TypeData:
			if ev.Length > 0 {
				s.lastProgress = ev.At
			}
			if ev.Flags.Has(frame.FlagEndStream) {
				s.endRequest(ev.StreamID, ev.At)
			}
		case frame.TypeHeaders:
			if ev.Flags.Has(frame.FlagEndStream) {
				s.endRequest(ev.StreamID, ev.At)
			}
		case frame.TypeRSTStream:
			s.endRequest(ev.StreamID, ev.At)
		}
	}
}

func (s *connStats) trackRequest(id uint32) {
	if _, ok := s.openReqs[id]; ok {
		return
	}
	if len(s.openReqs) >= maxTrackedStreams {
		s.openOverflow++
		return
	}
	s.openReqs[id] = struct{}{}
}

func (s *connStats) endRequest(id uint32, at time.Time) {
	if _, ok := s.openReqs[id]; ok {
		delete(s.openReqs, id)
		s.lastProgress = at
	} else if s.openOverflow > 0 {
		s.openOverflow--
	}
}

// totals sums the retained window after advancing it to now.
func (s *connStats) totals(now time.Time) statBucket {
	s.advance(now.UnixNano() / int64(s.granule))
	var t statBucket
	for i := range s.buckets {
		b := &s.buckets[i]
		t.headersRecv += b.headersRecv
		t.rstRecv += b.rstRecv
		t.settingsRecv += b.settingsRecv
		t.tinyDataRecv += b.tinyDataRecv
	}
	return t
}

// score computes the connection's attack score: the maximum ratio of any
// signal over its threshold, with the responsible kind. Scores are never
// negative; a score below 1 means no signal fired.
func (s *connStats) score(now time.Time, th *Thresholds) (float64, AttackKind) {
	t := s.totals(now)
	window := s.granule * time.Duration(len(s.buckets))
	secs := window.Seconds()
	if secs <= 0 {
		secs = 1
	}
	best, kind := 0.0, AttackRapidReset

	bump := func(ratio float64, k AttackKind) {
		if ratio > best {
			best, kind = ratio, k
		}
	}

	// Reset churn: rate-gated by an absolute floor and the reset:open
	// ratio, so bursts of legitimate cancellations stay under it.
	if th.ResetRate > 0 && t.rstRecv >= th.MinResets {
		opens := t.headersRecv
		if opens == 0 {
			opens = 1
		}
		if float64(t.rstRecv)/float64(opens) >= th.ResetRatio {
			bump(float64(t.rstRecv)/secs/th.ResetRate, AttackRapidReset)
		}
	}
	if th.HeaderRate > 0 {
		bump(float64(t.headersRecv)/secs/th.HeaderRate, AttackRapidReset)
	}
	if th.SettingsRate > 0 {
		bump(float64(t.settingsRecv)/secs/th.SettingsRate, AttackSettingsFlood)
	}
	if th.TinyDataRate > 0 {
		bump(float64(t.tinyDataRecv)/secs/th.TinyDataRate, AttackSlowDrip)
	}
	if th.StarvationTime > 0 && (len(s.openReqs) > 0 || s.openOverflow > 0) {
		if starved := now.Sub(s.lastProgress); starved > 0 {
			bump(float64(starved)/float64(th.StarvationTime), AttackZeroWindowStarve)
		}
	}
	if best < 0 {
		best = 0
	}
	return best, kind
}
