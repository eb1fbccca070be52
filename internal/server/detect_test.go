package server

// In-package tests for the attack detector's sliding-window scorer: the
// signal unit tests, an exhaustive equivalence check against a naive
// reference window, a fuzzer over random trace event sequences, and the
// detector-overhead benchmark. These live inside package server because
// they drive connStats and the Detector scoring path directly.

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/h2conn"
	"h2scope/internal/metrics"
	"h2scope/internal/netsim"
	"h2scope/internal/trace"
)

// statsBase is an arbitrary fixed epoch: connStats buckets are indexed by
// absolute time, so fixed timestamps make every run land events in the
// same buckets.
var statsBase = time.Unix(1_700_000_000, 0)

func recvEv(at time.Time, ft frame.Type, stream uint32, flags frame.Flags, length int) trace.Event {
	return trace.Event{At: at, Kind: trace.KindFrameRecv, FrameType: ft, StreamID: stream, Flags: flags, Length: length}
}

func sentEv(at time.Time, ft frame.Type, stream uint32, flags frame.Flags, length int) trace.Event {
	return trace.Event{At: at, Kind: trace.KindFrameSent, FrameType: ft, StreamID: stream, Flags: flags, Length: length}
}

// feed replays events into a fresh default-threshold window (1s, 8 buckets)
// anchored at statsBase.
func feed(events []trace.Event) *connStats {
	th := DefaultThresholds()
	st := newConnStats(time.Second, 8, th.TinyDataBytes, statsBase)
	for i := range events {
		st.observe(&events[i])
	}
	return st
}

func TestConnStatsSignals(t *testing.T) {
	th := DefaultThresholds()
	spread := func(n int, ft frame.Type, flags frame.Flags, length int, kind trace.Kind) []trace.Event {
		evs := make([]trace.Event, 0, n)
		for i := 0; i < n; i++ {
			at := statsBase.Add(time.Duration(i) * time.Second / time.Duration(n))
			ev := trace.Event{At: at, Kind: kind, FrameType: ft, StreamID: uint32(2*i + 1), Flags: flags, Length: length}
			evs = append(evs, ev)
		}
		return evs
	}
	cases := []struct {
		name   string
		events []trace.Event
		at     time.Time
		want   AttackKind
	}{
		{
			// 400 opens + 400 resets in one window: header churn fires.
			name: "rapid-reset",
			events: func() []trace.Event {
				var evs []trace.Event
				for i := 0; i < 400; i++ {
					at := statsBase.Add(time.Duration(i) * time.Second / 400)
					id := uint32(2*i + 1)
					evs = append(evs,
						recvEv(at, frame.TypeHeaders, id, frame.FlagEndHeaders|frame.FlagEndStream, 10),
						recvEv(at, frame.TypeRSTStream, id, 0, 4))
				}
				return evs
			}(),
			at:   statsBase.Add(time.Second),
			want: AttackRapidReset,
		},
		{
			name:   "settings-flood",
			events: spread(60, frame.TypeSettings, 0, 6, trace.KindFrameRecv),
			at:     statsBase.Add(time.Second),
			want:   AttackSettingsFlood,
		},
		{
			// CONTINUATION count fires before the byte asymmetry does: 40
			// frames of 100 bytes is 4000 header bytes, under the 8KiB bar.
			name:   "continuation-flood",
			events: spread(40, frame.TypeContinuation, 0, 100, trace.KindFrameRecv),
			at:     statsBase.Add(time.Second),
			want:   AttackContinuationFlood,
		},
		{
			// One 16KB header block, nothing sent back: byte asymmetry.
			name: "hpack-bomb",
			events: []trace.Event{
				recvEv(statsBase, frame.TypeHeaders, 1, frame.FlagEndHeaders, 16<<10),
			},
			at:   statsBase.Add(100 * time.Millisecond),
			want: AttackHPACKBomb,
		},
		{
			// 5KB alone is under the 8KiB bar, but a decode error halves it.
			name: "hpack-bomb-decode-error",
			events: []trace.Event{
				recvEv(statsBase, frame.TypeHeaders, 1, frame.FlagEndHeaders, 5<<10),
				{At: statsBase, Kind: trace.KindError, Detail: "hpack: dynamic table reference out of range"},
			},
			at:   statsBase.Add(100 * time.Millisecond),
			want: AttackHPACKBomb,
		},
		{
			name:   "slow-drip",
			events: spread(15, frame.TypeData, 0, 1, trace.KindFrameRecv),
			at:     statsBase.Add(time.Second),
			want:   AttackSlowDrip,
		},
		{
			// An open request and three seconds of zero progress.
			name: "zero-window-starvation",
			events: []trace.Event{
				recvEv(statsBase, frame.TypeHeaders, 1, frame.FlagEndHeaders|frame.FlagEndStream, 50),
			},
			at:   statsBase.Add(3 * time.Second),
			want: AttackZeroWindowStarve,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			st := feed(tc.events)
			score, kind := st.score(tc.at, &th)
			if score < 1 {
				t.Fatalf("score = %v, want >= 1", score)
			}
			if kind != tc.want {
				t.Fatalf("kind = %s, want %s", kind, tc.want)
			}
		})
	}
}

// TestConnStatsBenignStaysQuiet covers the under-threshold and gated sides
// of each signal: traffic shaped like one busy-but-honest connection must
// never reach a score of 1.
func TestConnStatsBenignStaysQuiet(t *testing.T) {
	th := DefaultThresholds()
	var evs []trace.Event
	for i := 0; i < 30; i++ {
		at := statsBase.Add(time.Duration(i) * 30 * time.Millisecond)
		id := uint32(2*i + 1)
		evs = append(evs,
			recvEv(at, frame.TypeHeaders, id, frame.FlagEndHeaders|frame.FlagEndStream, 60),
			sentEv(at.Add(time.Millisecond), frame.TypeHeaders, id, frame.FlagEndHeaders, 40),
			sentEv(at.Add(2*time.Millisecond), frame.TypeData, id, frame.FlagEndStream, 1024))
	}
	// A few cancellations, ACKed SETTINGS, and END_STREAM tiny DATA — all
	// shapes the gates must keep below their signals.
	evs = append(evs,
		recvEv(statsBase.Add(500*time.Millisecond), frame.TypeRSTStream, 3, 0, 4),
		recvEv(statsBase.Add(510*time.Millisecond), frame.TypeRSTStream, 5, 0, 4),
		recvEv(statsBase.Add(520*time.Millisecond), frame.TypeSettings, 0, frame.FlagAck, 0),
		recvEv(statsBase.Add(530*time.Millisecond), frame.TypeData, 7, frame.FlagEndStream, 1),
		recvEv(statsBase.Add(540*time.Millisecond), frame.TypeWindowUpdate, 0, 0, 4))
	st := feed(evs)
	for _, at := range []time.Time{
		statsBase.Add(900 * time.Millisecond),
		statsBase.Add(time.Second),
		statsBase.Add(2 * time.Second),
	} {
		if score, kind := st.score(at, &th); score >= 1 {
			t.Fatalf("benign traffic scored %v as %s at +%v", score, kind, at.Sub(statsBase))
		}
	}
}

// TestConnStatsProgressResetsStarvation pins the progress events: DATA
// sent, WINDOW_UPDATE received, and stream completion each restart the
// starvation fuse.
func TestConnStatsProgressResetsStarvation(t *testing.T) {
	th := DefaultThresholds()
	open := recvEv(statsBase, frame.TypeHeaders, 1, frame.FlagEndHeaders|frame.FlagEndStream, 50)
	progress := []trace.Event{
		sentEv(statsBase.Add(2500*time.Millisecond), frame.TypeData, 1, 0, 100),
		recvEv(statsBase.Add(2500*time.Millisecond), frame.TypeWindowUpdate, 0, 0, 4),
	}
	for _, ev := range progress {
		st := feed([]trace.Event{open, ev})
		if score, kind := st.score(statsBase.Add(3*time.Second), &th); score >= 1 {
			t.Fatalf("score = %v (%s) after progress event %v, want < 1", score, kind, ev.FrameType)
		}
	}
	// Completing the stream removes the open request entirely.
	st := feed([]trace.Event{open, sentEv(statsBase.Add(time.Millisecond), frame.TypeData, 1, frame.FlagEndStream, 100)})
	if score, kind := st.score(statsBase.Add(time.Hour), &th); score >= 1 {
		t.Fatalf("score = %v (%s) with no open requests, want < 1", score, kind)
	}
}

// TestConnStatsEvictionMonotone: advancing time without events only ever
// shrinks the window totals, down to zero once the whole window has passed.
func TestConnStatsEvictionMonotone(t *testing.T) {
	var evs []trace.Event
	for i := 0; i < 64; i++ {
		at := statsBase.Add(time.Duration(i) * 15 * time.Millisecond)
		evs = append(evs, recvEv(at, frame.TypeHeaders, uint32(2*i+1), frame.FlagEndHeaders, 100))
	}
	st := feed(evs)
	prev := st.totals(statsBase.Add(time.Second))
	for step := 1; step <= 20; step++ {
		now := statsBase.Add(time.Second + time.Duration(step)*125*time.Millisecond)
		cur := st.totals(now)
		assertNoBucketGrowth(t, prev, cur)
		prev = cur
	}
	if prev != (statBucket{}) {
		t.Fatalf("window not fully evicted: %+v", prev)
	}
}

func assertNoBucketGrowth(t *testing.T, before, after statBucket) {
	t.Helper()
	if after.headersRecv > before.headersRecv || after.rstRecv > before.rstRecv ||
		after.settingsRecv > before.settingsRecv || after.continuationRecv > before.continuationRecv ||
		after.tinyDataRecv > before.tinyDataRecv || after.headerBytesRecv > before.headerBytesRecv ||
		after.dataBytesSent > before.dataBytesSent || after.decodeErrors > before.decodeErrors {
		t.Fatalf("window totals grew without events: %+v -> %+v", before, after)
	}
}

func TestThresholdsForProfile(t *testing.T) {
	if got := ThresholdsForProfile(NginxProfile()).HeaderRate; got != 384 {
		t.Errorf("nginx HeaderRate = %v, want 384 (3x128 advertised streams)", got)
	}
	// Apache's 100-stream limit stays under the 300 floor.
	if got := ThresholdsForProfile(ApacheProfile()).HeaderRate; got != DefaultThresholds().HeaderRate {
		t.Errorf("apache HeaderRate = %v, want default", got)
	}
	if got := ThresholdsForProfile(LiteSpeedProfile()).StarvationTime; got != 2*DefaultThresholds().StarvationTime {
		t.Errorf("litespeed StarvationTime = %v, want doubled (flow-controlled HEADERS)", got)
	}
	p := ApacheProfile()
	p.TinyWindow = TinyWindowSilent
	if got := ThresholdsForProfile(p).TinyDataRate; got != 2*DefaultThresholds().TinyDataRate {
		t.Errorf("tiny-window-silent TinyDataRate = %v, want doubled", got)
	}
}

func TestDetectorNilSafe(t *testing.T) {
	var d *Detector
	d.Stop()
	if got := d.Detections(); got != nil {
		t.Errorf("nil Detections = %v", got)
	}
}

// TestDetectorStopConcurrent pins the Stop race fixed in the lint sweep: the
// old select-on-closed guard let two concurrent Stops both observe the stop
// channel open and both close it, panicking. Every Stop must return (the
// detector goroutine is joined) and none may panic.
func TestDetectorStopConcurrent(t *testing.T) {
	srv := New(ApacheProfile(), DefaultSite("stop.example"))
	srv.Trace = trace.New(64)
	d := srv.StartDetector(DetectorConfig{Thresholds: quietThresholds()}, nil)

	const stoppers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < stoppers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			d.Stop()
		}()
	}
	close(start)
	wg.Wait()
	d.Stop() // and again after the fact: still idempotent
}

// --- equivalence vs a naive reference window ---

// refWindow is the naive reference model: keep every event, and at totals
// time sum only those whose bucket index is within the last `buckets`
// indices of the largest index seen. The production ring must agree with
// this on every prefix of every sequence.
type refWindow struct {
	granule time.Duration
	buckets int64
	max     int64
	events  []trace.Event
}

func newRefWindow(granule time.Duration, buckets int, at time.Time) *refWindow {
	return &refWindow{granule: granule, buckets: int64(buckets), max: at.UnixNano() / int64(granule)}
}

func (r *refWindow) observe(ev trace.Event) {
	if idx := ev.At.UnixNano() / int64(r.granule); idx > r.max {
		r.max = idx
	}
	r.events = append(r.events, ev)
}

func (r *refWindow) totals(now time.Time, tinyBytes int) statBucket {
	if idx := now.UnixNano() / int64(r.granule); idx > r.max {
		r.max = idx
	}
	var t statBucket
	for _, ev := range r.events {
		if ev.At.UnixNano()/int64(r.granule) <= r.max-r.buckets {
			continue
		}
		refFold(&t, ev, tinyBytes)
	}
	return t
}

// refFold restates the event-to-counter semantics independently of
// connStats.observe.
func refFold(t *statBucket, ev trace.Event, tinyBytes int) {
	switch ev.Kind {
	case trace.KindError:
		t.decodeErrors++ // the reference alphabet only uses decode errors
	case trace.KindFrameRecv:
		switch ev.FrameType {
		case frame.TypeHeaders:
			t.headersRecv++
			t.headerBytesRecv += ev.Length
		case frame.TypeContinuation:
			t.continuationRecv++
			t.headerBytesRecv += ev.Length
		case frame.TypeRSTStream:
			t.rstRecv++
		case frame.TypeSettings:
			if !ev.Flags.Has(frame.FlagAck) {
				t.settingsRecv++
			}
		case frame.TypeData:
			if !ev.Flags.Has(frame.FlagEndStream) && ev.Length < tinyBytes {
				t.tinyDataRecv++
			}
		}
	case trace.KindFrameSent:
		if ev.FrameType == frame.TypeData && ev.Length > 0 {
			t.dataBytesSent += ev.Length
		}
	}
}

// TestConnStatsEquivalenceExhaustive replays every sequence of up to three
// symbols from a 16-symbol alphabet (4 frame shapes x 4 time offsets,
// including a full-window jump) through both the production ring and the
// naive reference, comparing totals after every event. A seeded random pass
// then covers longer sequences.
func TestConnStatsEquivalenceExhaustive(t *testing.T) {
	const (
		buckets = 3
		granule = time.Millisecond
		tiny    = 16
	)
	offsets := []time.Duration{0, granule, 2 * granule, 4 * granule}
	shapes := []trace.Event{
		{Kind: trace.KindFrameRecv, FrameType: frame.TypeHeaders, StreamID: 1, Flags: frame.FlagEndHeaders, Length: 10},
		{Kind: trace.KindFrameRecv, FrameType: frame.TypeRSTStream, StreamID: 1, Length: 4},
		{Kind: trace.KindFrameRecv, FrameType: frame.TypeData, StreamID: 1, Length: 1},
		{Kind: trace.KindFrameSent, FrameType: frame.TypeData, StreamID: 1, Length: 37},
	}
	type symbol struct {
		shape int
		off   time.Duration
	}
	var alphabet []symbol
	for s := range shapes {
		for _, off := range offsets {
			alphabet = append(alphabet, symbol{s, off})
		}
	}

	replay := func(t *testing.T, seq []symbol) {
		t.Helper()
		st := newConnStats(time.Duration(buckets)*granule, buckets, tiny, statsBase)
		ref := newRefWindow(granule, buckets, statsBase)
		now := statsBase
		for i, sym := range seq {
			// Offsets accumulate, so sequences mix in-order arrivals,
			// same-bucket repeats, and jumps that evict everything.
			now = now.Add(sym.off)
			ev := shapes[sym.shape]
			ev.At = now
			st.observe(&ev)
			ref.observe(ev)
			got, want := st.totals(now), ref.totals(now, tiny)
			if got != want {
				t.Fatalf("step %d of %v: totals %+v, reference %+v", i, seq, got, want)
			}
		}
		final := now.Add(6 * granule / 2)
		if got, want := st.totals(final), ref.totals(final, tiny); got != want {
			t.Fatalf("final totals for %v: %+v, reference %+v", seq, got, want)
		}
	}

	// Exhaustive over lengths 1..3: 16 + 256 + 4096 sequences.
	var walk func(seq []symbol)
	walk = func(seq []symbol) {
		if len(seq) > 0 {
			replay(t, seq)
		}
		if len(seq) == 3 {
			return
		}
		for _, sym := range alphabet {
			walk(append(seq, sym))
		}
	}
	walk(nil)

	// Seeded random pass over longer sequences.
	rng := rand.New(rand.NewSource(42))
	for n := 0; n < 500; n++ {
		seq := make([]symbol, 12)
		for i := range seq {
			seq[i] = alphabet[rng.Intn(len(alphabet))]
		}
		replay(t, seq)
	}
}

// --- fuzzing ---

// newBareDetector builds a Detector wired for direct, single-goroutine use
// (no trace subscription, no loop, no mitigation targets).
func newBareDetector(th Thresholds) *Detector {
	d := &Detector{
		th:        th,
		actions:   DefaultMitigations(),
		states:    make(map[uint64]*connStats),
		targets:   make(map[uint64]*conn),
		detected:  make(map[AttackKind]*metrics.Counter),
		mitigated: make(map[MitigationAction]*metrics.Counter),
	}
	for _, k := range AttackKinds() {
		d.detected[k] = metrics.NewCounter()
	}
	for _, a := range []MitigationAction{ActionNone, ActionRateLimit, ActionStreamCap, ActionGoAway} {
		d.mitigated[a] = metrics.NewCounter()
	}
	return d
}

// FuzzDetector feeds random trace event sequences through the detector's
// observe/sweep path and the underlying sliding windows, asserting the
// scorer invariants: no panics, no negative scores, detections only at
// score >= 1, and monotone window eviction.
func FuzzDetector(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 1, 0, 3, 10, 1, 3, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 3, 255, 1, 0, 5, 1, 0, 1, 0, 0})
	seed := make([]byte, 0, 200)
	for i := 0; i < 40; i++ {
		seed = append(seed, 3, 1, byte(2*i+1), 1, 4)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		d := newBareDetector(DefaultThresholds())
		now := statsBase
		for len(data) >= 5 {
			rec := data[:5]
			data = data[5:]
			now = now.Add(time.Duration(rec[1]) * time.Millisecond)
			ev := trace.Event{At: now, Conn: uint64(rec[2] % 4)} // conn 0 exercises the ignore path
			switch rec[0] % 8 {
			case 0:
				ev.Kind = trace.KindConnOpen
			case 1:
				ev.Kind = trace.KindConnClose
			case 2:
				ev.Kind = trace.KindError
				ev.Detail = "hpack: fuzzed decode error"
			case 3, 4, 5:
				ev.Kind = trace.KindFrameRecv
				ev.FrameType = frame.Type(rec[3] % 12)
				ev.Flags = frame.Flags(rec[4])
				ev.StreamID = uint32(rec[2])
				ev.Length = int(rec[3]) * 37
			default:
				ev.Kind = trace.KindFrameSent
				ev.FrameType = frame.Type(rec[3] % 12)
				ev.Flags = frame.Flags(rec[4])
				ev.StreamID = uint32(rec[2])
				ev.Length = int(rec[3]) * 21
			}
			d.observeLocked(&ev)
		}
		d.sweepLocked(now)
		for _, det := range d.detections {
			if det.Score < 1 {
				t.Errorf("detection fired below threshold: %+v", det)
			}
		}
		for id, st := range d.states {
			if score, _ := st.score(now, &d.th); score < 0 {
				t.Errorf("conn %d: negative score %v", id, score)
			}
			t0 := st.totals(now)
			t1 := st.totals(now.Add(detectorWindow / 2))
			t2 := st.totals(now.Add(2 * detectorWindow))
			assertNoBucketGrowth(t, t0, t1)
			assertNoBucketGrowth(t, t1, t2)
			if t2 != (statBucket{}) {
				t.Errorf("conn %d: totals survived a full window of silence: %+v", id, t2)
			}
			if score, _ := st.score(now.Add(2*detectorWindow), &d.th); score < 0 {
				t.Errorf("conn %d: negative score after eviction: %v", id, score)
			}
		}
	})
}

// --- overhead benchmark ---

// quietThresholds never fire, so the benchmark measures pure bookkeeping.
func quietThresholds() Thresholds {
	return Thresholds{
		HeaderRate: 1e12, ResetRate: 1e12, MinResets: 1 << 30, ResetRatio: 1,
		SettingsRate: 1e12, ContinuationRate: 1e12,
		AsymmetryMinBytes: 1 << 30, AsymmetryFactor: 1e12,
		TinyDataRate: 1e12, TinyDataBytes: 1,
		StarvationTime: time.Hour,
	}
}

// BenchmarkDetectorOverhead compares request latency through an untraced
// server against the same server with tracing plus a live detector
// attached; the delta is the detector tax (target: under 10%).
func BenchmarkDetectorOverhead(b *testing.B) {
	run := func(b *testing.B, detector bool) {
		srv := New(ApacheProfile(), DefaultSite("bench.example"))
		if detector {
			srv.Trace = trace.New(1 << 12)
			srv.StartDetector(DetectorConfig{Thresholds: quietThresholds()}, nil)
		}
		l := netsim.NewListener("bench-detect")
		go func() {
			_ = srv.Serve(l)
		}()
		defer srv.Close()
		nc, err := l.Dial()
		if err != nil {
			b.Fatalf("dial: %v", err)
		}
		opts := h2conn.DefaultOptions()
		c, err := h2conn.Dial(nc, opts)
		if err != nil {
			b.Fatalf("h2 dial: %v", err)
		}
		defer func() {
			_ = c.Close()
		}()
		req := h2conn.Request{Authority: "bench.example", Path: "/about.html"}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.FetchBody(req, 5*time.Second); err != nil {
				b.Fatalf("fetch %d: %v", i, err)
			}
		}
	}
	b.Run("baseline", func(b *testing.B) { run(b, false) })
	b.Run("detector", func(b *testing.B) { run(b, true) })
}
