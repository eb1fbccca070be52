// Package trace is the reproduction's frame-level tracing and metrics
// subsystem: a low-overhead, concurrency-safe event bus every layer emits
// into.
//
// The paper's conclusions all rest on orderings and timings of frames —
// response interleaving for multiplexing (Section III-A), DATA/HEADERS order
// under priority trees (Section III-C), PING RTT deltas (Section III-F) —
// so the enabling substrate is a first-class record of those events. A
// Tracer is a bounded ring buffer of typed events (frame sent/received,
// connection lifecycle, probe phase boundaries, errors) with monotonic
// timestamps and drop accounting: events live in the ring by value behind
// per-slot micro-locks, so the hot path is allocation-free, never contends
// across slots, and never waits behind a whole-ring reader; when the ring
// wraps, the overwritten events are counted, not silently lost.
//
// The ring is read one way: Read walks it by Seq from a cursor, delivering
// each retained event once, in order, and telling the caller how many it
// missed. Snapshot is Read from the start; the live span monitor
// (obs.Monitor.Watch) resumes Read from where it left off. JSONL export
// (export.go), the raw event and -merge renderers behind the h2trace CLI
// (render.go) and the one fold into per-connection and per-stream spans
// (internal/obs) all consume what Read returns, so there is one event path
// from the wire to every consumer.
package trace

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"h2scope/internal/frame"
)

// Kind classifies a trace event.
type Kind uint8

// Event kinds. Frame direction is part of the kind: sent means written by
// the traced endpoint, received means read off the wire.
const (
	// KindFrameSent is a frame written to the peer.
	KindFrameSent Kind = iota + 1
	// KindFrameRecv is a frame read from the peer.
	KindFrameRecv
	// KindConnOpen marks a connection coming up.
	KindConnOpen
	// KindConnClose marks a connection going down.
	KindConnClose
	// KindPhaseStart marks the beginning of a probe phase.
	KindPhaseStart
	// KindPhaseEnd marks the end of a probe phase.
	KindPhaseEnd
	// KindError records a connection or probe error.
	KindError
)

var kindNames = map[Kind]string{
	KindFrameSent:  "frame-sent",
	KindFrameRecv:  "frame-recv",
	KindConnOpen:   "conn-open",
	KindConnClose:  "conn-close",
	KindPhaseStart: "phase-start",
	KindPhaseEnd:   "phase-end",
	KindError:      "error",
}

// String names the kind for exports and logs.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "unknown"
}

// KindFromString parses the export form back into a Kind (0 if unknown).
func KindFromString(s string) Kind {
	for k, name := range kindNames {
		if name == s {
			return k
		}
	}
	return 0
}

// IsFrame reports whether the event describes a wire frame.
func (k Kind) IsFrame() bool { return k == KindFrameSent || k == KindFrameRecv }

// Event is one traced occurrence. Fields beyond Seq/At/Kind are populated
// according to Kind: frame events carry the frame header fields, phase
// events carry Phase, lifecycle and error events carry Detail.
type Event struct {
	// Seq is the tracer-global emit index; ring overwrites leave gaps.
	Seq uint64
	// At is the event time, captured with Go's monotonic clock.
	At time.Time
	// Kind classifies the event.
	Kind Kind
	// Conn distinguishes connections sharing one tracer (a probe battery
	// opens a fresh connection per probe; a server traces many at once).
	Conn uint64
	// Phase is the probe phase the event's connection belongs to
	// (Tracer.ConnPhase), or the name a phase or region marker opens/closes.
	Phase string
	// StreamID, FrameType, Flags, and Length mirror the frame header of
	// frame events.
	StreamID  uint32
	FrameType frame.Type
	Flags     frame.Flags
	Length    int
	// Detail carries lifecycle or error text.
	Detail string
}

// StreamEnded reports whether a DATA or HEADERS frame event carried
// END_STREAM.
func (e Event) StreamEnded() bool {
	return (e.FrameType == frame.TypeData || e.FrameType == frame.TypeHeaders) &&
		e.Flags.Has(frame.FlagEndStream)
}

// DefaultCapacity is the ring size used when New is given a non-positive
// capacity: enough for a full probe battery (hundreds of frames) with an
// order of magnitude of headroom.
const DefaultCapacity = 8192

// ring is a bounded, overwrite-oldest event buffer. Producers claim a Seq
// with one atomic add, then store the event by value in slot Seq mod
// capacity under that slot's own mutex; overwriting an event counts it as
// dropped. Storing values instead of pointers keeps the emit path
// allocation-free, which matters: a pointer-per-event design triples the
// allocation rate of a traced connection and the extra GC cycles cost far
// more than the emit itself. Per-slot locks mean producers only ever contend
// with a reader visiting that one slot (a 100-byte copy), never with each
// other on distinct slots and never for the duration of a whole-ring read.
//
// A slot's Seq only grows. A producer that claimed its Seq a lap or more
// before the event now in its slot (it was descheduled between the add and
// the store) drops its own event rather than overwrite the newer one. That
// is what lets read tell an overwritten event (the slot holds a later Seq)
// from one that is claimed but not stored yet (the slot holds an earlier
// Seq, or nothing).
type ring struct {
	slots   []slot
	mask    uint64
	next    atomic.Uint64
	dropped atomic.Uint64
}

// slot is one micro-locked ring cell.
type slot struct {
	mu   sync.Mutex
	ev   Event
	full bool
}

func newRing(capacity int) *ring {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	// Round up to a power of two so slot selection is a mask, not a mod.
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &ring{slots: make([]slot, n), mask: uint64(n - 1)}
}

func (r *ring) emit(ev *Event) {
	ev.Seq = r.next.Add(1) - 1
	r.store(ev)
}

// store puts ev, whose Seq is claimed, in its slot unless a newer event
// holds the slot already. Either way a full slot loses one event.
func (r *ring) store(ev *Event) {
	s := &r.slots[ev.Seq&r.mask]
	s.mu.Lock()
	if s.full {
		r.dropped.Add(1)
	}
	if !s.full || s.ev.Seq < ev.Seq {
		s.ev = *ev
		s.full = true
	}
	s.mu.Unlock()
}

// read appends the events with Seq in [from, next) to dst in Seq order,
// skipping overwritten ones, up to the first Seq claimed but not stored.
func (r *ring) read(from uint64, dst []Event) ([]Event, uint64) {
	end := r.next.Load()
	if n := uint64(len(r.slots)); end > n && from < end-n {
		from = end - n // a lap behind: overwritten, or being overwritten
	}
	if from >= end {
		return dst, from
	}
	dst = slices.Grow(dst, int(end-from))
	for ; from < end; from++ {
		s := &r.slots[from&r.mask]
		s.mu.Lock()
		full, seq := s.full, s.ev.Seq
		if full && seq == from {
			dst = append(dst, s.ev)
		}
		s.mu.Unlock()
		if !full || seq < from {
			break // claimed, not stored yet: resume here next time
		}
	}
	return dst, from
}

// Tracer is the event bus one traced unit (a probed target, a testbed
// server) emits into. All methods are safe for concurrent use and are
// no-ops on a nil receiver, so instrumented code never needs nil checks.
type Tracer struct {
	start time.Time
	ring  *ring
	conns atomic.Uint64

	// phases maps a connection ID to the probe phase that opened it
	// (ConnPhase): written once per connection, read on each of its events.
	phases sync.Map
}

// New returns a tracer retaining up to capacity events (DefaultCapacity
// when capacity <= 0; rounded up to a power of two).
func New(capacity int) *Tracer {
	return &Tracer{start: time.Now(), ring: newRing(capacity)}
}

// Start returns the tracer's creation time (the zero point of exported
// relative timestamps).
func (t *Tracer) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Capacity returns the ring size.
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return len(t.ring.slots)
}

// Emitted returns how many events were emitted over the tracer's lifetime,
// including any since overwritten.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	return t.ring.next.Load()
}

// Dropped returns how many events the ring lost: each one overwritten by an
// event a lap newer, or refused because a newer event held its slot first —
// the tracer's honesty counter.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.ring.dropped.Load()
}

// emit stamps and publishes ev.
func (t *Tracer) emit(ev Event) {
	if t == nil {
		return
	}
	ev.At = time.Now()
	if ev.Phase == "" && ev.Conn != 0 {
		if name, ok := t.phases.Load(ev.Conn); ok {
			ev.Phase = name.(string)
		}
	}
	t.ring.emit(&ev)
}

// ConnID reserves the next connection index for Frame/ConnOpen/ConnClose
// calls. IDs start at 1 so 0 can mean "no connection context".
func (t *Tracer) ConnID() uint64 {
	if t == nil {
		return 0
	}
	return t.conns.Add(1)
}

// Frame records one wire frame on connection conn.
func (t *Tracer) Frame(conn uint64, sent bool, hdr frame.Header) {
	kind := KindFrameRecv
	if sent {
		kind = KindFrameSent
	}
	t.emit(Event{
		Kind:      kind,
		Conn:      conn,
		StreamID:  hdr.StreamID,
		FrameType: hdr.Type,
		Flags:     hdr.Flags,
		Length:    int(hdr.Length),
	})
}

// ConnOpen records connection conn coming up.
func (t *Tracer) ConnOpen(conn uint64, detail string) {
	t.emit(Event{Kind: KindConnOpen, Conn: conn, Detail: detail})
}

// ConnClose records connection conn going down.
func (t *Tracer) ConnClose(conn uint64, detail string) {
	t.emit(Event{Kind: KindConnClose, Conn: conn, Detail: detail})
}

// Error records an error on connection conn (0 for target-level errors).
func (t *Tracer) Error(conn uint64, detail string) {
	t.emit(Event{Kind: KindError, Conn: conn, Detail: detail})
}

// Phase begins a named probe phase and returns the function that ends it:
// a start/end marker pair on the bus. Phases may overlap — a battery runs
// its probes at once — so a phase does not label frames by time; each
// probe tags the connections it opens with ConnPhase.
func (t *Tracer) Phase(name string) func() {
	if t == nil {
		return func() {}
	}
	t.emit(Event{Kind: KindPhaseStart, Phase: name})
	return func() { t.emit(Event{Kind: KindPhaseEnd, Phase: name}) }
}

// ConnPhase tags every later event of connection conn with phase, so a
// rendered trace shows which probe step each frame belongs to however the
// probes' connections interleave.
func (t *Tracer) ConnPhase(conn uint64, phase string) {
	if t == nil {
		return
	}
	t.phases.Store(conn, phase)
}

// Region begins a named connection-scoped span and returns the function
// that ends it. Concurrent connections carry independent regions: the pair
// of KindPhaseStart/KindPhaseEnd events is stamped with conn and the span
// builder (internal/obs) matches them by (conn, name). Conn 0 marks a
// region that precedes connection identity — a TLS handshake performed
// inside a dialer before ConnOpen — which the builder attributes to the
// next connection that opens.
func (t *Tracer) Region(conn uint64, name string) func() {
	if t == nil {
		return func() {}
	}
	t.emit(Event{Kind: KindPhaseStart, Conn: conn, Phase: name})
	return func() {
		t.emit(Event{Kind: KindPhaseEnd, Conn: conn, Phase: name})
	}
}

// Read appends to dst the retained events with Seq >= from, in Seq order,
// and returns the extended slice and the cursor to pass as from next time.
// Events the ring overwrote before Read reached them are skipped, so
// next - from - (events appended) counts what the caller missed. Read stops
// at the first Seq that is claimed but whose event is not stored yet, so
// resumed reads deliver each retained event exactly once. Passing a retained
// dst[:0] makes steady-state polling allocation-free. A nil tracer returns
// dst, from.
func (t *Tracer) Read(from uint64, dst []Event) (events []Event, next uint64) {
	if t == nil {
		return dst, from
	}
	return t.ring.read(from, dst)
}

// Snapshot returns the retained events in Seq order: Read(0, nil). Safe to
// call while emits are in flight; it ends at the first event not yet stored.
func (t *Tracer) Snapshot() []Event {
	events, _ := t.Read(0, nil)
	return events
}

// --- context plumbing ---

// ctxKey keys the tracer in a context.
type ctxKey struct{}

// NewContext returns ctx carrying t; the scan engine uses it to hand each
// target's tracer to its probe function.
func NewContext(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the tracer carried by ctx, or nil. A nil result is
// safe to use directly: every Tracer method no-ops on nil.
func FromContext(ctx context.Context) *Tracer {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Tracer)
	return t
}
