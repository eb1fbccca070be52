package trace

import "sync"

// DefaultSubscriptionBuffer is the per-subscriber queue size applied when
// Subscribe is given a non-positive buffer. obs.Monitor.Watch drains on
// every wakeup, so the queue has to hold only what is emitted while its
// goroutine waits to run or folds the previous batch: 4096 events is the
// frames of about a thousand small requests (HEADERS in, HEADERS and DATA
// out).
const DefaultSubscriptionBuffer = 4096

// Subscription is a bounded, push-based view of a tracer's event stream for
// long-lived consumers (obs.Monitor.Watch, the live span monitor behind
// h2server's dashboard). It exists because the
// ring alone cannot serve such consumers: a Snapshot re-copies the whole
// ring on every poll and gives no way to tell which events are new, while a
// consumer that falls behind must learn how much it missed.
//
// Each subscriber owns an independent bounded FIFO the tracer pushes into at
// emit time. When the consumer lags and the queue fills, the oldest queued
// events are overwritten and counted in Dropped — the subscription never
// blocks the emit path and never grows without bound. Events arrive in emit
// order; Seq gaps identify both ring-level and subscription-level losses.
type Subscription struct {
	t *Tracer

	mu      sync.Mutex
	buf     []Event
	start   int // index of the oldest queued event
	count   int // queued events
	dropped uint64
	closed  bool

	// notify is a capacity-1 wakeup signal: push offers, consumers drain.
	notify chan struct{}
}

// Subscribe attaches a bounded consumer queue to the tracer. Events emitted
// after Subscribe returns are delivered; the queue retains at most buffer
// events (DefaultSubscriptionBuffer when buffer <= 0), overwriting oldest
// and counting drops when the consumer lags. A nil tracer returns nil; all
// Subscription methods are safe on a nil receiver.
func (t *Tracer) Subscribe(buffer int) *Subscription {
	if t == nil {
		return nil
	}
	if buffer <= 0 {
		buffer = DefaultSubscriptionBuffer
	}
	s := &Subscription{
		t:      t,
		buf:    make([]Event, buffer),
		notify: make(chan struct{}, 1),
	}
	t.subMu.Lock()
	old := t.subs.Load()
	var next []*Subscription
	if old != nil {
		next = append(next, *old...)
	}
	next = append(next, s)
	t.subs.Store(&next)
	t.subMu.Unlock()
	return s
}

// push queues ev, overwriting the oldest queued event when full.
func (s *Subscription) push(ev Event) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.count == len(s.buf) {
		s.start = (s.start + 1) % len(s.buf)
		s.count--
		s.dropped++
	}
	s.buf[(s.start+s.count)%len(s.buf)] = ev
	s.count++
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Drain appends all queued events to dst in emit order, consuming them, and
// returns the extended slice. Passing a retained dst[:0] makes steady-state
// polling allocation-free. Nil receivers return dst unchanged.
func (s *Subscription) Drain(dst []Event) []Event {
	if s == nil {
		return dst
	}
	s.mu.Lock()
	for i := 0; i < s.count; i++ {
		dst = append(dst, s.buf[(s.start+i)%len(s.buf)])
	}
	s.start = 0
	s.count = 0
	s.mu.Unlock()
	return dst
}

// Pending returns the number of queued, not-yet-drained events.
func (s *Subscription) Pending() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Dropped returns how many events were overwritten because the consumer
// lagged behind the queue bound — the subscription's honesty counter,
// mirroring Tracer.Dropped at the per-consumer level.
func (s *Subscription) Dropped() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// C returns a channel that receives a signal when new events may be queued.
// It is a level-style wakeup, not one token per event: after a wakeup the
// consumer should Drain until empty. Nil receivers return a nil channel
// (which blocks forever, the correct behavior for a consumer loop that also
// has a ticker).
func (s *Subscription) C() <-chan struct{} {
	if s == nil {
		return nil
	}
	return s.notify
}

// Close detaches the subscription from the tracer and discards queued
// events. Safe to call multiple times and on nil.
func (s *Subscription) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.count = 0
	s.mu.Unlock()

	t := s.t
	t.subMu.Lock()
	if old := t.subs.Load(); old != nil {
		next := make([]*Subscription, 0, len(*old))
		for _, sub := range *old {
			if sub != s {
				next = append(next, sub)
			}
		}
		t.subs.Store(&next)
	}
	t.subMu.Unlock()
}
