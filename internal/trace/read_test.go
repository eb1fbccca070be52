package trace

import (
	"sync"
	"testing"

	"h2scope/internal/frame"
)

// emitN emits n DATA frame events on conn whose Length is their emit index.
func emitN(tr *Tracer, conn uint64, n int) {
	for i := 0; i < n; i++ {
		tr.Frame(conn, false, frame.Header{Type: frame.TypeData, StreamID: 1, Length: uint32(i)})
	}
}

// seqs lists the events' Seqs.
func seqs(events []Event) []uint64 {
	out := make([]uint64, len(events))
	for i, ev := range events {
		out[i] = ev.Seq
	}
	return out
}

// A subscription is a consumer that follows the ring with a Read cursor, as
// obs.Monitor.Watch does: each read resumes from the next it was handed.

// TestSubscriptionDeliversInEmitOrder: a cursor resumed across reads sees
// every event exactly once, in Seq order, which is emit order.
func TestSubscriptionDeliversInEmitOrder(t *testing.T) {
	tr := New(64)
	conn := tr.ConnID()
	var (
		got  []Event
		next uint64
	)
	for _, n := range []int{10, 0, 5, 30} {
		emitN(tr, conn, n)
		from := next
		var events []Event
		events, next = tr.Read(from, nil)
		if len(events) != n || next != from+uint64(n) {
			t.Fatalf("Read(%d) = %d events, next %d; want %d, %d", from, len(events), next, n, from+uint64(n))
		}
		got = append(got, events...)
	}
	emitted := 0
	for _, n := range []int{10, 0, 5, 30} {
		for i := 0; i < n; i++ {
			ev := got[emitted]
			if ev.Seq != uint64(emitted) || ev.Length != i {
				t.Fatalf("event %d has Seq %d, Length %d; want Seq %d, Length %d (once each, in emit order)",
					emitted, ev.Seq, ev.Length, emitted, i)
			}
			emitted++
		}
	}
}

// TestSubscriptionDrainReusesBuffer: reading into a retained dst fills it
// from the start with only the new events, without allocating.
func TestSubscriptionDrainReusesBuffer(t *testing.T) {
	tr := New(64)
	conn := tr.ConnID()
	emitN(tr, conn, 5)
	buf, next := tr.Read(0, nil)
	if len(buf) != 5 || next != 5 {
		t.Fatalf("first read = %d events, next %d; want 5, 5", len(buf), next)
	}
	first := &buf[0]
	emitN(tr, conn, 3)
	buf, next = tr.Read(next, buf[:0])
	if len(buf) != 3 || next != 8 || buf[0].Seq != 5 || &buf[0] != first {
		t.Fatalf("second read = Seqs %v, next %d; want 5 6 7 in the same array, 8", seqs(buf), next)
	}
	emitN(tr, conn, 8)
	if allocs := testing.AllocsPerRun(10, func() {
		buf, _ = tr.Read(next, buf[:0])
	}); allocs != 0 {
		t.Errorf("Read into a retained dst allocates %.0f times, want 0", allocs)
	}
}

// TestSubscriptionConcurrentEmitDrain: a cursor reading on while producers
// emit gets each event at most once, in Seq order, and what it reads plus
// what it skipped is everything emitted.
func TestSubscriptionConcurrentEmitDrain(t *testing.T) {
	tr := New(256)
	const producers = 8
	const perProducer = 500

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			conn := tr.ConnID()
			for i := 0; i < perProducer; i++ {
				tr.Frame(conn, i%2 == 0, frame.Header{
					Type: frame.TypeData, StreamID: uint32(2*p + 1), Length: uint32(i),
				})
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var read, missed, next uint64
	var buf []Event
	drain := func() bool {
		from := next
		buf, next = tr.Read(from, buf[:0])
		for i, ev := range buf {
			if ev.Seq < from || (i > 0 && ev.Seq <= buf[i-1].Seq) {
				t.Errorf("cursor read from %d delivered Seq %d out of order", from, ev.Seq)
				return false
			}
		}
		read += uint64(len(buf))
		missed += next - from - uint64(len(buf))
		return true
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if !drain() {
			<-done
			return
		}
	}
	drain() // everything is stored once the producers are done
	if read == 0 {
		t.Fatal("the cursor read nothing")
	}
	if total := read + missed; total != tr.Emitted() || tr.Emitted() != producers*perProducer {
		t.Fatalf("cursor read %d, missed %d: %d events; want all %d emitted (Emitted %d)",
			read, missed, total, producers*perProducer, tr.Emitted())
	}
}

// TestReadSkipsOverwritten: a cursor the ring lapped gets the retained
// events only, and next - from - len counts the ones it missed.
func TestReadSkipsOverwritten(t *testing.T) {
	tr := New(8)
	conn := tr.ConnID()
	emitN(tr, conn, 20)
	events, next := tr.Read(0, nil)
	if next != 20 || len(events) != 8 || events[0].Seq != 12 || events[7].Seq != 19 {
		t.Fatalf("Read(0) = Seqs %v, next %d; want 12..19, 20", seqs(events), next)
	}
	if missed := next - 0 - uint64(len(events)); missed != 12 || missed != tr.Dropped() {
		t.Fatalf("missed %d, Dropped %d; want 12 both", missed, tr.Dropped())
	}

	// A cursor inside the window misses only what was overwritten since.
	emitN(tr, conn, 5)
	from := uint64(14)
	events, next = tr.Read(from, nil)
	if next != 25 || len(events) != 8 || events[0].Seq != 17 {
		t.Fatalf("Read(14) = Seqs %v, next %d; want 17..24, 25", seqs(events), next)
	}
	if missed := next - from - uint64(len(events)); missed != 3 {
		t.Fatalf("Read(14) missed %d, want 3 (Seqs 14..16)", missed)
	}

	// A cursor at the end reads nothing and stays put.
	if events, next = tr.Read(25, nil); len(events) != 0 || next != 25 {
		t.Fatalf("Read(25) = %d events, next %d; want 0, 25", len(events), next)
	}
}

// TestReadStopsAtUnstoredSlot: a Seq that is claimed but not stored yet ends
// the read there, and the next read from that cursor delivers it and what
// follows once it is stored.
func TestReadStopsAtUnstoredSlot(t *testing.T) {
	tr := New(8)
	conn := tr.ConnID()
	emitN(tr, conn, 2)
	late := Event{Kind: KindError, Conn: conn, Detail: "late"}
	late.Seq = tr.ring.next.Add(1) - 1 // claimed as emit does, store delayed
	emitN(tr, conn, 2)

	events, next := tr.Read(0, nil)
	if len(events) != 2 || next != 2 {
		t.Fatalf("Read(0) with Seq 2 unstored = Seqs %v, next %d; want 0 1, next 2", seqs(events), next)
	}
	if again, n := tr.Read(next, nil); len(again) != 0 || n != 2 {
		t.Fatalf("Read(2) before the store = Seqs %v, next %d; want none, 2", seqs(again), n)
	}
	tr.ring.store(&late)
	events, next = tr.Read(next, nil)
	if next != 5 || len(events) != 3 || events[0].Detail != "late" || events[2].Seq != 4 {
		t.Fatalf("Read(2) after the store = Seqs %v, next %d; want 2 3 4 (2 the late one), 5", seqs(events), next)
	}
}

// TestStaleStoreKeepsNewerEvent: a producer that claimed its Seq a lap before
// the event now in its slot drops its own event rather than overwrite the
// newer one, so a slot's Seq only grows and the read does not stall on it.
func TestStaleStoreKeepsNewerEvent(t *testing.T) {
	tr := New(4)
	conn := tr.ConnID()
	stale := Event{Kind: KindError, Conn: conn, Detail: "stale"}
	stale.Seq = tr.ring.next.Add(1) - 1 // Seq 0, slot 0
	emitN(tr, conn, 4)                  // Seqs 1..4; Seq 4 takes slot 0
	tr.ring.store(&stale)

	if got := tr.ring.slots[0].ev.Seq; got != 4 {
		t.Fatalf("slot 0 holds Seq %d after the stale store, want 4", got)
	}
	if got := tr.Dropped(); got != 1 {
		t.Fatalf("Dropped = %d, want 1 (the stale event)", got)
	}
	events, next := tr.Read(0, nil)
	if next != 5 || len(events) != 4 || events[0].Seq != 1 {
		t.Fatalf("Read(0) = Seqs %v, next %d; want 1..4, 5", seqs(events), next)
	}
}

// TestReadNilTracer: a nil tracer returns dst and from unchanged.
func TestReadNilTracer(t *testing.T) {
	var tr *Tracer
	dst := make([]Event, 1, 4)
	events, next := tr.Read(7, dst)
	if len(events) != 1 || &events[0] != &dst[0] || next != 7 {
		t.Fatalf("nil Read(7, dst) = %d events, next %d; want dst itself and 7", len(events), next)
	}
}
