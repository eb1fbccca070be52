package trace

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/metrics"
)

func TestEmitSnapshotOrdering(t *testing.T) {
	tr := New(64)
	conn := tr.ConnID()
	tr.ConnOpen(conn, "example.test")
	for i := 0; i < 10; i++ {
		tr.Frame(conn, i%2 == 0, frame.Header{
			Type: frame.TypeData, StreamID: 1, Length: uint32(i),
		})
	}
	tr.ConnClose(conn, "done")

	events := tr.Snapshot()
	if len(events) != 12 {
		t.Fatalf("snapshot has %d events, want 12", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("snapshot out of order at %d: seq %d then %d", i, events[i-1].Seq, events[i].Seq)
		}
		if events[i].At.Before(events[i-1].At) {
			t.Fatalf("timestamps regress at %d", i)
		}
	}
	if events[0].Kind != KindConnOpen || events[0].Detail != "example.test" {
		t.Fatalf("first event = %+v, want conn-open example.test", events[0])
	}
	if last := events[len(events)-1]; last.Kind != KindConnClose {
		t.Fatalf("last event kind = %v, want conn-close", last.Kind)
	}
	if got := tr.Emitted(); got != 12 {
		t.Fatalf("Emitted = %d, want 12", got)
	}
	if got := tr.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}
}

func TestRingOverwriteCountsDrops(t *testing.T) {
	tr := New(8) // power of two already; ring holds exactly 8
	conn := tr.ConnID()
	const emits = 20
	for i := 0; i < emits; i++ {
		tr.Frame(conn, true, frame.Header{Type: frame.TypePing, Length: 8})
	}
	if got := tr.Emitted(); got != emits {
		t.Fatalf("Emitted = %d, want %d", got, emits)
	}
	if got := tr.Dropped(); got != emits-8 {
		t.Fatalf("Dropped = %d, want %d", got, emits-8)
	}
	events := tr.Snapshot()
	if len(events) != 8 {
		t.Fatalf("snapshot has %d events, want 8", len(events))
	}
	// The survivors must be the newest 8.
	for i, ev := range events {
		if want := uint64(emits - 8 + i); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestCapacityRoundsUpToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultCapacity}, {-1, DefaultCapacity}, {1, 1}, {3, 4}, {100, 128}, {8192, 8192},
	} {
		if got := New(tc.in).Capacity(); got != tc.want {
			t.Errorf("New(%d).Capacity() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	conn := tr.ConnID()
	if conn != 0 {
		t.Fatalf("nil ConnID = %d, want 0", conn)
	}
	tr.ConnOpen(conn, "x")
	tr.Frame(conn, true, frame.Header{})
	tr.Error(conn, "boom")
	done := tr.Phase("p")
	done()
	tr.ConnClose(conn, "x")
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil Snapshot = %v, want nil", got)
	}
	if tr.Emitted() != 0 || tr.Dropped() != 0 || tr.Capacity() != 0 {
		t.Fatal("nil tracer counters should be zero")
	}
	if !tr.Start().IsZero() {
		t.Fatal("nil Start should be zero time")
	}
}

// TestPhaseAnnotatesEvents pins that a frame carries the phase of its
// connection, not of whichever phase was opened last: two overlapping
// phases, each with its own connection, plus one connection never tagged.
func TestPhaseAnnotatesEvents(t *testing.T) {
	tr := New(64)
	mux, ping, untagged := tr.ConnID(), tr.ConnID(), tr.ConnID()
	tr.Frame(mux, true, frame.Header{Type: frame.TypeSettings}) // before its tag
	endMux := tr.Phase("multiplexing")
	tr.ConnPhase(mux, "multiplexing")
	endPing := tr.Phase("ping")
	tr.ConnPhase(ping, "ping")
	tr.Frame(mux, true, frame.Header{Type: frame.TypeHeaders, StreamID: 1})
	tr.Frame(ping, true, frame.Header{Type: frame.TypePing})
	tr.Frame(untagged, true, frame.Header{Type: frame.TypePing})
	endMux()
	tr.Frame(ping, false, frame.Header{Type: frame.TypePing, Flags: frame.FlagAck})
	tr.Frame(mux, false, frame.Header{Type: frame.TypeData, StreamID: 1}) // a late frame keeps its tag
	endPing()

	var phases, markers []string
	for _, ev := range tr.Snapshot() {
		switch {
		case ev.Kind.IsFrame():
			phases = append(phases, ev.Phase)
		case ev.Kind == KindPhaseStart || ev.Kind == KindPhaseEnd:
			markers = append(markers, ev.Kind.String()+" "+ev.Phase)
		}
	}
	if want := []string{"phase-start multiplexing", "phase-start ping", "phase-end multiplexing", "phase-end ping"}; !slices.Equal(markers, want) {
		t.Errorf("markers = %q, want %q", markers, want)
	}
	want := []string{"", "multiplexing", "ping", "", "ping", "multiplexing"}
	if len(phases) != len(want) {
		t.Fatalf("got %d frame events, want %d", len(phases), len(want))
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("frame %d phase = %q, want %q", i, phases[i], want[i])
		}
	}
}

func TestRegionEmitsConnScopedMarkers(t *testing.T) {
	tr := New(64)
	conn := tr.ConnID()
	end := tr.Region(conn, "dial")
	tr.Frame(conn, true, frame.Header{Type: frame.TypeSettings})
	end()

	evs := tr.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	start, frameEv, stop := evs[0], evs[1], evs[2]
	if start.Kind != KindPhaseStart || start.Phase != "dial" || start.Conn != conn {
		t.Errorf("region start = %+v", start)
	}
	if stop.Kind != KindPhaseEnd || stop.Phase != "dial" || stop.Conn != conn {
		t.Errorf("region end = %+v", stop)
	}
	// A region does not annotate interleaved frames: it marks a conn-scoped
	// interval, and only ConnPhase labels a connection's frames.
	if frameEv.Phase != "" {
		t.Errorf("frame inside region carries phase %q, want none", frameEv.Phase)
	}

	var nilTr *Tracer
	nilTr.Region(1, "dial")() // nil-safe no-op
}

// TestConcurrentEmitSnapshot exercises the ring under the race detector:
// many producers emitting while a reader snapshots and watchers check that
// each slot's Seq only grows. A producer descheduled between claiming its Seq
// and storing its event comes back a lap late a few times in a few thousand
// emits; without the guard in ring.store it
// overwrites the newer event and a watcher sees the slot go back. Rounds
// repeat the race so it is caught.
func TestConcurrentEmitSnapshot(t *testing.T) {
	const rounds = 20
	for r := 0; r < rounds && !t.Failed(); r++ {
		concurrentEmitSnapshotRound(t)
	}
}

func concurrentEmitSnapshotRound(t *testing.T) {
	tr := New(256)
	const producers = 8
	const perProducer = 500
	const watchers = 3

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			events := tr.Snapshot()
			for i := 1; i < len(events); i++ {
				if events[i].Seq <= events[i-1].Seq {
					t.Errorf("concurrent snapshot out of order: %d then %d", events[i-1].Seq, events[i].Seq)
					return
				}
			}
		}
	}()
	// A slot's Seq only grows, or Read takes a slot a late producer set back
	// for one not stored yet and stalls behind it. Several watchers, so one
	// is on a CPU when it happens.
	for w := 0; w < watchers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := make([]uint64, tr.Capacity()) // each slot's Seq when last visited
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range tr.ring.slots {
					s := &tr.ring.slots[i]
					s.mu.Lock()
					seq := s.ev.Seq
					s.mu.Unlock()
					if seq < last[i] {
						t.Errorf("slot %d went back from Seq %d to %d", i, last[i], seq)
						return
					}
					last[i] = seq
				}
			}
		}()
	}
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
	// Phase and tag churn races against producers too.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			end := tr.Phase("p")
			tr.ConnPhase(uint64(i%producers+1), "p")
			end()
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Producers finish, then stop the reader.
	for {
		if tr.Emitted() >= producers*perProducer {
			break
		}
		select {
		case <-done:
		default:
			time.Sleep(time.Millisecond)
			continue
		}
		break
	}
	close(stop)
	<-done

	if got := tr.Emitted(); got < producers*perProducer {
		t.Fatalf("Emitted = %d, want >= %d", got, producers*perProducer)
	}
	if events, next := tr.Read(0, nil); len(events) != 256 || next != tr.Emitted() {
		t.Fatalf("final read has %d events up to Seq %d, want the full ring of 256 up to %d", len(events), next, tr.Emitted())
	}
	if tr.Dropped() == 0 {
		t.Fatal("expected drops after overfilling the ring")
	}
}

func TestExportRoundTrip(t *testing.T) {
	tr := New(64)
	conn := tr.ConnID()
	tr.ConnOpen(conn, "round.trip")
	end := tr.Phase("settings")
	tr.ConnPhase(conn, "settings")
	tr.Frame(conn, true, frame.Header{Type: frame.TypeSettings, Length: 12})
	tr.Frame(conn, false, frame.Header{Type: frame.TypeSettings, Flags: frame.FlagAck})
	end()
	tr.Error(conn, "sample error")
	tr.ConnClose(conn, "eof")

	var buf bytes.Buffer
	if err := Write(&buf, "round.trip", tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	d, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if d.Target != "round.trip" {
		t.Fatalf("Target = %q", d.Target)
	}
	orig := tr.Snapshot()
	if len(d.Events) != len(orig) {
		t.Fatalf("round trip has %d events, want %d", len(d.Events), len(orig))
	}
	for i := range orig {
		got, want := d.Events[i], orig[i]
		if got.Seq != want.Seq || got.Kind != want.Kind || got.Conn != want.Conn ||
			got.Phase != want.Phase || got.StreamID != want.StreamID ||
			got.FrameType != want.FrameType || got.Flags != want.Flags ||
			got.Length != want.Length || got.Detail != want.Detail {
			t.Fatalf("event %d mismatch:\n got %+v\nwant %+v", i, got, want)
		}
		// Times survive as relative offsets (wall-clock precision only).
		if dt := got.At.Sub(want.At); dt > time.Millisecond || dt < -time.Millisecond {
			t.Fatalf("event %d time skew %v", i, dt)
		}
	}
	if d.Emitted != tr.Emitted() || d.Dropped != tr.Dropped() {
		t.Fatalf("header counters %d/%d, want %d/%d", d.Emitted, d.Dropped, tr.Emitted(), tr.Dropped())
	}
}

func TestReadRejectsNonTrace(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"domain":"a.example"}` + "\n")); err == nil {
		t.Fatal("Read accepted a non-trace stream")
	}
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("Read accepted empty input")
	}
	if _, err := Read(strings.NewReader("not json\n")); err == nil {
		t.Fatal("Read accepted garbage")
	}
}

func TestRenderShowsPhasesAndStreams(t *testing.T) {
	tr := New(64)
	conn := tr.ConnID()
	tr.ConnOpen(conn, "render.example")
	end := tr.Phase("multiplexing")
	tr.ConnPhase(conn, "multiplexing")
	tr.Frame(conn, true, frame.Header{Type: frame.TypeHeaders, StreamID: 1, Flags: frame.FlagEndStream})
	tr.Frame(conn, false, frame.Header{Type: frame.TypeData, StreamID: 1, Length: 64, Flags: frame.FlagEndStream})
	end()
	tr.ConnClose(conn, "")

	var buf bytes.Buffer
	if err := Write(&buf, "render.example", tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	d, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got, want := RenderHeader(d), "trace render.example: 6 events\n"; got != want {
		t.Errorf("RenderHeader = %q, want %q", got, want)
	}
	d.Emitted, d.Dropped = 9, 3
	if got, want := RenderHeader(d), "trace render.example: 6 events (9 emitted), 3 dropped\n"; got != want {
		t.Errorf("RenderHeader after a ring wrap = %q, want %q", got, want)
	}
	out := RenderEvents(d)
	for _, want := range []string{
		"conn-open     render.example",
		"== phase-start multiplexing ==",
		"-> HEADERS       stream=1 ",
		"<- DATA          stream=1    len=64     flags=0x01 [multiplexing]",
		"conn-close",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderEvents output missing %q:\n%s", want, out)
		}
	}

	merge := RenderMerge([]MergeRow{{Name: "render.example.jsonl", Events: len(d.Events)}})
	for _, want := range []string{"render.example.jsonl", "total (1 traces)"} {
		if !strings.Contains(merge, want) {
			t.Errorf("RenderMerge output missing %q:\n%s", want, merge)
		}
	}
}

func TestContextPlumbing(t *testing.T) {
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext(empty) = %v, want nil", got)
	}
	tr := New(8)
	ctx := NewContext(context.Background(), tr)
	if got := FromContext(ctx); got != tr {
		t.Fatalf("FromContext = %v, want the stored tracer", got)
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for k := KindFrameSent; k <= KindError; k++ {
		if got := KindFromString(k.String()); got != k {
			t.Errorf("KindFromString(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if Kind(0).String() != "unknown" {
		t.Error("zero Kind should render unknown")
	}
	if KindFromString("nope") != 0 {
		t.Error("unknown name should parse to 0")
	}
}

func BenchmarkEmit(b *testing.B) {
	tr := New(8192)
	hdr := frame.Header{Type: frame.TypeData, StreamID: 1, Length: 1024}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Frame(1, true, hdr)
	}
}

func BenchmarkEmitParallel(b *testing.B) {
	tr := New(8192)
	hdr := frame.Header{Type: frame.TypeData, StreamID: 1, Length: 1024}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tr.Frame(1, false, hdr)
		}
	})
}

func BenchmarkEmitNil(b *testing.B) {
	var tr *Tracer
	hdr := frame.Header{Type: frame.TypeData, StreamID: 1, Length: 1024}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Frame(1, true, hdr)
	}
}

func BenchmarkSnapshot(b *testing.B) {
	tr := New(8192)
	for i := 0; i < 8192; i++ {
		tr.Frame(1, true, frame.Header{Type: frame.TypeData, StreamID: 1, Length: uint32(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(tr.Snapshot()) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

func TestExportMetricsGauges(t *testing.T) {
	tr := New(8)
	r := metrics.NewRegistry()
	tr.ExportMetrics(r)

	value := func(name string) int64 {
		t.Helper()
		for _, m := range r.Snapshot() {
			if m.Name == name {
				return m.Value
			}
		}
		t.Fatalf("gauge %q not registered", name)
		return 0
	}

	if got := value("h2_trace_ring_capacity"); got != 8 {
		t.Fatalf("h2_trace_ring_capacity = %d, want 8", got)
	}
	if got := value("h2_trace_events_total"); got != 0 {
		t.Fatalf("h2_trace_events_total = %d before emits, want 0", got)
	}

	conn := tr.ConnID()
	const emits = 20
	for i := 0; i < emits; i++ {
		tr.Frame(conn, true, frame.Header{Type: frame.TypePing, Length: 8})
	}
	// GaugeFuncs read live state: the emit count shows up without
	// re-exporting.
	if got := value("h2_trace_events_total"); got != emits {
		t.Fatalf("h2_trace_events_total = %d, want %d", got, emits)
	}

	// Swapping tracers re-points the gauges at the new one.
	tr2 := New(16)
	tr2.ExportMetrics(r)
	if got := value("h2_trace_events_total"); got != 0 {
		t.Fatalf("after re-export, h2_trace_events_total = %d, want 0", got)
	}
	if got := value("h2_trace_ring_capacity"); got != 16 {
		t.Fatalf("after re-export, h2_trace_ring_capacity = %d, want 16", got)
	}

	// A nil tracer exports zero-valued gauges rather than panicking.
	var nilTr *Tracer
	nilTr.ExportMetrics(r)
	if got := value("h2_trace_events_total"); got != 0 {
		t.Fatalf("nil tracer gauge = %d, want 0", got)
	}
}

// TestWriteFileSafeName: the one target-key → file mapping h2scope -trace and
// the census share; the exported file reads back with its target intact.
func TestWriteFileSafeName(t *testing.T) {
	dir := t.TempDir()
	tr := New(8)
	tr.ConnOpen(tr.ConnID(), "x")
	for target, want := range map[string]string{
		"127.0.0.1:8099": "127.0.0.1_8099.jsonl",
		"a/b c.example":  "a_b_c.example.jsonl",
		"":               "trace.jsonl",
	} {
		path, err := WriteFile(dir, target, tr)
		if err != nil {
			t.Fatalf("WriteFile(%q): %v", target, err)
		}
		if path != filepath.Join(dir, want) {
			t.Errorf("WriteFile(%q) wrote %s, want %s", target, path, want)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Read(f)
		_ = f.Close()
		if err != nil || d.Target != target || len(d.Events) != 1 {
			t.Errorf("%s reads back as %+v, %v", path, d, err)
		}
	}
	if _, err := WriteFile(filepath.Join(dir, "missing"), "t", tr); err == nil {
		t.Error("WriteFile into a missing directory succeeded")
	}
}
