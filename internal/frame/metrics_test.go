package frame

import (
	"bytes"
	"io"
	"testing"

	"h2scope/internal/metrics"
)

func counterValue(t *testing.T, r *metrics.Registry, name string) int64 {
	t.Helper()
	for _, m := range r.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %q not registered", name)
	return 0
}

func TestFramerMetricsCountsBothDirections(t *testing.T) {
	r := metrics.NewRegistry()
	m := NewMetrics(r)

	var wire bytes.Buffer
	w := NewFramer(&wire, nil)
	w.SetMetrics(m)
	if err := w.WriteSettings(Setting{ID: SettingInitialWindowSize, Val: 1}); err != nil {
		t.Fatalf("WriteSettings: %v", err)
	}
	if err := w.WritePing(false, [8]byte{1, 2, 3}); err != nil {
		t.Fatalf("WritePing: %v", err)
	}
	if err := w.WriteData(1, true, []byte("hello")); err != nil {
		t.Fatalf("WriteData: %v", err)
	}

	rd := NewFramer(io.Discard, bytes.NewReader(wire.Bytes()))
	rd.SetMetrics(m)
	for i := 0; i < 3; i++ {
		if _, err := rd.ReadFrame(); err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
	}
	if _, err := rd.ReadFrame(); err != io.EOF {
		t.Fatalf("final ReadFrame = %v, want io.EOF", err)
	}

	checks := []struct {
		name string
		want int64
	}{
		{metrics.Label("h2_frames_written_total", "type", "SETTINGS"), 1},
		{metrics.Label("h2_frames_written_total", "type", "PING"), 1},
		{metrics.Label("h2_frames_written_total", "type", "DATA"), 1},
		{metrics.Label("h2_frames_read_total", "type", "SETTINGS"), 1},
		{metrics.Label("h2_frames_read_total", "type", "PING"), 1},
		{metrics.Label("h2_frames_read_total", "type", "DATA"), 1},
		{metrics.Label("h2_frame_bytes_written_total", "type", "PING"), HeaderLen + 8},
		{metrics.Label("h2_frame_bytes_read_total", "type", "PING"), HeaderLen + 8},
		{metrics.Label("h2_frame_bytes_read_total", "type", "DATA"), HeaderLen + 5},
		{"h2_framer_read_errors_total", 0}, // clean EOF is not an error
	}
	for _, c := range checks {
		if got := counterValue(t, r, c.name); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestFramerMetricsReadErrors(t *testing.T) {
	r := metrics.NewRegistry()
	m := NewMetrics(r)
	errsName := "h2_framer_read_errors_total"

	// Torn header: 4 of 9 bytes then EOF.
	rd := NewFramer(io.Discard, bytes.NewReader([]byte{0, 0, 1, 0}))
	rd.SetMetrics(m)
	if _, err := rd.ReadFrame(); err == nil {
		t.Fatal("torn header should fail")
	}
	if got := counterValue(t, r, errsName); got != 1 {
		t.Fatalf("after torn header: errors = %d, want 1", got)
	}

	// Short payload: header promises 5 bytes, stream has 2.
	var wire bytes.Buffer
	wire.Write([]byte{0, 0, 5, byte(TypeData), 0, 0, 0, 0, 1, 'h', 'i'})
	rd = NewFramer(io.Discard, bytes.NewReader(wire.Bytes()))
	rd.SetMetrics(m)
	if _, err := rd.ReadFrame(); err == nil {
		t.Fatal("short payload should fail")
	}
	if got := counterValue(t, r, errsName); got != 2 {
		t.Fatalf("after short payload: errors = %d, want 2", got)
	}

	// Protocol violation: DATA on stream 0.
	wire.Reset()
	w := NewFramer(&wire, nil)
	if err := w.WriteData(0, false, []byte("x")); err != nil {
		t.Fatalf("WriteData: %v", err)
	}
	rd = NewFramer(io.Discard, bytes.NewReader(wire.Bytes()))
	rd.SetMetrics(m)
	if _, err := rd.ReadFrame(); err == nil {
		t.Fatal("framer should reject DATA on stream 0")
	}
	if got := counterValue(t, r, errsName); got != 3 {
		t.Fatalf("after protocol violation: errors = %d, want 3", got)
	}
}

func TestFramerMetricsUnknownTypeSlot(t *testing.T) {
	r := metrics.NewRegistry()
	m := NewMetrics(r)
	var wire bytes.Buffer
	w := NewFramer(&wire, nil)
	w.SetMetrics(m)
	if err := w.WriteRawFrame(Type(0xfb), 0, 1, []byte{9}); err != nil {
		t.Fatalf("WriteRawFrame: %v", err)
	}
	name := metrics.Label("h2_frames_written_total", "type", "UNKNOWN")
	if got := counterValue(t, r, name); got != 1 {
		t.Fatalf("%s = %d, want 1", name, got)
	}
}

// BenchmarkFrameIOInstrumented measures the per-frame cost of metrics
// accounting on a write+read round trip (the CI benchmark-trajectory job
// tracks it alongside the raw counter/histogram numbers).
func BenchmarkFrameIOInstrumented(b *testing.B) {
	r := metrics.NewRegistry()
	m := NewMetrics(r)
	payload := bytes.Repeat([]byte{'x'}, 1024)
	var wire bytes.Buffer
	w := NewFramer(&wire, nil)
	w.SetMetrics(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire.Reset()
		if err := w.WriteData(1, false, payload); err != nil {
			b.Fatal(err)
		}
		rd := NewFramer(io.Discard, bytes.NewReader(wire.Bytes()))
		rd.SetMetrics(m)
		if _, err := rd.ReadFrame(); err != nil {
			b.Fatal(err)
		}
	}
}
