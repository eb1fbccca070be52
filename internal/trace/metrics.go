package trace

import (
	"h2scope/internal/metrics"
)

// ExportMetrics publishes the tracer's ring health into r as computed
// gauges, so the -debug-addr endpoint shows whether traces are complete:
//
//	h2_trace_events_total   events emitted over the tracer's lifetime
//	h2_trace_ring_capacity  ring size in slots
//
// No gauge counts overwrites: a live ring overwrites every lap, read or not.
// What a live reader missed is h2_obs_events_missed_total (obs.Monitor.Watch).
//
// GaugeFunc re-registration replaces the reader, so a caller that swaps
// tracers (the scan engine creates one per target) re-points the gauges at
// whichever tracer exported last. Safe on a nil receiver: the gauges then
// read zero, matching every other nil-Tracer no-op.
func (t *Tracer) ExportMetrics(r *metrics.Registry) {
	r.GaugeFunc("h2_trace_events_total",
		"trace events emitted over the tracer's lifetime (overwritten ones included)",
		func() int64 { return int64(t.Emitted()) })
	r.GaugeFunc("h2_trace_ring_capacity",
		"trace ring capacity in event slots",
		func() int64 { return int64(t.Capacity()) })
}
