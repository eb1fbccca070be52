package trace

import (
	"h2scope/internal/metrics"
)

// ExportMetrics publishes the tracer's ring health into r as computed
// gauges, so the -debug-addr endpoint shows whether traces are complete:
//
//	h2_trace_events_total   events emitted over the tracer's lifetime
//	h2_trace_dropped_total  events the ring overwrote before snapshotting
//	h2_trace_ring_capacity  ring size in slots
//
// GaugeFunc re-registration replaces the reader, so a caller that swaps
// tracers (the scan engine creates one per target) re-points the gauges at
// whichever tracer exported last. Safe on a nil receiver: the gauges then
// read zero, matching every other nil-Tracer no-op.
func (t *Tracer) ExportMetrics(r *metrics.Registry) {
	r.GaugeFunc("h2_trace_events_total",
		"trace events emitted over the tracer's lifetime (overwritten ones included)",
		func() int64 { return int64(t.Emitted()) })
	r.GaugeFunc("h2_trace_dropped_total",
		"trace events overwritten in the ring before they could be snapshotted",
		func() int64 { return int64(t.Dropped()) })
	r.GaugeFunc("h2_trace_ring_capacity",
		"trace ring capacity in event slots",
		func() int64 { return int64(t.Capacity()) })
}

// ExportMetrics publishes the subscription's queue health into r as
// computed gauges labeled with the consumer's name, the per-consumer
// counterpart of Tracer.ExportMetrics's ring gauges:
//
//	h2_trace_sub_dropped_total{sub="name"}  events overwritten because the consumer lagged
//	h2_trace_sub_pending{sub="name"}        events queued and not yet drained
//
// Before this export, subscription overflows were visible only to callers
// polling Dropped(); on a dashboard a climbing sub-drop gauge is the signal
// that a consumer (the span monitor) cannot keep up with the bus.
// Safe on a nil receiver: the gauges then read zero.
func (s *Subscription) ExportMetrics(r *metrics.Registry, name string) {
	r.GaugeFunc(metrics.Label("h2_trace_sub_dropped_total", "sub", name),
		"trace events overwritten in a subscription queue because the consumer lagged",
		func() int64 { return int64(s.Dropped()) })
	r.GaugeFunc(metrics.Label("h2_trace_sub_pending", "sub", name),
		"trace events queued in a subscription and not yet drained",
		func() int64 { return int64(s.Pending()) })
}
