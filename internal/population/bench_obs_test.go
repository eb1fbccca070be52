package population_test

import (
	"testing"

	"h2scope/internal/metrics"
	"h2scope/internal/obs"
	"h2scope/internal/population"
)

// BenchmarkSpanOverhead runs the same measured scan with the observability
// plane off and on; the delta is the span-building tax — per-target tracing,
// causal span reconstruction, and phase-histogram feeds (target: under 5%;
// reported, not gated).
func BenchmarkSpanOverhead(b *testing.B) {
	pop := population.Generate(population.EpochJan2017, 0.002, 7)
	run := func(b *testing.B, observed bool) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opts := population.ScanOptions{SampleSize: 8, Parallelism: 4, Seed: 2}
			if observed {
				opts.Observer = obs.NewMonitor(metrics.NewRegistry())
			}
			if _, err := population.Scan(pop, opts); err != nil {
				b.Fatalf("Scan: %v", err)
			}
		}
	}
	b.Run("baseline", func(b *testing.B) { run(b, false) })
	b.Run("observed", func(b *testing.B) { run(b, true) })
}
