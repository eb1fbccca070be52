package lint

import "testing"

// BenchmarkLintRepo measures a full 9-analyzer sweep over every package in
// the module — the exact work `go run ./cmd/h2lint ./...` performs minus
// process startup. Loading and type-checking happen once outside the timed
// loop so the number tracks analysis cost, not parser throughput: it shows
// when a new analyzer (or a call-graph regression) makes the sweep
// noticeably slower.
func BenchmarkLintRepo(b *testing.B) {
	l, err := sharedLoader()
	if err != nil {
		b.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		b.Fatalf("Load ./...: %v", err)
	}
	analyzers := All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Run(analyzers, pkgs)
	}
}
