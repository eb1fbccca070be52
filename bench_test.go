// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section V). Each BenchmarkTableN / BenchmarkFigureN / BenchmarkSection5X
// runs the corresponding experiment end to end and logs the rows the paper
// reports; `go test -bench . -benchmem` therefore doubles as the
// reproduction harness. Microbenchmarks of the protocol substrates follow.
package h2scope_test

import (
	"net"
	"testing"
	"time"

	"h2scope"
	"h2scope/internal/conformance"
	"h2scope/internal/core"
	"h2scope/internal/netsim"
	"h2scope/internal/population"
	"h2scope/internal/server"
	"h2scope/internal/stats"
)

// logOnce writes an experiment artifact into the benchmark log on the first
// iteration only, so -bench output carries the reproduced tables without
// drowning in repeats.
func logOnce(b *testing.B, i int, format string, args ...any) {
	b.Helper()
	if i == 0 {
		b.Logf(format, args...)
	}
}

// BenchmarkTable3ConformanceMatrix re-measures Table III: the full H2Scope
// battery against the six emulated server implementations.
func BenchmarkTable3ConformanceMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := h2scope.RunTestbed()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, "Table III (re-measured):\n%s", res)
	}
}

// BenchmarkSection5BAdoption regenerates the Section V-B adoption counts
// for both experiments.
func BenchmarkSection5BAdoption(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, epoch := range []population.Epoch{population.EpochJul2016, population.EpochJan2017} {
			census := h2scope.NewCensus(epoch, 1.0, 42)
			logOnce(b, i, "Adoption, %s:\n%s", epoch, census.Adoption())
		}
	}
}

// BenchmarkTable4ServerAdoption regenerates Table IV (servers used by more
// than 1,000 sites) for both experiments.
func BenchmarkTable4ServerAdoption(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, epoch := range []population.Epoch{population.EpochJul2016, population.EpochJan2017} {
			census := h2scope.NewCensus(epoch, 1.0, 42)
			logOnce(b, i, "Table IV, %s:\n%s", epoch, census.TableIV(1000))
		}
	}
}

// BenchmarkTable5InitialWindowSize regenerates Table V.
func BenchmarkTable5InitialWindowSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, epoch := range []population.Epoch{population.EpochJul2016, population.EpochJan2017} {
			census := h2scope.NewCensus(epoch, 1.0, 42)
			logOnce(b, i, "Table V, %s:\n%s", epoch, census.TableV())
		}
	}
}

// BenchmarkTable6MaxFrameSize regenerates Table VI.
func BenchmarkTable6MaxFrameSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, epoch := range []population.Epoch{population.EpochJul2016, population.EpochJan2017} {
			census := h2scope.NewCensus(epoch, 1.0, 42)
			logOnce(b, i, "Table VI, %s:\n%s", epoch, census.TableVI())
		}
	}
}

// BenchmarkTable7MaxHeaderListSize regenerates Table VII.
func BenchmarkTable7MaxHeaderListSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, epoch := range []population.Epoch{population.EpochJul2016, population.EpochJan2017} {
			census := h2scope.NewCensus(epoch, 1.0, 42)
			logOnce(b, i, "Table VII, %s:\n%s", epoch, census.TableVII())
		}
	}
}

// BenchmarkFigure2MaxConcurrentStreams regenerates Fig. 2's CDF of
// SETTINGS_MAX_CONCURRENT_STREAMS.
func BenchmarkFigure2MaxConcurrentStreams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, epoch := range []population.Epoch{population.EpochJul2016, population.EpochJan2017} {
			census := h2scope.NewCensus(epoch, 1.0, 42)
			cdf := census.Figure2()
			logOnce(b, i, "Figure 2, %s (median %.0f):\n%s",
				epoch, cdf.Quantile(0.5), census.Figure2Rendered())
		}
	}
}

// BenchmarkSection5DFlowControl regenerates the Section V-D flow-control
// counts, then verifies a measured sample agrees with the generator.
func BenchmarkSection5DFlowControl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		census := h2scope.NewCensus(population.EpochJan2017, 1.0, 42)
		logOnce(b, i, "Section V-D, %s:\n%s", population.EpochJan2017, census.SectionVD())
		if i == 0 {
			sum, err := population.Scan(census.Pop, population.ScanOptions{
				SampleSize: 24, Parallelism: 8, Seed: 7,
			})
			if err != nil {
				b.Fatal(err)
			}
			measured := &h2scope.Census{Tally: &sum.Tally, Label: "measured sample"}
			b.Logf("Section V-D, measured sample:\n%s", measured.SectionVD())
		}
	}
}

// BenchmarkSection5EPriority regenerates the Section V-E priority counts.
func BenchmarkSection5EPriority(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, epoch := range []population.Epoch{population.EpochJul2016, population.EpochJan2017} {
			census := h2scope.NewCensus(epoch, 1.0, 42)
			logOnce(b, i, "Section V-E, %s:\n%s", epoch, census.SectionVE())
		}
	}
}

// BenchmarkSection5FServerPush regenerates the Section V-F push census.
func BenchmarkSection5FServerPush(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, epoch := range []population.Epoch{population.EpochJul2016, population.EpochJan2017} {
			census := h2scope.NewCensus(epoch, 1.0, 42)
			logOnce(b, i, "Section V-F, %s:\n%s", epoch, census.SectionVF())
		}
	}
}

// BenchmarkFigure3PushPageLoad regenerates Fig. 3: page-load time with and
// without server push on the push-capable sites.
func BenchmarkFigure3PushPageLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := h2scope.RunPushPageLoad(population.EpochJul2016, 2, 0.2, 3)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, "Figure 3 (means over %d visits):\n%s", res.Visits, res)
	}
}

// BenchmarkFigure4And5HPACKRatio regenerates the per-family HPACK
// compression-ratio CDFs for both experiments.
func BenchmarkFigure4And5HPACKRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, epoch := range []population.Epoch{population.EpochJul2016, population.EpochJan2017} {
			census := h2scope.NewCensus(epoch, 1.0, 42)
			fig := "Figure 4"
			if epoch == population.EpochJan2017 {
				fig = "Figure 5"
			}
			logOnce(b, i, "%s, %s:\n%s", fig, epoch, census.Figures4And5Rendered())
		}
	}
}

// BenchmarkFigure6RTTComparison regenerates Fig. 6: RTT by HTTP/2 PING,
// ICMP, TCP handshake, and HTTP/1.1 request timing.
func BenchmarkFigure6RTTComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmp, err := h2scope.RunRTTComparison(population.EpochJan2017, 2, 2, 0.25, 9)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, "Figure 6:\n%s", h2scope.RenderRTTComparison(cmp))
	}
}

// --- substrate microbenchmarks ---

// BenchmarkPopulationGenerate measures full-scale population synthesis.
func BenchmarkPopulationGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pop := population.Generate(population.EpochJan2017, 1.0, int64(i))
		if len(pop.Sites) != 64_299 {
			b.Fatalf("sites = %d", len(pop.Sites))
		}
	}
}

// BenchmarkProbeBattery measures one full H2Scope battery against a single
// live server — the per-site cost of the paper's 1M-site scan.
func BenchmarkProbeBattery(b *testing.B) {
	srv := server.New(server.ApacheProfile(), server.DefaultSite("probe.example"))
	l := netsim.NewListener("probe-bench")
	go func() {
		_ = srv.Serve(l)
	}()
	defer srv.Close()
	cfg := core.DefaultConfig("probe.example")
	cfg.QuietWindow = 5 * time.Millisecond
	dialer := core.DialerFunc(func() (net.Conn, error) { return l.Dial() })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := core.NewProber(dialer, cfg).Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(report.Errors) > 0 {
			b.Fatal(report.Errors)
		}
	}
}

// BenchmarkCDF measures the stats substrate on a Fig. 2-sized sample.
func BenchmarkCDF(b *testing.B) {
	samples := make([]float64, 64_000)
	for i := range samples {
		samples[i] = float64(i%997) + 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cdf := stats.NewCDF(samples)
		if cdf.Quantile(0.5) <= 0 {
			b.Fatal("bad quantile")
		}
	}
}

// BenchmarkConformanceSuite measures the full 17-check RFC 7540 suite
// against a live server — the per-target cost of an h2spec-style scan.
func BenchmarkConformanceSuite(b *testing.B) {
	srv := server.New(server.ApacheProfile(), server.DefaultSite("conform.example"))
	l := netsim.NewListener("conform-bench")
	go func() {
		_ = srv.Serve(l)
	}()
	defer srv.Close()
	env := &conformance.Env{
		Dialer:    core.DialerFunc(func() (net.Conn, error) { return l.Dial() }),
		Authority: "conform.example",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := conformance.RunSuite(env)
		if fails := conformance.Failures(results); len(fails) > 0 {
			b.Fatalf("failures: %v", fails)
		}
		logOnce(b, i, "Conformance: %s", conformance.Summary(results))
	}
}

// BenchmarkPopulationScan measures the thread-pooled scanner's throughput
// (Section IV-B): sites fully probed per second.
func BenchmarkPopulationScan(b *testing.B) {
	pop := population.Generate(population.EpochJan2017, 0.003, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := population.Scan(pop, population.ScanOptions{
			SampleSize: 16, Parallelism: 8, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if sum.Scanned != 16 {
			b.Fatalf("scanned %d", sum.Scanned)
		}
	}
	b.ReportMetric(16*float64(b.N)/b.Elapsed().Seconds(), "sites/s")
}
