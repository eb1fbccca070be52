package h2scope_test

import (
	"bytes"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"h2scope"
	"h2scope/internal/netsim"
)

func TestRunTestbedReproducesTableIII(t *testing.T) {
	res, err := h2scope.RunTestbed()
	if err != nil {
		t.Fatalf("RunTestbed: %v", err)
	}
	if len(res.Families) != 6 {
		t.Fatalf("families = %v", res.Families)
	}
	cell := func(check, family string) string {
		ci := -1
		for i, c := range res.Checks {
			if c == check {
				ci = i
			}
		}
		fi := -1
		for i, f := range res.Families {
			if f == family {
				fi = i
			}
		}
		if ci < 0 || fi < 0 {
			t.Fatalf("no cell for %q/%q", check, family)
		}
		return res.Cells[ci][fi]
	}
	// Spot-check the divergent cells of the paper's Table III.
	tests := []struct {
		check, family, want string
	}{
		{"NPN", "apache", "no support"},
		{"NPN", "nginx", "support"},
		{"ALPN", "apache", "support"},
		{"Flow Control on HEADERS Frames", "litespeed", "yes"},
		{"Flow Control on HEADERS Frames", "h2o", "no"},
		{"Zero Window Update on stream", "nginx", "ignore"},
		{"Zero Window Update on stream", "litespeed", "RST_STREAM"},
		{"Zero Window Update on stream", "nghttpd", "GOAWAY"},
		{"Zero Window Update on connection", "tengine", "ignore"},
		{"Large Window Update (Connection)", "apache", "GOAWAY"},
		{"Large Window Update (Stream)", "apache", "RST_STREAM"},
		{"Server Push", "h2o", "yes"},
		{"Server Push", "nginx", "no"},
		{"Priority Mechanism Testing (Algorithm 1)", "apache", "pass"},
		{"Priority Mechanism Testing (Algorithm 1)", "tengine", "fail"},
		{"Self-dependent Stream", "litespeed", "ignore"},
		{"Self-dependent Stream", "nginx", "RST_STREAM"},
		{"Self-dependent Stream", "h2o", "GOAWAY"},
		{"Header Compression", "nginx", "support*"},
		{"Header Compression", "litespeed", "support"},
		{"HTTP/2 PING", "nghttpd", "support"},
		{"Request Multiplexing", "litespeed", "support"},
	}
	for _, tt := range tests {
		if got := cell(tt.check, tt.family); got != tt.want {
			t.Errorf("%s / %s = %q, want %q", tt.check, tt.family, got, tt.want)
		}
	}
	rendered := res.String()
	if !strings.Contains(rendered, "nginx") || !strings.Contains(rendered, "RST_STREAM") {
		t.Errorf("rendering incomplete:\n%s", rendered)
	}
}

func TestCensusRenderings(t *testing.T) {
	census := h2scope.NewCensus(h2scope.EpochJul2016, 0.05, 1)
	for name, out := range map[string]string{
		"adoption": census.Adoption(),
		"tableIV":  census.TableIV(10),
		"tableV":   census.TableV(),
		"tableVI":  census.TableVI(),
		"tableVII": census.TableVII(),
		"fig2":     census.Figure2Rendered(),
		"VD":       census.SectionVD(),
		"VE":       census.SectionVE(),
		"VF":       census.SectionVF(),
		"fig45":    census.Figures4And5Rendered(),
		"all":      census.Render(10),
	} {
		if len(strings.TrimSpace(out)) == 0 {
			t.Errorf("%s rendering empty", name)
		}
	}
	if cdf := census.Figure2(); cdf.Len() == 0 {
		t.Error("Figure2 CDF empty")
	}
	// Fig. 2's headline: the majority of sites advertise >= 100 streams.
	if q := census.Figure2().Quantile(0.2); q < 100 {
		t.Errorf("20th percentile of max streams = %.0f, want >= 100", q)
	}
}

func TestRunPushPageLoad(t *testing.T) {
	// Keep the time scale high enough that the saved round trip dominates
	// scheduling noise (the paper's point: push helps when latency is high).
	res, err := h2scope.RunPushPageLoad(h2scope.EpochJul2016, 2, 0.2, 3)
	if err != nil {
		t.Fatalf("RunPushPageLoad: %v", err)
	}
	if len(res.Series) != 6 {
		t.Fatalf("series = %d, want 6 (the paper's first-experiment push sites)", len(res.Series))
	}
	lower := 0
	for _, s := range res.Series {
		if s.MeanOn < s.MeanOff {
			lower++
		}
	}
	// "enabling server push could reduce the page load time in most cases"
	if lower < 4 {
		t.Errorf("push lowered PLT on %d/6 sites, want most", lower)
	}
	if !strings.Contains(res.String(), "PLT push on") {
		t.Error("rendering incomplete")
	}
}

func TestRunRTTComparison(t *testing.T) {
	cmp, err := h2scope.RunRTTComparison(h2scope.EpochJan2017, 2, 2, 0.05, 9)
	if err != nil {
		t.Fatalf("RunRTTComparison: %v", err)
	}
	byMethod := cmp.ByMethod()
	if len(byMethod) != 4 {
		t.Fatalf("methods = %d, want 4", len(byMethod))
	}
	mean := func(vals []float64) float64 {
		var sum float64
		for _, v := range vals {
			sum += v
		}
		return sum / float64(len(vals))
	}
	h1 := mean(byMethod["h1-request"])
	h2 := mean(byMethod["h2-ping"])
	if h1 <= h2 {
		t.Errorf("h1-request mean %.1f <= h2-ping mean %.1f, want larger", h1, h2)
	}
	if out := h2scope.RenderRTTComparison(cmp); !strings.Contains(out, "h2-ping") {
		t.Errorf("rendering incomplete:\n%s", out)
	}
}

func TestPublicFacadeServerAndProbe(t *testing.T) {
	// The README quickstart path, via the public API only.
	srv := h2scope.NewServer(h2scope.H2OProfile(), h2scope.DefaultSite("api.example"))
	l := netsim.NewListener("facade")
	go func() {
		_ = srv.Serve(l)
	}()
	t.Cleanup(srv.Close)

	report, err := h2scope.Probe(
		h2scope.DialerFunc(func() (net.Conn, error) { return l.Dial() }),
		h2scope.DefaultProbeConfig("api.example"))
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if report.PushVerdict() != "yes" {
		t.Errorf("PushVerdict = %q, want yes", report.PushVerdict())
	}
	if report.Ping == nil || report.Ping.Min() <= 0 {
		t.Error("no PING RTT measured")
	}

	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := h2scope.DialClient(nc, h2scope.DefaultClientOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = c.Close()
	}()
	resp, err := c.FetchBody(h2scope.Request{Authority: "api.example", Path: "/"}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status() != "200" {
		t.Errorf("status = %q", resp.Status())
	}
}

func TestScanPopulationFacade(t *testing.T) {
	pop := h2scope.GeneratePopulation(h2scope.EpochJul2016, 0.002, 4)
	sum, err := h2scope.ScanPopulation(pop, h2scope.ScanOptions{SampleSize: 10, Parallelism: 4, Seed: 2})
	if err != nil {
		t.Fatalf("ScanPopulation: %v", err)
	}
	if sum.Scanned != 10 {
		t.Fatalf("Scanned = %d", sum.Scanned)
	}
	// A measured tally prints through the renderer the ground truth uses.
	out := (&h2scope.Census{Tally: &sum.Tally, Label: "measured"}).Render(1)
	for _, want := range []string{"-- Adoption (Section V-B) --", "Sites returning HEADERS     10",
		"-- Table V: SETTINGS_INITIAL_WINDOW_SIZE --", "-- Section V-E: priority --", "-- Figures 4/5: "} {
		if !strings.Contains(out, want) {
			t.Errorf("measured census missing %q:\n%s", want, out)
		}
	}
}

func TestScanRecordPersistenceRoundTrip(t *testing.T) {
	pop := h2scope.GeneratePopulation(h2scope.EpochJul2016, 0.002, 6)
	sum, err := h2scope.ScanPopulation(pop, h2scope.ScanOptions{SampleSize: 6, Parallelism: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	when := time.Date(2016, 7, 5, 0, 0, 0, 0, time.UTC)
	if err := h2scope.WriteScanRecords(&buf, h2scope.EpochJul2016, when, sum); err != nil {
		t.Fatalf("WriteScanRecords: %v", err)
	}
	records, err := h2scope.ReadScanRecords(&buf)
	if err != nil {
		t.Fatalf("ReadScanRecords: %v", err)
	}
	if len(records) != 6 {
		t.Fatalf("records = %d, want 6", len(records))
	}
	for _, rec := range records {
		if rec.Report == nil || rec.Report.Settings == nil {
			t.Errorf("%s: report lost", rec.Domain)
		}
		if rec.ServerName == "" || rec.Family == "" {
			t.Errorf("%s: server name %q, family %q", rec.Domain, rec.ServerName, rec.Family)
		}
	}
	offline := h2scope.NewCensusTally()
	for i := range records {
		offline.Add(&records[i])
	}
	if !reflect.DeepEqual(offline, &sum.Tally) {
		t.Errorf("tally re-read from the stored records:\n%+v\nlive tally:\n%+v", offline, &sum.Tally)
	}
}

func TestCensusDeterministicAcrossInstances(t *testing.T) {
	a := h2scope.NewCensus(h2scope.EpochJan2017, 0.02, 5)
	b := h2scope.NewCensus(h2scope.EpochJan2017, 0.02, 5)
	if a.TableV() != b.TableV() || a.TableIV(5) != b.TableIV(5) || a.SectionVD() != b.SectionVD() {
		t.Fatal("same seed produced different census renderings")
	}
	// Aggregate tables are seed-invariant by construction (the marginals
	// are the paper's); per-site assignments are what the seed varies.
	c := h2scope.NewCensus(h2scope.EpochJan2017, 0.02, 6)
	differs := false
	for i := range a.Pop.Sites {
		if a.Pop.Sites[i] != c.Pop.Sites[i] {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("different seeds produced identical site assignments")
	}
}

func TestTableIIIChecksIsACopy(t *testing.T) {
	a := h2scope.TableIIIChecks()
	a[0] = "mutated"
	b := h2scope.TableIIIChecks()
	if b[0] == "mutated" {
		t.Fatal("TableIIIChecks leaks internal state")
	}
	if len(b) != 14 {
		t.Fatalf("checks = %d, want 14", len(b))
	}
}
