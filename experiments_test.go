package h2scope_test

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"h2scope"
	"h2scope/internal/population"
	"h2scope/internal/store"
)

// TestRunTestbedReproducesTableIII holds the re-measured matrix to the golden
// Table III the repository benchmark gates on, all 14 × 6 cells, so the table
// ExampleRunTestbed prints and the one bench/h2bench checks cannot drift apart.
func TestRunTestbedReproducesTableIII(t *testing.T) {
	src, err := os.ReadFile("bench/h2bench/testdata/table3.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Families, Checks []string
		Cells            [][]string
	}
	if err := json.Unmarshal(src, &golden); err != nil {
		t.Fatal(err)
	}
	res, err := h2scope.RunTestbed()
	if err != nil {
		t.Fatalf("RunTestbed: %v", err)
	}
	if !reflect.DeepEqual(res.Families, golden.Families) || !reflect.DeepEqual(res.Checks, golden.Checks) {
		t.Fatalf("labels: families %v, checks %v", res.Families, res.Checks)
	}
	for r, check := range golden.Checks {
		for c, family := range golden.Families {
			if got, want := res.Cells[r][c], golden.Cells[r][c]; got != want {
				t.Errorf("%s / %s = %q, want %q", check, family, got, want)
			}
		}
	}
}

func TestCensusRenderings(t *testing.T) {
	census := h2scope.NewCensus(population.EpochJul2016, 0.05, 1)
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
	res, err := h2scope.RunPushPageLoad(population.EpochJul2016, 2, 0.2, 3)
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
	cmp, err := h2scope.RunRTTComparison(population.EpochJan2017, 2, 2, 0.05, 9)
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

// TestScanRecordPersistenceRoundTrip is offline ≡ live below the CLI: a scan's
// per-site records, written and read back, fold into the tally the live scan
// held, and both print through Census as the ground truth does.
func TestScanRecordPersistenceRoundTrip(t *testing.T) {
	pop := population.Generate(population.EpochJul2016, 0.002, 6)
	var buf bytes.Buffer
	sw := store.NewWriter(&buf)
	sum, err := population.Scan(pop, population.ScanOptions{SampleSize: 6, Parallelism: 4, Seed: 1,
		Sink: func(rec *store.Record) {
			if err := sw.Append(rec); err != nil {
				t.Errorf("Append: %v", err)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	offline := store.NewTally()
	err = store.Read(&buf, func(rec *store.Record) {
		if rec.Report == nil || rec.Report.Settings == nil {
			t.Errorf("%s: report lost", rec.Domain)
		}
		if rec.ServerName == "" || rec.Family == "" || rec.Epoch != pop.Epoch.String() || rec.ScannedAt.IsZero() {
			t.Errorf("%s: server name %q, family %q, epoch %q, scanned at %v", rec.Domain, rec.ServerName, rec.Family, rec.Epoch, rec.ScannedAt)
		}
		offline.Add(rec)
	})
	if err != nil {
		t.Fatalf("store.Read: %v", err)
	}
	if offline.Scanned != 6 {
		t.Fatalf("records = %d, want 6", offline.Scanned)
	}
	if !reflect.DeepEqual(offline, &sum.Tally) {
		t.Errorf("tally re-read from the stored records:\n%+v\nlive tally:\n%+v", offline, &sum.Tally)
	}
	out := (&h2scope.Census{Tally: offline, Label: "measured"}).Render(1)
	for _, want := range []string{"-- Adoption (Section V-B) --", "Sites returning HEADERS     6",
		"-- Table V: SETTINGS_INITIAL_WINDOW_SIZE --", "-- Section V-E: priority --", "-- Figures 4/5: "} {
		if !strings.Contains(out, want) {
			t.Errorf("measured census missing %q:\n%s", want, out)
		}
	}
}

func TestCensusDeterministicAcrossInstances(t *testing.T) {
	a := h2scope.NewCensus(population.EpochJan2017, 0.02, 5)
	b := h2scope.NewCensus(population.EpochJan2017, 0.02, 5)
	if a.TableV() != b.TableV() || a.TableIV(5) != b.TableIV(5) || a.SectionVD() != b.SectionVD() {
		t.Fatal("same seed produced different census renderings")
	}
	// Aggregate tables are seed-invariant by construction (the marginals
	// are the paper's); per-site assignments are what the seed varies.
	c := h2scope.NewCensus(population.EpochJan2017, 0.02, 6)
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
