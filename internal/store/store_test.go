package store_test

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"h2scope/internal/attack"
	"h2scope/internal/core"
	"h2scope/internal/fingerprint"
	"h2scope/internal/netsim"
	"h2scope/internal/population"
	"h2scope/internal/server"
	"h2scope/internal/stats"
	"h2scope/internal/store"
)

// liveReport probes one emulated server so the stored record carries a
// real battery result.
func liveReport(t *testing.T, p server.Profile) *core.Report {
	t.Helper()
	srv := server.New(p, server.DefaultSite("store.example"))
	l := netsim.NewListener("store")
	go func() {
		_ = srv.Serve(l)
	}()
	t.Cleanup(srv.Close)
	cfg := core.DefaultConfig("store.example")
	cfg.QuietWindow = 10 * time.Millisecond
	r, err := core.NewProber(core.DialerFunc(func() (net.Conn, error) { return l.Dial() }), cfg).Run()
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	return r
}

// readAll collects a stream's records; store.Read itself keeps none.
func readAll(t *testing.T, r io.Reader) []store.Record {
	t.Helper()
	var records []store.Record
	if err := store.Read(r, func(rec *store.Record) { records = append(records, *rec) }); err != nil {
		t.Fatalf("Read: %v", err)
	}
	return records
}

// tallyOf folds records the way h2census -analyze does.
func tallyOf(records []store.Record) *store.Tally {
	t := store.NewTally()
	for i := range records {
		t.Add(&records[i])
	}
	return t
}

func TestWriteReadRoundTrip(t *testing.T) {
	report := liveReport(t, server.NginxProfile())
	var buf bytes.Buffer
	w := store.NewWriter(&buf)
	rec := &store.Record{
		Domain:     "store.example",
		Epoch:      "1st Exp. (Jul 2016)",
		ServerName: report.Settings.ServerHeader,
		ScannedAt:  time.Date(2016, 7, 5, 12, 0, 0, 0, time.UTC),
		Report:     report,
	}
	if err := w.Append(rec); err != nil {
		t.Fatal(err)
	}

	// Observations serialize as their Table III strings.
	if !strings.Contains(buf.String(), `"ignore"`) {
		t.Errorf("serialized record missing observation string:\n%s", buf.String())
	}

	records := readAll(t, &buf)
	if len(records) != 1 {
		t.Fatalf("records = %d, want 1", len(records))
	}
	got := records[0]
	if got.Domain != "store.example" || got.ServerName != "nginx/1.9.15" {
		t.Errorf("record = %+v", got)
	}
	if got.Report == nil || got.Report.HPACK == nil {
		t.Fatal("report lost in round trip")
	}
	if got.Report.HPACK.Ratio < 0.99 {
		t.Errorf("HPACK ratio = %v, want ~1 for nginx", got.Report.HPACK.Ratio)
	}
	if got.Report.PriorityVerdict() != "fail" {
		t.Errorf("priority verdict = %q after round trip", got.Report.PriorityVerdict())
	}
}

func TestConcurrentAppends(t *testing.T) {
	var buf bytes.Buffer
	w := store.NewWriter(&buf)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = w.Append(&store.Record{Domain: "d", ScannedAt: time.Unix(int64(i), 0)})
		}(i)
	}
	wg.Wait()
	records := readAll(t, &buf)
	if len(records) != 32 {
		t.Fatalf("records = %d, want 32", len(records))
	}
}

func TestReadMalformed(t *testing.T) {
	visited := 0
	err := store.Read(strings.NewReader("{\"domain\":\"a\"}\nnot-json\n"), func(*store.Record) { visited++ })
	if err == nil || !strings.Contains(err.Error(), "record 1") {
		t.Fatalf("malformed second line: err = %v, want it named as record 1", err)
	}
	if visited != 1 {
		t.Errorf("visited %d records ahead of the malformed line, want 1", visited)
	}
}

// TestAnalyzeStoredScan is offline ≡ live: scan a sample, persist every
// site's record as the scan hands it over, read the file back and fold it
// with the same Add the live scan used. The whole tally must come back, not
// a few buckets.
func TestAnalyzeStoredScan(t *testing.T) {
	pop := population.Generate(population.EpochJul2016, 0.002, 19)
	var buf bytes.Buffer
	w := store.NewWriter(&buf)
	sum, err := population.Scan(pop, population.ScanOptions{SampleSize: 30, Parallelism: 8, Seed: 3,
		Sink: func(rec *store.Record) {
			if err := w.Append(rec); err != nil {
				t.Error(err)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	// A stats trailer in the stream is not a site.
	if err := w.Append(&store.Record{Epoch: pop.Epoch.String(), Stats: &sum.Stats}); err != nil {
		t.Fatal(err)
	}
	records := readAll(t, &buf)
	offline := tallyOf(records)
	if offline.Scanned != 30 || offline.GotHeaders != 30 {
		t.Fatalf("offline tally = %d scanned / %d working, want 30 / 30", offline.Scanned, offline.GotHeaders)
	}
	if !reflect.DeepEqual(offline, &sum.Tally) {
		t.Errorf("offline tally:\n%+v\nlive tally:\n%+v", offline, &sum.Tally)
	}
	if len(offline.ServerNames) == 0 || len(offline.HPACKRatios) == 0 || stats.NewCDFCounts(offline.PingRTTsMillis).Len() != 30 {
		t.Errorf("missing server names, HPACK ratios or PING samples: %+v", offline)
	}
	if _, unfiled := offline.HPACKRatios[store.AllFamilies]; unfiled {
		t.Errorf("records written with a family were filed under %q", store.AllFamilies)
	}
}

// TestTallyFilesFamilylessRecordsUnderAll: files written before Record had a
// family still produce one ratio series, and incomplete probes are counted
// and named in the Coverage text.
func TestTallyFilesFamilylessRecordsUnderAll(t *testing.T) {
	report := liveReport(t, server.ApacheProfile())
	tally := store.NewTally()
	tally.Add(&store.Record{Domain: "a", Report: report, Outcome: "ok"})
	tally.Add(&store.Record{Domain: "b", Outcome: "failed", ErrorKind: "dial"})
	tally.Add(&store.Record{Domain: "c", Outcome: "canceled"})
	if got := tally.HPACKRatios[store.AllFamilies]; stats.NewCDFCounts(got).Len() != 1 || len(tally.HPACKRatios) != 1 {
		t.Errorf("HPACKRatios = %v, want one sample under %q", tally.HPACKRatios, store.AllFamilies)
	}
	if tally.Scanned != 3 || tally.GotHeaders != 1 || tally.PriorityBoth != 1 || len(tally.PushDomains) != 1 {
		t.Errorf("tally = %+v, want 3 scanned, 1 working (apache: priority pass, push)", tally)
	}
	if out := tally.Coverage(); !strings.Contains(out, "probes: 1 complete / 1 failed / 1 canceled (failed by kind: map[dial:1])") {
		t.Errorf("coverage text:\n%s", out)
	}
}

// TestRobustnessRoundTripAndAnalyze pins the robustness column: a stored
// Score survives the JSON round trip, the tally folds it, and the Coverage
// text mentions it.
func TestRobustnessRoundTripAndAnalyze(t *testing.T) {
	score := &attack.Score{
		Verdicts: map[attack.Kind]attack.Verdict{
			attack.KindRapidReset: attack.VerdictSurvived,
			attack.KindHPACKBomb:  attack.VerdictDegraded,
		},
		Survived: 1,
		Total:    2,
		Value:    0.75,
	}
	var buf bytes.Buffer
	w := store.NewWriter(&buf)
	recs := []*store.Record{
		{Domain: "robust.example", ScannedAt: time.Unix(0, 0), Robustness: score},
		{Domain: "plain.example", ScannedAt: time.Unix(0, 0)},
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(buf.String(), `"robustness"`) {
		t.Errorf("serialized record missing robustness field:\n%s", buf.String())
	}
	if strings.Count(buf.String(), `"robustness"`) != 1 {
		t.Errorf("robustness field not omitted when nil:\n%s", buf.String())
	}

	records := readAll(t, &buf)
	got := records[0].Robustness
	if got == nil {
		t.Fatal("robustness score lost in round trip")
	}
	if got.Value != 0.75 || got.Survived != 1 || got.Total != 2 {
		t.Errorf("score = %+v, want value 0.75 survived 1 total 2", got)
	}
	if got.Verdicts[attack.KindHPACKBomb] != attack.VerdictDegraded {
		t.Errorf("verdicts = %v", got.Verdicts)
	}
	if records[1].Robustness != nil {
		t.Errorf("plain record gained a robustness score: %+v", records[1].Robustness)
	}

	a := tallyOf(records)
	if a.RobustnessSites != 1 || a.RobustnessSum != 0.75 {
		t.Errorf("robustness = %v over %d sites, want 0.75 over 1", a.RobustnessSum, a.RobustnessSites)
	}
	if a.RobustnessVerdicts["rapid-reset/survived"] != 1 ||
		a.RobustnessVerdicts["hpack-bomb/degraded"] != 1 {
		t.Errorf("RobustnessVerdicts = %v", a.RobustnessVerdicts)
	}
	if out := a.Coverage(); !strings.Contains(out, "robustness: 1 sites scored, mean 0.75\n  hpack-bomb/degraded: 1\n  rapid-reset/survived: 1\n") {
		t.Errorf("coverage text missing robustness lines:\n%s", out)
	}
}

// TestFingerprintRoundTripAndAnalyze pins the fingerprint column: a stored
// impersonation sweep survives the JSON round trip, the tally folds it, and
// the Coverage text mentions it.
func TestFingerprintRoundTripAndAnalyze(t *testing.T) {
	sweep := &fingerprint.CensusResult{
		Clients: []fingerprint.ClientObservation{
			{Profile: "curl", OK: true, H2: "3:100|0|0|m,p,s,a", ExpectedH2: "3:100|0|0|m,p,s,a",
				ServerSettings: "3:100;4:65535", BodyDigest: "200:12:abcdef"},
			{Profile: "chrome", OK: true, H2: "1:65536|0|0|m,a,s,p", ExpectedH2: "1:65536|0|0|m,a,s,p",
				ServerSettings: "3:100;4:65535", BodyDigest: "200:99:123456"},
		},
	}
	sweep.Observed()
	if !sweep.EchoOK || !sweep.Differs {
		t.Fatalf("fixture sweep = echo %v differs %v, want true/true", sweep.EchoOK, sweep.Differs)
	}
	var buf bytes.Buffer
	w := store.NewWriter(&buf)
	recs := []*store.Record{
		{Domain: "fp.example", ScannedAt: time.Unix(0, 0), Fingerprint: sweep},
		{Domain: "plain.example", ScannedAt: time.Unix(0, 0)},
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if strings.Count(buf.String(), `"fingerprint"`) != 1 {
		t.Errorf("fingerprint field not serialized exactly once:\n%s", buf.String())
	}

	records := readAll(t, &buf)
	got := records[0].Fingerprint
	if got == nil {
		t.Fatal("fingerprint sweep lost in round trip")
	}
	if !got.EchoOK || !got.Differs || len(got.Clients) != 2 {
		t.Errorf("sweep = %+v, want 2 clients, echo, differs", got)
	}
	if got.Clients[1].H2 != "1:65536|0|0|m,a,s,p" || got.Clients[1].BodyDigest != "200:99:123456" {
		t.Errorf("chrome observation mangled: %+v", got.Clients[1])
	}
	if records[1].Fingerprint != nil {
		t.Errorf("plain record gained a sweep: %+v", records[1].Fingerprint)
	}

	a := tallyOf(records)
	if a.FingerprintSites != 1 || a.FingerprintEcho != 1 || a.FingerprintDiffers != 1 {
		t.Errorf("tally = %d/%d/%d, want 1/1/1",
			a.FingerprintSites, a.FingerprintEcho, a.FingerprintDiffers)
	}
	if out := a.Coverage(); !strings.Contains(out, "fingerprint sweep: 1 sites / 1 echoed /fp / 1 served by client") {
		t.Errorf("coverage text missing fingerprint line:\n%s", out)
	}
}

// TestTallyKeepsNothingPerSite: the tally is counts. A slice field grows with
// the sample, so none may come back; PushDomains is the one list the paper
// prints, and it is as long as the paper's count of push sites.
func TestTallyKeepsNothingPerSite(t *testing.T) {
	typ := reflect.TypeOf(store.Tally{})
	var sliceOf func(reflect.Type) bool
	sliceOf = func(ft reflect.Type) bool {
		switch ft.Kind() {
		case reflect.Slice:
			return true
		case reflect.Map, reflect.Pointer, reflect.Array:
			return sliceOf(ft.Elem())
		}
		return false
	}
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); sliceOf(f.Type) && f.Name != "PushDomains" {
			t.Errorf("Tally.%s is %v: a tally field that holds a slice grows with the sample; count by value instead", f.Name, f.Type)
		}
	}
}

// TestHPACKRatiosRoundLikeTheFigure: a ratio is counted at the 0.01 the figure
// prints, rounded the way %.2f rounds, so the quantile printed from the counts
// is the one printed from the raw sample — halfway cases included, where
// math.Round(r*100)/100 and %.2f part ways (0.285 is 0.28499… in binary).
func TestHPACKRatiosRoundLikeTheFigure(t *testing.T) {
	raw := []float64{0.285, 0.125, 0.135, 0.005, 0.999, 0.2850000001, 1, 0.31, 0.3149999}
	tally := store.NewTally()
	for _, r := range raw {
		tally.AddHPACKRatio("nginx", r)
	}
	counted, sampled := stats.NewCDFCounts(tally.HPACKRatios["nginx"]), stats.NewCDF(raw)
	if counted.Len() != len(raw) {
		t.Fatalf("counted %d ratios, want %d", counted.Len(), len(raw))
	}
	for q := 0.0; q <= 1; q += 0.05 {
		if got, want := fmt.Sprintf("%.2f", counted.Quantile(q)), fmt.Sprintf("%.2f", sampled.Quantile(q)); got != want {
			t.Errorf("quantile %.2f prints %s from the counts, %s from the sample", q, got, want)
		}
	}
}
