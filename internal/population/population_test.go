package population_test

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"h2scope/internal/attack"
	"h2scope/internal/core"
	"h2scope/internal/fingerprint"
	"h2scope/internal/population"
	"h2scope/internal/server"
	"h2scope/internal/stats"
	"h2scope/internal/store"
)

func fullPop(t *testing.T, e population.Epoch) *population.Population {
	t.Helper()
	return population.Generate(e, 1.0, 2016)
}

// scannedSite is one site of a measured scan as these tests read it: the
// record the scan handed its sink, beside the spec it answers.
type scannedSite struct {
	Spec *population.SiteSpec
	*store.Record
}

// scanCollect is population.Scan keeping every site's record, in completion
// order: the summary holds none, so a test that reads reports collects them
// through the sink.
func scanCollect(t *testing.T, pop *population.Population, opts population.ScanOptions) (*population.ScanSummary, []scannedSite) {
	t.Helper()
	specs := make(map[string]*population.SiteSpec, len(pop.Sites))
	for i := range pop.Sites {
		specs[pop.Sites[i].Domain] = &pop.Sites[i]
	}
	var sites []scannedSite
	opts.Sink = func(rec *store.Record) { sites = append(sites, scannedSite{specs[rec.Domain], rec}) }
	sum, err := population.Scan(pop, opts)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(sites) != sum.Scanned {
		t.Fatalf("the sink saw %d records of %d scanned sites", len(sites), sum.Scanned)
	}
	return sum, sites
}

// tinyWindowCounts returns the Section V-D.1 buckets in the paper's order.
func tinyWindowCounts(t *store.Tally) (oneByte, zeroLen, silent int) {
	return t.TinyWindow[core.TinyWindowOneByte], t.TinyWindow[core.TinyWindowZeroLen],
		t.TinyWindow[core.TinyWindowNothing]
}

func TestAdoptionCountsMatchPaper(t *testing.T) {
	tests := []struct {
		epoch              population.Epoch
		npn, alpn, working int
	}{
		{population.EpochJul2016, 49_334, 47_966, 44_390},
		{population.EpochJan2017, 78_714, 70_859, 64_299},
	}
	for _, tt := range tests {
		t.Run(tt.epoch.String(), func(t *testing.T) {
			pop := fullPop(t, tt.epoch)
			tally := pop.Tally()
			npn, alpn, working := tally.NPN, tally.ALPN, tally.GotHeaders
			if npn != tt.npn || alpn != tt.alpn || working != tt.working {
				t.Errorf("adoption = %d/%d/%d, want %d/%d/%d",
					npn, alpn, working, tt.npn, tt.alpn, tt.working)
			}
			if len(pop.Sites) != tt.working {
				t.Errorf("len(Sites) = %d, want %d", len(pop.Sites), tt.working)
			}
		})
	}
}

func TestTableIVServerCounts(t *testing.T) {
	pop := fullPop(t, population.EpochJul2016)
	counts := pop.Tally().ServerNames
	want := map[string]int{
		"LiteSpeed":           12_637,
		"nginx":               11_293,
		"GSE":                 9_928,
		"Tengine":             2_535,
		"cloudflare-nginx":    1_197,
		"IdeaWebServer/v0.80": 1_128,
	}
	for name, n := range want {
		if counts[name] != n {
			t.Errorf("%s = %d, want %d", name, counts[name], n)
		}
	}
	if kinds := len(counts); kinds != 223 {
		t.Errorf("server kinds = %d, want 223", kinds)
	}

	pop2 := fullPop(t, population.EpochJan2017)
	counts2 := pop2.Tally().ServerNames
	want2 := map[string]int{
		"nginx":           27_394,
		"LiteSpeed":       13_626,
		"GSE":             9_929,
		"Tengine/Aserver": 2_620,
		"Tengine":         674,
	}
	for name, n := range want2 {
		if counts2[name] != n {
			t.Errorf("exp2 %s = %d, want %d", name, counts2[name], n)
		}
	}
	if kinds := len(counts2); kinds != 345 {
		t.Errorf("exp2 server kinds = %d, want 345", kinds)
	}
}

func TestTableVInitialWindowDistribution(t *testing.T) {
	pop := fullPop(t, population.EpochJul2016)
	rows := pop.Tally().InitialWindow
	total := 0
	for _, n := range rows {
		total += n
	}
	want := map[string]int{
		"NULL":       1_050,
		"0":          3_072,
		"32768":      3,
		"65535":      49,
		"65536":      20_477,
		"131072":     1,
		"262144":     1,
		"1048576":    10_799,
		"16777216":   11,
		"20000000":   1,
		"2147483647": 8_926,
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("Table V rows = %v, want %v", rows, want)
	}
	if total != 44_390 {
		t.Errorf("Table V total = %d, want 44390", total)
	}
}

func TestTableVIAndVIIDistributions(t *testing.T) {
	pop := fullPop(t, population.EpochJan2017)
	tally := pop.Tally()
	frameRows := tally.MaxFrame
	wantFrame := map[string]int{
		"NULL":     1_015,
		"16384":    25_987,
		"1048576":  81,
		"16777215": 37_216,
	}
	if !reflect.DeepEqual(frameRows, wantFrame) {
		t.Errorf("Table VI rows = %v, want %v", frameRows, wantFrame)
	}

	hlRows := tally.MaxHeaderList
	wantHL := map[string]int{
		"NULL":      1_015,
		"unlimited": 52_311,
		"16384":     10_806,
		"32768":     59,
		"81920":     3,
		"131072":    25,
		"1048896":   80,
	}
	if !reflect.DeepEqual(hlRows, wantHL) {
		t.Errorf("Table VII rows = %v, want %v", hlRows, wantHL)
	}
}

func TestNullSettingsConsistentAcrossTables(t *testing.T) {
	// The NULL rows of Tables V-VII are the same sites: those whose
	// SETTINGS frame is empty.
	pop := fullPop(t, population.EpochJul2016)
	nulls := 0
	for i := range pop.Sites {
		if pop.Sites[i].OmitSettings {
			nulls++
		}
	}
	if nulls != 1_050 {
		t.Errorf("OmitSettings sites = %d, want 1050", nulls)
	}
}

func TestSectionVDCounts(t *testing.T) {
	pop := fullPop(t, population.EpochJan2017)
	tally := pop.Tally()
	oneByte, zeroLen, silent := tinyWindowCounts(tally)
	if oneByte != 44_204 || zeroLen != 8_056 || silent != 12_039 {
		t.Errorf("tiny window = %d/%d/%d, want 44204/8056/12039", oneByte, zeroLen, silent)
	}
	// Most silent sites are LiteSpeed (paper: 10,472 of 12,039). The paper's
	// 42 debug-carrying GOAWAYs are generated on the stream-level GOAWAY
	// sites; the tally counts the ones a probe can see (ZeroWUConnDebug, on
	// the connection-level GOAWAY), so the 42 is counted from the specs.
	litespeedSilent, streamDebug := 0, 0
	for i := range pop.Sites {
		if pop.Sites[i].TinyWindow == server.TinyWindowSilent && pop.Sites[i].Family == "litespeed" {
			litespeedSilent++
		}
		if pop.Sites[i].ZeroWUStream == server.ReactGoAway && pop.Sites[i].ZeroWUDebug {
			streamDebug++
		}
	}
	if litespeedSilent < 9_000 {
		t.Errorf("LiteSpeed silent sites = %d, want ~10,472", litespeedSilent)
	}
	if got := tally.ZeroWindowHeadersOK; got != 23_834 {
		t.Errorf("zero-window HEADERS = %d, want 23834", got)
	}
	zs := tally.ZeroWUStream
	if zs[core.ObserveRSTStream] != 26_156 {
		t.Errorf("zero WU stream RST = %d, want 26156", zs[core.ObserveRSTStream])
	}
	if zs[core.ObserveGoAway] != 162 || streamDebug != 42 {
		t.Errorf("zero WU stream GOAWAY/debug = %d/%d, want 162/42", zs[core.ObserveGoAway], streamDebug)
	}
	if got := tally.ZeroWUConnDebug; got < 35 || got > 42 {
		t.Errorf("zero WU conn GOAWAY with debug = %d, want most of the 42", got)
	}
	ls := tally.LargeWUStream
	if ls[core.ObserveRSTStream] != 44_057 {
		t.Errorf("large WU stream RST = %d, want 44057", ls[core.ObserveRSTStream])
	}
	if ls[core.ObserveIgnore] != 20_242 {
		t.Errorf("large WU stream ignore = %d, want 20242", ls[core.ObserveIgnore])
	}
	if got := tally.LargeWUConn[core.ObserveGoAway]; got != 62_668 {
		t.Errorf("large WU conn GOAWAY = %d, want 62668", got)
	}
}

func TestSectionVECounts(t *testing.T) {
	tally := fullPop(t, population.EpochJul2016).Tally()
	last, first, both := tally.PriorityLast, tally.PriorityFirst, tally.PriorityBoth
	if last != 1_147 || first != 46 || both != 38 {
		t.Errorf("priority = last %d / first %d / both %d, want 1147/46/38", last, first, both)
	}
	if got := tally.SelfDep[core.ObserveRSTStream]; got != 18_237 {
		t.Errorf("self-dep RST = %d, want 18237", got)
	}

	tally2 := fullPop(t, population.EpochJan2017).Tally()
	last, first, both = tally2.PriorityLast, tally2.PriorityFirst, tally2.PriorityBoth
	if last != 2_187 || first != 117 || both != 111 {
		t.Errorf("exp2 priority = %d/%d/%d, want 2187/117/111", last, first, both)
	}
	if got := tally2.SelfDep[core.ObserveRSTStream]; got != 53_379 {
		t.Errorf("exp2 self-dep RST = %d, want 53379", got)
	}
}

func TestPushSites(t *testing.T) {
	pop := fullPop(t, population.EpochJul2016)
	push := pop.Tally().PushDomains
	if len(push) != 6 {
		t.Fatalf("push sites = %d, want 6", len(push))
	}
	pop2 := fullPop(t, population.EpochJan2017)
	if got := len(pop2.Tally().PushDomains); got != 15 {
		t.Fatalf("exp2 push sites = %d, want 15", got)
	}
	// The paper's Fig. 3 names the push sites; nghttp2.org is among them.
	found := false
	for _, d := range push {
		if d == "nghttp2.org" {
			found = true
		}
	}
	if !found {
		t.Errorf("push sites %v missing nghttp2.org", push)
	}
}

func TestHPACKRatioShapes(t *testing.T) {
	pop := fullPop(t, population.EpochJul2016)
	// The specs' own ratios: the tally counts them at the figure's 0.01, which
	// would move a 0.2951 across the 0.3 the paper's statements are about.
	ratios := make(map[string][]float64)
	for _, s := range pop.Sites {
		ratios[s.Family] = append(ratios[s.Family], s.HPACKRatio)
	}
	// GSE: all below 0.3 ("all of which are less than 0.3").
	for _, r := range ratios["GSE"] {
		if r >= 0.3 {
			t.Fatalf("GSE ratio %v >= 0.3", r)
		}
	}
	// Nginx: ~93.5% exactly 1.
	ones := 0
	for _, r := range ratios["nginx"] {
		if r == 1.0 {
			ones++
		}
	}
	frac := float64(ones) / float64(len(ratios["nginx"]))
	if math.Abs(frac-0.935) > 0.02 {
		t.Errorf("nginx ratio==1 fraction = %.3f, want ~0.935", frac)
	}
	// LiteSpeed: ~80% below 0.3.
	below := 0
	for _, r := range ratios["litespeed"] {
		if r < 0.3 {
			below++
		}
	}
	lsFrac := float64(below) / float64(len(ratios["litespeed"]))
	if math.Abs(lsFrac-0.80) > 0.03 {
		t.Errorf("litespeed ratio<0.3 fraction = %.3f, want ~0.80", lsFrac)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := population.Generate(population.EpochJul2016, 0.01, 7)
	b := population.Generate(population.EpochJul2016, 0.01, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different populations")
	}
	c := population.Generate(population.EpochJul2016, 0.01, 8)
	if reflect.DeepEqual(a.Sites, c.Sites) {
		t.Fatal("different seeds produced identical populations")
	}
}

func TestScaledGeneration(t *testing.T) {
	pop := population.Generate(population.EpochJul2016, 0.1, 3)
	if got, want := len(pop.Sites), 4_439; got != want {
		t.Errorf("scaled working sites = %d, want %d", got, want)
	}
	oneByte, zeroLen, silent := tinyWindowCounts(pop.Tally())
	if got := oneByte + zeroLen + silent; got != len(pop.Sites) {
		t.Errorf("tiny window buckets sum to %d, want %d", got, len(pop.Sites))
	}
	if silent < 400 || silent > 500 {
		t.Errorf("scaled silent = %d, want ~443", silent)
	}
}

// TestScanMeasurementsMatchGroundTruth is the reproduction's core validity
// check: for a sample of materialized sites, the H2Scope *measured*
// classification must equal the generator's ground truth on every
// dimension. This is what justifies reporting generator-level tables at
// full scale.
func TestScanMeasurementsMatchGroundTruth(t *testing.T) {
	pop := population.Generate(population.EpochJan2017, 0.003, 11) // ~193 sites
	sum, sites := scanCollect(t, pop, population.ScanOptions{
		SampleSize:  40,
		Parallelism: 8,
		Seed:        5,
	})
	if sum.Scanned != 40 {
		t.Fatalf("Scanned = %d, want 40", sum.Scanned)
	}
	obsOfReaction := func(r server.Reaction) core.Observation {
		switch r {
		case server.ReactRSTStream:
			return core.ObserveRSTStream
		case server.ReactGoAway:
			return core.ObserveGoAway
		default:
			return core.ObserveIgnore
		}
	}
	for _, res := range sites {
		spec, r := res.Spec, res.Report
		if r == nil || r.Settings == nil {
			t.Errorf("%s: no report", spec.Domain)
			continue
		}
		if r.Settings.ServerHeader != spec.ServerName {
			t.Errorf("%s: server header %q, want %q", spec.Domain, r.Settings.ServerHeader, spec.ServerName)
		}
		wantClass := map[server.TinyWindowBehavior]core.TinyWindowClass{
			server.TinyWindowComply:   core.TinyWindowOneByte,
			server.TinyWindowZeroData: core.TinyWindowZeroLen,
			server.TinyWindowSilent:   core.TinyWindowNothing,
		}[spec.TinyWindow]
		if r.FlowData == nil || r.FlowData.Class != wantClass {
			t.Errorf("%s: tiny window class = %v, want %v", spec.Domain, r.FlowData.Class, wantClass)
		}
		if r.ZeroWindowHeaders == nil || r.ZeroWindowHeaders.GotHeaders == spec.FlowControlHeaders {
			t.Errorf("%s: zero-window headers = %+v, spec FCH=%v", spec.Domain, r.ZeroWindowHeaders, spec.FlowControlHeaders)
		}
		if r.ZeroWU == nil || r.ZeroWU.Stream != obsOfReaction(spec.ZeroWUStream) {
			t.Errorf("%s: zero WU stream = %v, want %v", spec.Domain, r.ZeroWU.Stream, obsOfReaction(spec.ZeroWUStream))
		}
		if r.ZeroWU.Conn != obsOfReaction(spec.ZeroWUConn) {
			t.Errorf("%s: zero WU conn = %v, want %v", spec.Domain, r.ZeroWU.Conn, obsOfReaction(spec.ZeroWUConn))
		}
		if r.SelfDep == nil || r.SelfDep.Reaction != obsOfReaction(spec.SelfDep) {
			t.Errorf("%s: self-dep = %v, want %v", spec.Domain, r.SelfDep.Reaction, obsOfReaction(spec.SelfDep))
		}
		if r.Push == nil || r.Push.Supported != spec.Push {
			t.Errorf("%s: push = %v, want %v", spec.Domain, r.Push.Supported, spec.Push)
		}
		wantLast := spec.Scheduling == server.SchedPriority || spec.Scheduling == server.SchedPriorityLastOnly
		if r.Priority == nil || r.Priority.LastRuleOK != wantLast {
			t.Errorf("%s: priority last rule = %v, want %v (mode %v)",
				spec.Domain, r.Priority.LastRuleOK, wantLast, spec.Scheduling)
		}
	}

	// The same statement over the whole census aggregate: the ground truth
	// counted over the sampled specs is the measured tally, field by field,
	// on every field the spec determines — Tables IV-VII, Fig. 2, V-D, V-E
	// and V-F — and on the coverage fields, empty on both sides of a clean
	// scan. The excluded fields are the ones the two feeders fill from
	// different sources.
	excluded := map[string]string{
		"NPN":            "ground truth is the epoch's negotiation total, which includes sites that never return HEADERS; checked against the specs below",
		"ALPN":           "as NPN",
		"HPACKRatios":    "target ratio vs measured ratio; series sizes checked below, values by TestScanHPACKRatiosTrackTargets",
		"PingRTTsMillis": "measured only",
	}
	sampled := &population.Population{Epoch: pop.Epoch, Scale: pop.Scale}
	npn, alpn := 0, 0
	for _, res := range sites {
		sampled.Sites = append(sampled.Sites, *res.Spec)
		if res.Spec.NPN {
			npn++
		}
		if res.Spec.ALPN {
			alpn++
		}
	}
	truth := sampled.Tally()
	got, want := reflect.ValueOf(sum.Tally), reflect.ValueOf(*truth)
	compared := 0
	for i := 0; i < got.NumField(); i++ {
		name := got.Type().Field(i).Name
		if _, skip := excluded[name]; skip {
			continue
		}
		compared++
		if !reflect.DeepEqual(got.Field(i).Interface(), want.Field(i).Interface()) {
			t.Errorf("tally field %s: measured %v, ground truth %v", name, got.Field(i), want.Field(i))
		}
	}
	if compared < 19 {
		t.Errorf("compared %d tally fields, want the 19 spec-determined ones at least", compared)
	}
	if sum.NPN != npn || sum.ALPN != alpn {
		t.Errorf("measured NPN/ALPN = %d/%d, sampled specs say %d/%d", sum.NPN, sum.ALPN, npn, alpn)
	}
	for family, ratios := range truth.HPACKRatios {
		if got, want := stats.NewCDFCounts(sum.HPACKRatios[family]).Len(), stats.NewCDFCounts(ratios).Len(); got != want {
			t.Errorf("HPACK ratio series %s: %d measured, %d sites", family, got, want)
		}
	}
	if got := stats.NewCDFCounts(sum.PingRTTsMillis).Len(); got != sum.Scanned {
		t.Errorf("PING RTT samples = %d, want one per site", got)
	}
}

func TestScanHPACKRatiosTrackTargets(t *testing.T) {
	pop := population.Generate(population.EpochJul2016, 0.002, 13)
	_, sites := scanCollect(t, pop, population.ScanOptions{SampleSize: 30, Parallelism: 8, Seed: 3})
	for _, res := range sites {
		if res.Report == nil || res.Report.HPACK == nil {
			continue
		}
		got := res.Report.HPACK.Ratio
		want := res.Spec.HPACKRatio
		// The ratio model is approximate; demand qualitative agreement.
		if want >= 0.97 && got < 0.97 {
			t.Errorf("%s (%s): measured ratio %.3f, target ~1", res.Spec.Domain, res.Spec.Family, got)
		}
		if want < 0.3 && got > 0.5 {
			t.Errorf("%s (%s): measured ratio %.3f, target %.3f", res.Spec.Domain, res.Spec.Family, got, want)
		}
	}
}

func TestFigure2DistributionProperties(t *testing.T) {
	pop := fullPop(t, population.EpochJul2016)
	total, below100, at100or128 := 0, 0, 0
	for v, n := range pop.Tally().MaxConcurrent {
		total += n
		if v < 100 {
			below100 += n
		}
		if v == 100 || v == 128 {
			at100or128 += n
		}
	}
	if total != 44_390-1_050 {
		t.Fatalf("samples = %d, want working minus NULL", total)
	}
	// "the majority of web sites use a value larger than or equal to 100"
	if frac := float64(below100) / float64(total); frac > 0.10 {
		t.Errorf("P(X < 100) = %.3f, want small", frac)
	}
	// "100 and 128 are popular values"
	if frac := float64(at100or128) / float64(total); frac < 0.5 {
		t.Errorf("P(X in {100,128}) = %.3f, want majority", frac)
	}
}

func TestDomainsUniqueAndRTTsPlausible(t *testing.T) {
	pop := population.Generate(population.EpochJan2017, 0.05, 17)
	seen := make(map[string]bool, len(pop.Sites))
	for i := range pop.Sites {
		s := &pop.Sites[i]
		if seen[s.Domain] {
			t.Fatalf("duplicate domain %s", s.Domain)
		}
		seen[s.Domain] = true
		if s.BaseRTT < 2*time.Millisecond || s.BaseRTT > 350*time.Millisecond {
			t.Errorf("%s: BaseRTT %v out of range", s.Domain, s.BaseRTT)
		}
		if s.ServerName == "" || s.Family == "" {
			t.Errorf("%s: missing identity", s.Domain)
		}
	}
}

func TestProfileMappingConsistency(t *testing.T) {
	pop := population.Generate(population.EpochJul2016, 0.01, 23)
	for i := range pop.Sites {
		s := &pop.Sites[i]
		p := s.Profile()
		if p.Name != s.ServerName || p.Family != s.Family {
			t.Fatalf("%s: identity mismatch", s.Domain)
		}
		if s.OmitSettings {
			if p.AdvertiseMaxStreams {
				t.Errorf("%s: NULL-settings site advertises max streams", s.Domain)
			}
			if len := p.MaxFrameSize; len != 16_384 {
				t.Errorf("%s: NULL-settings site frame size %d", s.Domain, len)
			}
		} else if s.InitialWindow == 0 && p.ConnWindowBoost == 0 {
			t.Errorf("%s: zero-window site without boost", s.Domain)
		}
		if s.Push {
			if !p.EnablePush {
				t.Errorf("%s: push site profile has push disabled", s.Domain)
			}
			site := s.NewSite()
			if r, ok := site.Lookup("/"); !ok || len(r.Push) == 0 {
				t.Errorf("%s: push site has no manifest", s.Domain)
			}
		}
	}
}

func TestScaledPriorityAndPushCounts(t *testing.T) {
	pop := population.Generate(population.EpochJan2017, 0.1, 29)
	tally := pop.Tally()
	last, first, both := tally.PriorityLast, tally.PriorityFirst, tally.PriorityBoth
	if last < 180 || last > 260 {
		t.Errorf("scaled last-rule count = %d, want ~219", last)
	}
	if both < 5 || both > 20 {
		t.Errorf("scaled both-rule count = %d, want ~11", both)
	}
	if first < both {
		t.Errorf("first-rule %d < both %d", first, both)
	}
	if got := len(tally.PushDomains); got < 1 || got > 3 {
		t.Errorf("scaled push sites = %d, want 1-2", got)
	}
}

func TestEpochString(t *testing.T) {
	if population.EpochJul2016.String() == population.EpochJan2017.String() {
		t.Error("epoch strings not distinct")
	}
	if s := population.Epoch(99).String(); s != "unknown epoch" {
		t.Errorf("unknown epoch = %q", s)
	}
}

func TestAgreementPerfectOnCleanScan(t *testing.T) {
	pop := population.Generate(population.EpochJul2016, 0.003, 31)
	sum, err := population.Scan(pop, population.ScanOptions{SampleSize: 25, Parallelism: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	agr := population.ComputeAgreement(sum)
	if agr.Sites != 25 {
		t.Fatalf("Sites = %d, want 25", agr.Sites)
	}
	if !agr.Perfect() {
		t.Errorf("agreement not perfect:\n%s", agr)
	}
	for dim, frac := range agr.Dimensions {
		if frac != 1.0 {
			t.Errorf("%s agreement = %.3f", dim, frac)
		}
	}
	if out := agr.String(); out == "" {
		t.Error("empty rendering")
	}
}

// TestScanRobustnessScoresSample exercises the census robustness column:
// with ScanOptions.Robustness, every successfully probed site also runs the
// short adversarial battery and carries a score, and the summary aggregates
// fold every scenario verdict.
func TestScanRobustnessScoresSample(t *testing.T) {
	pop := population.Generate(population.EpochJan2017, 0.002, 17)
	sum, sites := scanCollect(t, pop, population.ScanOptions{
		SampleSize:  4,
		Parallelism: 4,
		Seed:        9,
		Robustness:  true,
	})
	if sum.Scanned != 4 {
		t.Fatalf("Scanned = %d, want 4", sum.Scanned)
	}
	for _, res := range sites {
		if res.Report == nil {
			t.Errorf("%s: no report", res.Spec.Domain)
			continue
		}
		score := res.Robustness
		if score == nil {
			t.Errorf("%s: no robustness score despite Robustness option", res.Spec.Domain)
			continue
		}
		if score.Total != len(attack.Kinds()) {
			t.Errorf("%s: battery size %d, want %d", res.Spec.Domain, score.Total, len(attack.Kinds()))
		}
		if score.Value < 0 || score.Value > 1 {
			t.Errorf("%s: score %v outside [0,1]", res.Spec.Domain, score.Value)
		}
		if len(score.Verdicts) != score.Total {
			t.Errorf("%s: %d verdicts for %d scenarios", res.Spec.Domain, len(score.Verdicts), score.Total)
		}
	}
	if sum.RobustnessSites != sum.Scanned || sum.RobustnessSum < 0 || sum.RobustnessSum > float64(sum.Scanned) {
		t.Errorf("robustness scores add up to %v over %d sites, want %d sites scored in [0,1]", sum.RobustnessSum, sum.RobustnessSites, sum.Scanned)
	}
	verdictTotal := 0
	for _, n := range sum.RobustnessVerdicts {
		verdictTotal += n
	}
	if want := sum.Scanned * len(attack.Kinds()); verdictTotal != want {
		t.Errorf("RobustnessVerdicts total %d, want %d", verdictTotal, want)
	}
}

// TestScanWithoutRobustnessLeavesScoresNil pins the default: no battery, no
// scores, empty aggregates.
func TestScanWithoutRobustnessLeavesScoresNil(t *testing.T) {
	pop := population.Generate(population.EpochJul2016, 0.002, 17)
	sum, sites := scanCollect(t, pop, population.ScanOptions{SampleSize: 2, Parallelism: 2, Seed: 3})
	for _, res := range sites {
		if res.Robustness != nil {
			t.Errorf("%s: unexpected robustness score without the option", res.Spec.Domain)
		}
	}
	if sum.RobustnessSites != 0 || len(sum.RobustnessVerdicts) != 0 {
		t.Errorf("robustness aggregates populated without the option: %d sites, %v",
			sum.RobustnessSites, sum.RobustnessVerdicts)
	}
}

// TestScanFingerprintSweepsSample exercises the census fingerprint column:
// with ScanOptions.Fingerprint, every successfully probed site is re-dialed
// once per builtin client profile, the testbed's /fp endpoint echoes each
// impersonated HTTP/2 fingerprint exactly, and — because the testbed serves
// every client the same bytes — no site is flagged as fingerprint-serving.
func TestScanFingerprintSweepsSample(t *testing.T) {
	pop := population.Generate(population.EpochJan2017, 0.002, 17)
	sum, sites := scanCollect(t, pop, population.ScanOptions{
		SampleSize:  3,
		Parallelism: 3,
		Seed:        11,
		Fingerprint: true,
	})
	if sum.Scanned != 3 {
		t.Fatalf("Scanned = %d, want 3", sum.Scanned)
	}
	profiles := fingerprint.BuiltinProfiles()
	for _, res := range sites {
		fp := res.Fingerprint
		if fp == nil {
			t.Errorf("%s: no fingerprint sweep despite Fingerprint option", res.Spec.Domain)
			continue
		}
		if len(fp.Clients) != len(profiles) {
			t.Errorf("%s: %d client observations, want %d", res.Spec.Domain, len(fp.Clients), len(profiles))
			continue
		}
		if !fp.EchoOK {
			t.Errorf("%s: /fp echo missing: %+v", res.Spec.Domain, fp.Clients)
		}
		if fp.Differs {
			t.Errorf("%s: flagged as serving by fingerprint; testbed is uniform: %+v",
				res.Spec.Domain, fp.Clients)
		}
		for i, obs := range fp.Clients {
			if obs.Profile != profiles[i].Name {
				t.Errorf("%s: observation %d profile %q, want %q", res.Spec.Domain, i, obs.Profile, profiles[i].Name)
			}
			if !obs.OK {
				t.Errorf("%s: %s sweep failed: %s", res.Spec.Domain, obs.Profile, obs.Error)
				continue
			}
			if obs.H2 != obs.ExpectedH2 {
				t.Errorf("%s: %s echoed %q, want %q", res.Spec.Domain, obs.Profile, obs.H2, obs.ExpectedH2)
			}
			if obs.BodyDigest == "" || obs.ServerSettings == "" {
				t.Errorf("%s: %s missing digest/settings: %+v", res.Spec.Domain, obs.Profile, obs)
			}
		}
	}
	if sum.FingerprintSites != sum.Scanned || sum.FingerprintEcho != sum.Scanned {
		t.Errorf("summary counters = %d swept / %d echoed, want %d / %d",
			sum.FingerprintSites, sum.FingerprintEcho, sum.Scanned, sum.Scanned)
	}
	if sum.FingerprintDiffers != 0 {
		t.Errorf("FingerprintDiffers = %d, want 0", sum.FingerprintDiffers)
	}
}

// TestScanWithoutFingerprintLeavesSweepNil pins the default: no re-dials,
// no census column.
func TestScanWithoutFingerprintLeavesSweepNil(t *testing.T) {
	pop := population.Generate(population.EpochJul2016, 0.002, 17)
	sum, sites := scanCollect(t, pop, population.ScanOptions{SampleSize: 2, Parallelism: 2, Seed: 3})
	for _, res := range sites {
		if res.Fingerprint != nil {
			t.Errorf("%s: unexpected fingerprint sweep without the option", res.Spec.Domain)
		}
	}
	if sum.FingerprintSites != 0 || sum.FingerprintEcho != 0 || sum.FingerprintDiffers != 0 {
		t.Errorf("fingerprint aggregates populated without the option: %d/%d/%d",
			sum.FingerprintSites, sum.FingerprintEcho, sum.FingerprintDiffers)
	}
}

// TestPriorityModesOnlyWhereAlgorithm1CanRun is the generator's side of the
// seed-23 fix: over census seeds 1-50 and both epochs no site that allows
// fewer than Algorithm 1's six concurrent streams is dealt a priority mode,
// and the number of sites per mode is what the scaled Section V-E counts say.
func TestPriorityModesOnlyWhereAlgorithm1CanRun(t *testing.T) {
	const scale = 0.01
	for _, epoch := range []population.Epoch{population.EpochJul2016, population.EpochJan2017} {
		want := population.Generate(epoch, scale, 1).Tally()
		for seed := int64(1); seed <= 50; seed++ {
			pop := population.Generate(epoch, scale, seed)
			for _, s := range pop.Sites {
				if !s.OmitSettings && s.MaxConcurrent < 6 && s.Scheduling != server.SchedRoundRobin {
					t.Errorf("%v seed %d: %s allows %d streams and schedules %v", epoch, seed, s.Domain, s.MaxConcurrent, s.Scheduling)
				}
			}
			got := pop.Tally()
			if got.PriorityLast != want.PriorityLast || got.PriorityFirst != want.PriorityFirst || got.PriorityBoth != want.PriorityBoth {
				t.Errorf("%v seed %d: priority last/first/both = %d/%d/%d, seed 1 has %d/%d/%d", epoch, seed,
					got.PriorityLast, got.PriorityFirst, got.PriorityBoth, want.PriorityLast, want.PriorityFirst, want.PriorityBoth)
			}
		}
	}
}

// scanSites scans the given sites as a population of their own.
func scanSites(t *testing.T, sites []population.SiteSpec) (*population.ScanSummary, []scannedSite) {
	t.Helper()
	pop := &population.Population{Epoch: population.EpochJan2017, Scale: 1, Sites: sites}
	sum, scanned := scanCollect(t, pop, population.ScanOptions{Parallelism: 4, Seed: 1})
	if sum.Stats.Succeeded != int64(len(sites)) {
		t.Fatalf("scan stats: %s, want %d sites succeeded", sum.Stats, len(sites))
	}
	return sum, scanned
}

// TestSitesRefusingSixStreamsScanClean scans the sites that had probe_scan
// read `correct:false` on seed 23 (site-000182, priority-last-rule) and would
// have on seeds 36, 39, 44 and 49: the ones advertising
// SETTINGS_MAX_CONCURRENT_STREAMS = 1. Neither ordering probe can be run
// against them, so their reports carry no multiplexing or priority verdict,
// and everything else agrees with the ground truth.
func TestSitesRefusingSixStreamsScanClean(t *testing.T) {
	var sites []population.SiteSpec
	for _, seed := range []int64{23, 36, 39, 44, 49} {
		for _, s := range population.Generate(population.EpochJan2017, 0.01, seed).Sites {
			if !s.OmitSettings && s.MaxConcurrent < 6 {
				sites = append(sites, s)
			}
		}
	}
	if len(sites) < 5 {
		t.Fatalf("%d sites with a limit below six over the five seeds, want at least one each", len(sites))
	}
	sum, scanned := scanSites(t, sites)
	if agr := population.ComputeAgreement(sum); !agr.Perfect() || agr.Sites != len(sites) {
		t.Errorf("agreement over %d sites:\n%s", len(sites), agr)
	}
	for _, res := range scanned {
		if res.Report.Multiplex != nil || res.Report.Priority != nil {
			t.Errorf("%s (limit %d): multiplexing %+v, priority %+v, want no verdict",
				res.Spec.Domain, res.Spec.MaxConcurrent, res.Report.Multiplex, res.Report.Priority)
		}
	}
}

// TestPriorityNotMeasurableBelowSixStreams is the probe's side: a hand-built
// site that obeys priorities but allows one stream at a time. Five of
// Algorithm 1's six requests are refused there; the probe must say so rather
// than report a server that fails priority, the site still counts as scanned,
// and neither the agreement nor the tally reads a verdict that was never
// measured.
func TestPriorityNotMeasurableBelowSixStreams(t *testing.T) {
	site := population.Generate(population.EpochJan2017, 0.001, 1).Sites[0]
	site.OmitSettings, site.MaxConcurrent, site.Scheduling = false, 1, server.SchedPriority
	sum, scanned := scanSites(t, []population.SiteSpec{site})
	r := scanned[0].Report
	if r.Multiplex != nil || r.Priority != nil {
		t.Errorf("multiplexing %+v, priority %+v, want no verdict", r.Multiplex, r.Priority)
	}
	notMeasurable := 0
	for _, e := range r.Errors {
		if strings.Contains(e, "not measurable") {
			notMeasurable++
		}
	}
	if notMeasurable != 2 || len(r.Errors) != 2 {
		t.Errorf("report errors = %q, want the multiplexing and the priority probe not measurable", r.Errors)
	}
	if agr := population.ComputeAgreement(sum); !agr.Perfect() {
		t.Errorf("agreement:\n%s", agr)
	} else if _, ok := agr.Dimensions["priority-last-rule"]; ok {
		t.Error("agreement scored a priority verdict that was not measured")
	}
	if sum.PriorityLast != 0 || sum.PriorityFirst != 0 || sum.PriorityBoth != 0 {
		t.Errorf("tally counts priority %d/%d/%d for a site that was not measured", sum.PriorityLast, sum.PriorityFirst, sum.PriorityBoth)
	}
}

// TestScanKeepsNothingPerSite: a summary is counts, so what a finished scan
// holds does not follow the sample. Scanning 50 and then 400 sites of one
// population, the heap still reachable with the summary alive may differ by
// 64 KiB — the count maps gain a key per distinct RTT microsecond and HPACK
// hundredth — where a summary that kept every site's report differed by
// 228 KB (2,059 and 827 bytes a site; DESIGN §8.9).
func TestScanKeepsNothingPerSite(t *testing.T) {
	pop := population.Generate(population.EpochJan2017, 0.01, 3)
	retained := func(sample int) int64 {
		heap := func() int64 {
			runtime.GC()
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return int64(ms.HeapAlloc)
		}
		before := heap()
		sum, err := population.Scan(pop, population.ScanOptions{SampleSize: sample, Parallelism: 16, Seed: 3})
		if err != nil {
			t.Fatalf("Scan: %v", err)
		}
		after := heap()
		if sum.Scanned != sample || sum.Stats.Succeeded != int64(sample) {
			t.Fatalf("scanned %d of %d sites: %s", sum.Scanned, sample, sum.Stats)
		}
		runtime.KeepAlive(sum)
		return after - before
	}
	retained(8) // one-time allocations (pools, tables) land outside the comparison
	small, large := retained(50), retained(400)
	runtime.KeepAlive(pop) // or the last reading is short of the population itself
	t.Logf("retained after 50 sites: %d B, after 400: %d B", small, large)
	if diff := large - small; diff > 64<<10 {
		t.Errorf("a 400-site scan retains %d B more than a 50-site one, want under 64 KiB", diff)
	}
}

// TestTraceIsOnDiskBeforeItsRecord: under TraceDir a site's record names its
// trace file, and by the time the sink sees the record the file is there — a
// census killed right after writing the record has not written a dangling name.
func TestTraceIsOnDiskBeforeItsRecord(t *testing.T) {
	pop := population.Generate(population.EpochJan2017, 0.002, 5)
	dir := filepath.Join(t.TempDir(), "traces")
	seen := 0
	sum, err := population.Scan(pop, population.ScanOptions{SampleSize: 3, Parallelism: 3, Seed: 5, TraceDir: dir,
		Sink: func(rec *store.Record) {
			seen++
			if filepath.Dir(rec.TraceFile) != dir {
				t.Errorf("%s: trace file %q, want one under %s", rec.Domain, rec.TraceFile, dir)
			} else if fi, err := os.Stat(rec.TraceFile); err != nil || fi.Size() == 0 {
				t.Errorf("%s: record delivered ahead of its trace: %v", rec.Domain, err)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 3 || sum.Stats.TraceEvents == 0 {
		t.Errorf("sink saw %d records, stats count %d trace events, want 3 and some", seen, sum.Stats.TraceEvents)
	}
}
