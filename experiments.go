// Package h2scope is a from-scratch reproduction of "Are HTTP/2 Servers
// Ready Yet?" (Jiang, Luo, Miu, Hu, Rao — ICDCS 2017): the H2Scope probing
// tool (internal/core), a complete HTTP/2 server with per-implementation
// behavior profiles standing in for the paper's six-server testbed
// (internal/server), and a synthetic Alexa top-1M population reproducing
// both of the paper's measurement campaigns (internal/population).
//
// The root package is the paper's evaluation (Section V): one runner per
// table and figure. Each returns structured results plus a String
// rendering, and is what the cmd/ tools, the root benchmarks and
// bench/h2bench invoke. Every other type, constant and constructor is named
// by the internal package that declares it.
package h2scope

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"strings"
	"time"

	"h2scope/internal/core"
	"h2scope/internal/netsim"
	"h2scope/internal/pageload"
	"h2scope/internal/population"
	"h2scope/internal/rtt"
	"h2scope/internal/scan"
	"h2scope/internal/server"
	"h2scope/internal/stats"
	"h2scope/internal/store"
)

// --- Table III: the six-server testbed ---

// TestbedResult is the re-measured Table III.
type TestbedResult struct {
	// Families are the column labels in the paper's order.
	Families []string
	// Checks are the row labels (TableIIIRowNames).
	Checks []string
	// Cells is indexed [check][family].
	Cells [][]string
	// Reports holds the raw per-server batteries.
	Reports []*core.Report
}

// RunTestbed characterizes the six emulated servers with the full probe
// battery, reproducing Table III.
func RunTestbed() (*TestbedResult, error) {
	profiles := server.TestbedProfiles()
	res := &TestbedResult{
		Checks:  core.TableIIIRowNames,
		Reports: make([]*core.Report, len(profiles)),
	}
	targets := make([]scan.Target, len(profiles))
	for i, p := range profiles {
		res.Families = append(res.Families, p.Family)
		targets[i] = scan.Target{Key: p.Family, Meta: i}
	}
	var failed error
	_, err := scan.Run(context.Background(), targets,
		func(ctx context.Context, t scan.Target) (any, error) {
			return probeProfile(ctx, profiles[t.Meta.(int)])
		},
		scan.Options{
			Parallelism: len(profiles),
			Timeout:     time.Minute,
			Retries:     1,
			OnRecord: func(rec scan.Record) {
				if rec.Outcome != scan.OutcomeSuccess {
					failed = fmt.Errorf("h2scope: testbed %s: %s failure after %d attempt(s): %s",
						rec.Target.Key, rec.Kind, rec.Attempts, rec.Err)
					return
				}
				res.Reports[rec.Target.Meta.(int)] = rec.Value.(*core.Report)
			},
		})
	if err == nil {
		err = failed
	}
	if err != nil {
		return nil, err
	}
	res.Cells = make([][]string, len(res.Checks))
	for r := range res.Checks {
		res.Cells[r] = make([]string, len(profiles))
	}
	for c, report := range res.Reports {
		col := report.TableIIIRow()
		for r := range res.Checks {
			res.Cells[r][c] = col[r]
		}
	}
	return res, nil
}

// probeProfile runs the battery against one profile served in-process. The
// testbed knows the profile's negotiation support directly, standing in for
// the TLS ALPN/NPN handshakes of Section IV-A.
func probeProfile(ctx context.Context, p server.Profile) (*core.Report, error) {
	srv := server.New(p, server.DefaultSite("testbed.example"))
	l := netsim.NewListener(p.Family)
	go func() {
		_ = srv.Serve(l)
	}()
	defer srv.Close()
	cfg := core.DefaultConfig("testbed.example")
	cfg.QuietWindow = 20 * time.Millisecond
	return core.NewProber(&testbedDialer{l: l, p: p}, cfg).RunContext(ctx)
}

type testbedDialer struct {
	l *netsim.Listener
	p server.Profile
}

var (
	_ core.Dialer     = (*testbedDialer)(nil)
	_ core.Negotiator = (*testbedDialer)(nil)
)

// Dial implements core.Dialer.
func (d *testbedDialer) Dial() (net.Conn, error) { return d.l.Dial() }

// NegotiateALPN implements core.Negotiator from the profile's metadata.
func (d *testbedDialer) NegotiateALPN([]string) (string, error) {
	if !d.p.SupportsALPN {
		return "", fmt.Errorf("h2scope: %s does not negotiate ALPN", d.p.Family)
	}
	return "h2", nil
}

// NegotiateNPN implements core.Negotiator from the profile's metadata.
func (d *testbedDialer) NegotiateNPN() ([]string, error) {
	if !d.p.SupportsNPN {
		return nil, fmt.Errorf("h2scope: %s does not negotiate NPN", d.p.Family)
	}
	return []string{"h2", "http/1.1"}, nil
}

// String renders the matrix the way the paper's Table III does.
func (r *TestbedResult) String() string {
	headers := append([]string{"Check"}, r.Families...)
	rows := make([][]string, 0, len(r.Checks))
	for i, check := range r.Checks {
		rows = append(rows, append([]string{check}, r.Cells[i]...))
	}
	return stats.FormatTable(headers, rows)
}

// --- The census: Tables IV-VII, Figs. 2/4/5, Sections V-B/D/E/F ---

// Census renders one census tally as the paper's Section V tables. The
// generator's ground truth (NewCensus), a measured scan (&sum.Tally) and a
// re-read of stored records all print through it, in the same shape.
type Census struct {
	// Pop is the synthesized universe of a ground-truth census; nil for a
	// census of measurements.
	Pop *population.Population
	// Tally holds the buckets every table is rendered from.
	Tally *store.Tally
	// Label heads the count column (the epoch).
	Label string
}

// NewCensus generates the population of an epoch and wraps its ground truth.
func NewCensus(epoch population.Epoch, scale float64, seed int64) *Census {
	pop := population.Generate(epoch, scale, seed)
	return &Census{Pop: pop, Tally: pop.Tally(), Label: epoch.String()}
}

// Render prints every table of the census under the headings h2census uses,
// in the paper's order, and closes with the Coverage block when the tally
// has one. minServerSites is Table IV's row threshold (the paper's 1,000).
func (c *Census) Render(minServerSites int) string {
	var b strings.Builder
	for _, sec := range []struct{ title, body string }{
		{"Adoption (Section V-B)", c.Adoption()},
		{fmt.Sprintf("Table IV: servers used by at least %d sites", minServerSites), c.TableIV(minServerSites)},
		{"Table V: SETTINGS_INITIAL_WINDOW_SIZE", c.TableV()},
		{"Table VI: SETTINGS_MAX_FRAME_SIZE", c.TableVI()},
		{"Table VII: SETTINGS_MAX_HEADER_LIST_SIZE", c.TableVII()},
		{"Figure 2: SETTINGS_MAX_CONCURRENT_STREAMS CDF", c.Figure2Rendered()},
		{"Section V-D: flow control", c.SectionVD()},
		{"Section V-E: priority", c.SectionVE()},
		{"Section V-F: server push", c.SectionVF()},
		{"Figures 4/5: HPACK compression ratio by family (CDF quantiles)", c.Figures4And5Rendered()},
		{"Coverage", c.Tally.Coverage()},
	} {
		if sec.body != "" {
			fmt.Fprintf(&b, "-- %s --\n%s\n", sec.title, sec.body)
		}
	}
	return b.String()
}

// Adoption renders the Section V-B.1 counts.
func (c *Census) Adoption() string {
	t := c.Tally
	return stats.FormatTable(
		[]string{"Metric", c.Label},
		[][]string{
			{"Sites negotiating via NPN", fmt.Sprint(t.NPN)},
			{"Sites negotiating via ALPN", fmt.Sprint(t.ALPN)},
			{"Sites returning HEADERS", fmt.Sprint(t.GotHeaders)},
			{"Distinct server kinds", fmt.Sprint(len(t.ServerNames))},
		})
}

// TableIV renders the server-name distribution for names with at least
// minCount sites (the paper uses 1,000), by descending count.
func (c *Census) TableIV(minCount int) string {
	counts := c.Tally.ServerNames
	names := make([]string, 0, 8)
	for name, n := range counts {
		if n >= minCount {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		if counts[names[i]] != counts[names[j]] {
			return counts[names[i]] > counts[names[j]]
		}
		return names[i] < names[j]
	})
	rows := make([][]string, len(names))
	for i, name := range names {
		rows[i] = []string{name, fmt.Sprint(counts[name])}
	}
	return stats.FormatTable([]string{"Server name", "Num. of sites"}, rows)
}

// TableV renders the SETTINGS_INITIAL_WINDOW_SIZE distribution.
func (c *Census) TableV() string {
	return renderDist("SETTINGS_INITIAL_WINDOW_SIZE", c.Tally.InitialWindow)
}

// TableVI renders the SETTINGS_MAX_FRAME_SIZE distribution.
func (c *Census) TableVI() string {
	return renderDist("Maximum Frame Size", c.Tally.MaxFrame)
}

// TableVII renders the SETTINGS_MAX_HEADER_LIST_SIZE distribution.
func (c *Census) TableVII() string {
	return renderDist("Maximum Header List Size", c.Tally.MaxHeaderList)
}

// renderDist renders one settings table: NULL first, then unlimited, then
// the advertised values ascending.
func renderDist(title string, dist map[string]int) string {
	rank := func(label string) uint64 {
		switch label {
		case store.LabelNull:
			return 0
		case store.LabelUnlimited:
			return 1
		}
		v, _ := strconv.ParseUint(label, 10, 32)
		return v + 2
	}
	rows := make([][]string, 0, len(dist))
	for label, n := range dist {
		rows = append(rows, []string{label, fmt.Sprint(n)})
	}
	sort.Slice(rows, func(i, j int) bool { return rank(rows[i][0]) < rank(rows[j][0]) })
	return stats.FormatTable([]string{title, "Sites"}, rows)
}

// Figure2 returns the SETTINGS_MAX_CONCURRENT_STREAMS CDF.
func (c *Census) Figure2() *stats.CDF {
	return stats.NewCDFCounts(c.Tally.MaxConcurrent)
}

// Figure2Rendered renders the Fig. 2 CDF as quantile rows.
func (c *Census) Figure2Rendered() string {
	return stats.AsciiCDF(
		[]string{"max concurrent streams"},
		[]*stats.CDF{c.Figure2()},
		[]float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99},
		"%.0f")
}

// SectionVD renders the flow-control measurement counts.
func (c *Census) SectionVD() string {
	t := c.Tally
	return stats.FormatTable(
		[]string{"Flow-control measurement", "Sites"},
		[][]string{
			{"1-byte window: 1-byte DATA frames", fmt.Sprint(t.TinyWindow[core.TinyWindowOneByte])},
			{"1-byte window: zero-length DATA frames", fmt.Sprint(t.TinyWindow[core.TinyWindowZeroLen])},
			{"1-byte window: no response", fmt.Sprint(t.TinyWindow[core.TinyWindowNothing])},
			{"zero window: HEADERS still returned", fmt.Sprint(t.ZeroWindowHeadersOK)},
			{"zero WINDOW_UPDATE (stream): RST_STREAM", fmt.Sprint(t.ZeroWUStream[core.ObserveRSTStream])},
			{"zero WINDOW_UPDATE (stream): GOAWAY", fmt.Sprint(t.ZeroWUStream[core.ObserveGoAway])},
			{"zero WINDOW_UPDATE (stream): ignored", fmt.Sprint(t.ZeroWUStream[core.ObserveIgnore])},
			{"zero WINDOW_UPDATE (conn): GOAWAY", fmt.Sprint(t.ZeroWUConn[core.ObserveGoAway])},
			{"zero WINDOW_UPDATE (conn): GOAWAY with debug data", fmt.Sprint(t.ZeroWUConnDebug)},
			{"large WINDOW_UPDATE (stream): RST_STREAM", fmt.Sprint(t.LargeWUStream[core.ObserveRSTStream])},
			{"large WINDOW_UPDATE (stream): no RST_STREAM", fmt.Sprint(t.LargeWUStream[core.ObserveIgnore])},
			{"large WINDOW_UPDATE (conn): GOAWAY", fmt.Sprint(t.LargeWUConn[core.ObserveGoAway])},
		})
}

// SectionVE renders the priority measurement counts.
func (c *Census) SectionVE() string {
	t := c.Tally
	return stats.FormatTable(
		[]string{"Priority measurement", "Sites"},
		[][]string{
			{"last-DATA order obeys dependency tree", fmt.Sprint(t.PriorityLast)},
			{"first-DATA order obeys dependency tree", fmt.Sprint(t.PriorityFirst)},
			{"both orders obey dependency tree", fmt.Sprint(t.PriorityBoth)},
			{"self-dependency: RST_STREAM", fmt.Sprint(t.SelfDep[core.ObserveRSTStream])},
			{"self-dependency: GOAWAY", fmt.Sprint(t.SelfDep[core.ObserveGoAway])},
			{"self-dependency: ignored", fmt.Sprint(t.SelfDep[core.ObserveIgnore])},
		})
}

// SectionVF renders the push-capable sites.
func (c *Census) SectionVF() string {
	sites := append([]string(nil), c.Tally.PushDomains...)
	sort.Strings(sites)
	var b strings.Builder
	fmt.Fprintf(&b, "Sites sending PUSH_PROMISE: %d\n", len(sites))
	for _, d := range sites {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

// fig45Families are the five families plotted in Figs. 4 and 5; records
// stored without a family plot as one store.AllFamilies series.
var fig45Families = []string{"GSE", "nginx", "tengine", "litespeed", "ideaweb", store.AllFamilies}

// Figures4And5Rendered renders the per-family HPACK compression-ratio CDFs.
func (c *Census) Figures4And5Rendered() string {
	names := make([]string, 0, len(fig45Families))
	series := make([]*stats.CDF, 0, len(fig45Families))
	for _, f := range fig45Families {
		if ratios, ok := c.Tally.HPACKRatios[f]; ok {
			names = append(names, f)
			series = append(series, stats.NewCDFCounts(ratios))
		}
	}
	return stats.AsciiCDF(names, series,
		[]float64{0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95}, "%.2f")
}

// --- Figure 3: server push page-load time ---

// PushPLTSeries is one site's Fig. 3 group.
type PushPLTSeries struct {
	Domain  string
	MeanOn  time.Duration
	MeanOff time.Duration
}

// PushPLTResult is the Fig. 3 data set.
type PushPLTResult struct {
	Series []PushPLTSeries
	Visits int
}

// String renders the per-site PLT comparison.
func (r *PushPLTResult) String() string {
	rows := make([][]string, 0, len(r.Series))
	for _, s := range r.Series {
		saving := "-"
		if s.MeanOff > 0 {
			saving = fmt.Sprintf("%.0f%%", 100*(1-float64(s.MeanOn)/float64(s.MeanOff)))
		}
		rows = append(rows, []string{
			s.Domain,
			fmt.Sprintf("%.1fms", float64(s.MeanOn)/float64(time.Millisecond)),
			fmt.Sprintf("%.1fms", float64(s.MeanOff)/float64(time.Millisecond)),
			saving,
		})
	}
	return stats.FormatTable([]string{"Site", "PLT push on", "PLT push off", "Saving"}, rows)
}

// RunPushPageLoad reproduces Fig. 3: the epoch's push-capable sites are
// visited `visits` times with push enabled and disabled, over each site's
// latency-shaped path. timeScale shrinks real sleeping (measurements are
// reported unscaled).
func RunPushPageLoad(epoch population.Epoch, visits int, timeScale float64, seed int64) (*PushPLTResult, error) {
	if timeScale <= 0 {
		timeScale = 1
	}
	pop := population.Generate(epoch, 1.0, seed)
	res := &PushPLTResult{Visits: visits}
	resources := []string{"/static/style.css", "/static/app.js", "/static/logo.png", "/static/hero.jpg"}
	for i := range pop.Sites {
		spec := &pop.Sites[i]
		if !spec.Push {
			continue
		}
		domain := spec.Domain
		srv := spec.NewServer()
		l := netsim.NewListener(domain)
		go func() {
			_ = srv.Serve(l)
		}()
		owd := time.Duration(float64(spec.BaseRTT) * timeScale / 2)
		dial := func() (net.Conn, error) { return l.DialLatency(owd, owd) }
		series, err := pageload.Measure(dial, domain, "/", resources, visits, 30*time.Second)
		srv.Close()
		if err != nil {
			return nil, fmt.Errorf("h2scope: push PLT for %s: %w", domain, err)
		}
		res.Series = append(res.Series, PushPLTSeries{
			Domain:  domain,
			MeanOn:  unscale(series.MeanOn(), timeScale),
			MeanOff: unscale(series.MeanOff(), timeScale),
		})
	}
	sort.Slice(res.Series, func(i, j int) bool { return res.Series[i].Domain < res.Series[j].Domain })
	return res, nil
}

func unscale(d time.Duration, timeScale float64) time.Duration {
	return time.Duration(float64(d) / timeScale)
}

// --- Figure 6: RTT comparison ---

// RunRTTComparison reproduces Fig. 6: `perFamily` sites are drawn from each
// of the population's top server families (the paper randomly selects 10
// per popular server) and measured with all four estimators.
func RunRTTComparison(epoch population.Epoch, perFamily, samples int, timeScale float64, seed int64) (*rtt.Comparison, error) {
	pop := population.Generate(epoch, 0.05, seed)
	rng := rand.New(rand.NewSource(seed))
	families := []string{"nginx", "litespeed", "GSE", "tengine", "ideaweb"}
	byFamily := make(map[string][]*population.SiteSpec)
	for i := range pop.Sites {
		s := &pop.Sites[i]
		byFamily[s.Family] = append(byFamily[s.Family], s)
	}
	var targets []rtt.Target
	for _, f := range families {
		specs := byFamily[f]
		rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
		n := perFamily
		if n > len(specs) {
			n = len(specs)
		}
		for _, s := range specs[:n] {
			targets = append(targets, rtt.Target{
				Domain:            s.Domain,
				BaseRTT:           s.BaseRTT,
				Jitter:            s.BaseRTT / 20,
				H1ProcessingDelay: time.Duration(5+rng.Intn(35)) * time.Millisecond,
				Profile:           s.Profile(),
				Seed:              int64(s.Rank),
			})
		}
	}
	return rtt.Compare(targets, rtt.Options{
		SamplesPerTarget: samples,
		TimeScale:        timeScale,
		Parallelism:      8,
	})
}

// RenderRTTComparison renders Fig. 6 as quantile rows per method.
func RenderRTTComparison(cmp *rtt.Comparison) string {
	byMethod := cmp.ByMethod()
	names := make([]string, 0, 4)
	series := make([]*stats.CDF, 0, 4)
	for _, m := range rtt.Methods() {
		names = append(names, string(m))
		series = append(series, stats.NewCDF(byMethod[m]))
	}
	return stats.AsciiCDF(names, series,
		[]float64{0.1, 0.25, 0.5, 0.75, 0.9}, "%.1fms")
}
