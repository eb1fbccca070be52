package obs

import (
	"encoding/json"
	"html/template"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"h2scope/internal/metrics"
)

// Dashboard is the live run view served from the -debug-addr mux: one
// handler answering both server-rendered HTML (auto-refreshing) and a JSON
// API (path ending in .json or ?format=json). It carves its state out of
// the same registry snapshots /metrics serves, plus the monitor's
// exemplars, so the dashboard can never disagree with the exposition
// endpoint.
type Dashboard struct {
	title   string
	monitor *Monitor
	regs    []*metrics.Registry
	start   time.Time

	// Rate state: targets/sec is computed from successive snapshot deltas,
	// cached so rapid scrapes don't divide by near-zero intervals.
	mu          sync.Mutex
	lastAt      time.Time
	lastTargets int64
	lastRate    float64
}

// NewDashboard builds a dashboard over the given registries. monitor may be
// nil — its sections render empty.
func NewDashboard(title string, monitor *Monitor, regs ...*metrics.Registry) *Dashboard {
	return &Dashboard{
		title:   title,
		monitor: monitor,
		regs:    regs,
		start:   time.Now(),
	}
}

// PhaseStat is one phase's dashboard row.
type PhaseStat struct {
	Phase string `json:"phase"`
	Count int64  `json:"count"`
	P50Ns int64  `json:"p50Ns"`
	P99Ns int64  `json:"p99Ns"`
}

// P50 and P99 render the quantiles for the HTML template.
func (p PhaseStat) P50() string { return fmtDur(time.Duration(p.P50Ns)) }
func (p PhaseStat) P99() string { return fmtDur(time.Duration(p.P99Ns)) }

// ConnStat is the serving side's connection line: connections being served
// now and accepted since start.
type ConnStat struct {
	Active   int64 `json:"active"`
	Accepted int64 `json:"accepted"`
}

// EgressStat summarizes the priority-aware egress scheduler: the live
// queued-frame depth plus the ready-streams-per-pass histogram.
type EgressStat struct {
	QueueDepth int64 `json:"queueDepth"`
	Passes     int64 `json:"passes"`
	ReadyP50   int64 `json:"readyP50"`
	ReadyP99   int64 `json:"readyP99"`
}

// DashState is the dashboard's JSON payload — everything the HTML view
// renders, machine-readable.
type DashState struct {
	Title         string           `json:"title"`
	GeneratedAt   time.Time        `json:"generatedAt"`
	UptimeSec     float64          `json:"uptimeSec"`
	Targets       int64            `json:"targets"`
	TargetsPerSec float64          `json:"targetsPerSec"`
	Outcomes      map[string]int64 `json:"outcomes,omitempty"`
	FailureKinds  map[string]int64 `json:"failureKinds,omitempty"`
	Phases        []PhaseStat      `json:"phases,omitempty"`
	RingEmitted   int64            `json:"ringEmitted"`
	EventsMissed  int64            `json:"eventsMissed"`
	Conns         *ConnStat        `json:"conns,omitempty"`
	Egress        *EgressStat      `json:"egress,omitempty"`
	Exemplars     []Exemplar       `json:"exemplars,omitempty"`
}

// labelValue extracts one label's value from a registered metric name:
// labelValue(`h2_scan_outcomes_total{outcome="ok"}`, "h2_scan_outcomes_total",
// "outcome") returns ("ok", true).
func labelValue(name, base, key string) (string, bool) {
	if !strings.HasPrefix(name, base+"{") || !strings.HasSuffix(name, "}") {
		return "", false
	}
	body := name[len(base)+1 : len(name)-1]
	for body != "" {
		eq := strings.IndexByte(body, '=')
		if eq < 0 {
			return "", false
		}
		k := body[:eq]
		rest := body[eq+1:]
		quoted, err := strconv.QuotedPrefix(rest)
		if err != nil {
			return "", false
		}
		v, err := strconv.Unquote(quoted)
		if err != nil {
			return "", false
		}
		if k == key {
			return v, true
		}
		body = strings.TrimPrefix(rest[len(quoted):], ",")
	}
	return "", false
}

// state carves the current DashState out of the registries.
func (d *Dashboard) state() *DashState {
	now := time.Now()
	st := &DashState{
		Title:        d.title,
		GeneratedAt:  now,
		UptimeSec:    now.Sub(d.start).Seconds(),
		Outcomes:     map[string]int64{},
		FailureKinds: map[string]int64{},
	}
	var snap []metrics.MetricSnapshot
	for _, r := range d.regs {
		snap = append(snap, r.Snapshot()...)
	}
	for _, m := range snap {
		switch {
		case m.Name == "h2_scan_targets_total":
			st.Targets += m.Value
		case m.Name == "h2_trace_events_total":
			st.RingEmitted += m.Value
		case m.Name == "h2_obs_events_missed_total":
			st.EventsMissed += m.Value
		case m.Name == "h2_server_active_conns":
			if st.Conns == nil {
				st.Conns = &ConnStat{}
			}
			st.Conns.Active += m.Value
		case m.Name == "h2_server_conns_accepted_total":
			if st.Conns == nil {
				st.Conns = &ConnStat{}
			}
			st.Conns.Accepted += m.Value
		case m.Name == "h2_egress_queue_depth":
			if st.Egress == nil {
				st.Egress = &EgressStat{}
			}
			st.Egress.QueueDepth += m.Value
		case m.Name == "h2_egress_ready_streams" && m.Histogram != nil:
			if st.Egress == nil {
				st.Egress = &EgressStat{}
			}
			st.Egress.Passes += m.Histogram.Count
			if m.Histogram.Count > 0 {
				st.Egress.ReadyP50 = m.Histogram.QuantileClamped(0.50)
				st.Egress.ReadyP99 = m.Histogram.QuantileClamped(0.99)
			}
		default:
			if v, ok := labelValue(m.Name, "h2_scan_outcomes_total", "outcome"); ok {
				st.Outcomes[v] += m.Value
			} else if v, ok := labelValue(m.Name, "h2_scan_failures_total", "kind"); ok {
				st.FailureKinds[v] += m.Value
			} else if v, ok := labelValue(m.Name, PhaseMetricName, "phase"); ok && m.Histogram != nil {
				ps := PhaseStat{Phase: v, Count: m.Histogram.Count}
				if ps.Count > 0 {
					ps.P50Ns = m.Histogram.QuantileClamped(0.50)
					ps.P99Ns = m.Histogram.QuantileClamped(0.99)
				}
				st.Phases = append(st.Phases, ps)
			}
		}
	}
	// Causal order beats alphabetical for the phase table.
	orderOf := map[string]int{}
	for i, p := range Phases() {
		orderOf[p] = i
	}
	sort.Slice(st.Phases, func(i, j int) bool {
		oi, iok := orderOf[st.Phases[i].Phase]
		oj, jok := orderOf[st.Phases[j].Phase]
		if iok && jok {
			return oi < oj
		}
		if iok != jok {
			return iok
		}
		return st.Phases[i].Phase < st.Phases[j].Phase
	})

	if d.monitor != nil {
		st.Exemplars = d.monitor.Exemplars()
		if st.Targets == 0 {
			st.Targets = d.monitor.Targets()
		}
	}

	// Targets/sec over the window since the previous scrape (rate cached
	// across scrapes closer than 250ms).
	d.mu.Lock()
	if d.lastAt.IsZero() {
		d.lastAt, d.lastTargets = d.start, 0
	}
	if dt := now.Sub(d.lastAt); dt >= 250*time.Millisecond {
		d.lastRate = float64(st.Targets-d.lastTargets) / dt.Seconds()
		d.lastAt, d.lastTargets = now, st.Targets
	}
	st.TargetsPerSec = d.lastRate
	d.mu.Unlock()
	return st
}

// ServeHTTP implements http.Handler: JSON for .json paths (or
// ?format=json), server-rendered HTML otherwise.
func (d *Dashboard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	st := d.state()
	if strings.HasSuffix(r.URL.Path, ".json") || r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st); err != nil {
			// The scrape client went away mid-response; nothing to do.
			return
		}
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := dashTemplate.Execute(w, st); err != nil {
		// Likewise: a client gone mid-render is not actionable.
		return
	}
}

// tmplHelpers let the template render durations and rates compactly.
var tmplHelpers = template.FuncMap{
	"dur":  func(ns int64) string { return fmtDur(time.Duration(ns)) },
	"rate": func(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) },
	"secs": func(v float64) string { return strconv.FormatFloat(v, 'f', 0, 64) },
}

var dashTemplate = template.Must(template.New("dashboard").Funcs(tmplHelpers).Parse(`<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="2">
<title>{{.Title}} — h2scope dashboard</title>
<style>
body { font-family: ui-monospace, Menlo, monospace; background: #101418; color: #d7dde3; margin: 1.5em; }
h1 { font-size: 1.2em; } h2 { font-size: 1em; margin: 1.2em 0 .3em; color: #8ab4f8; }
table { border-collapse: collapse; } td, th { padding: .15em .8em .15em 0; text-align: left; }
th { color: #9aa5b1; font-weight: normal; border-bottom: 1px solid #2a3138; }
.kpi { display: inline-block; margin-right: 2.5em; } .kpi b { font-size: 1.4em; display: block; }
.muted { color: #9aa5b1; }
</style>
</head>
<body>
<h1>{{.Title}} <span class="muted">· live run dashboard · up {{secs .UptimeSec}}s</span></h1>
<div>
<span class="kpi"><b>{{.Targets}}</b>targets</span>
<span class="kpi"><b>{{rate .TargetsPerSec}}/s</b>rate</span>
<span class="kpi"><b>{{.EventsMissed}}</b>trace events missed</span>
</div>
{{if .Phases}}<h2>phase latency</h2>
<table><tr><th>phase</th><th>count</th><th>p50</th><th>p99</th></tr>
{{range .Phases}}<tr><td>{{.Phase}}</td><td>{{.Count}}</td><td>{{.P50}}</td><td>{{.P99}}</td></tr>
{{end}}</table>{{end}}
{{if .Conns}}<h2>connections</h2>
<table><tr><td>live</td><td>{{.Conns.Active}}</td><td>accepted</td><td>{{.Conns.Accepted}}</td></tr></table>{{end}}
{{if .Egress}}<h2>egress scheduler</h2>
<table>
<tr><td>queued frames</td><td>{{.Egress.QueueDepth}}</td></tr>
<tr><td>scheduling passes</td><td>{{.Egress.Passes}}</td></tr>
<tr><td>ready streams p50</td><td>{{.Egress.ReadyP50}}</td></tr>
<tr><td>ready streams p99</td><td>{{.Egress.ReadyP99}}</td></tr>
</table>{{end}}
{{if .Outcomes}}<h2>outcomes</h2>
<table>{{range $k, $v := .Outcomes}}<tr><td>{{$k}}</td><td>{{$v}}</td></tr>{{end}}</table>{{end}}
{{if .FailureKinds}}<h2>error classes</h2>
<table>{{range $k, $v := .FailureKinds}}<tr><td>{{$k}}</td><td>{{$v}}</td></tr>{{end}}</table>{{end}}
<h2>trace bus</h2>
<table>
<tr><td>ring emitted</td><td>{{.RingEmitted}}</td></tr>
</table>
{{if .Exemplars}}<h2>slow-sample exemplars</h2>
<table><tr><th>phase</th><th>target</th><th>conn</th><th>duration</th><th>trace</th></tr>
{{range .Exemplars}}<tr><td>{{.Phase}}</td><td>{{.Target}}</td><td>{{.Conn}}</td><td>{{dur .Duration.Nanoseconds}}</td><td>{{.TraceFile}}</td></tr>
{{end}}</table>{{end}}
<p class="muted">auto-refreshes every 2s · JSON at <a href="/dashboard.json" style="color:#8ab4f8">/dashboard.json</a> · metrics at <a href="/metrics" style="color:#8ab4f8">/metrics</a></p>
</body>
</html>
`))
