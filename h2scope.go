// Package h2scope is a from-scratch reproduction of "Are HTTP/2 Servers
// Ready Yet?" (Jiang, Luo, Miu, Hu, Rao — ICDCS 2017): the H2Scope probing
// tool, a complete HTTP/2 server with per-implementation behavior profiles
// standing in for the paper's six-server testbed, and a synthetic Alexa
// top-1M population reproducing both of the paper's measurement campaigns.
//
// The package is a facade: it re-exports the stable surface of the internal
// packages and provides one runner per table and figure of the paper's
// evaluation (see experiments.go). Typical uses:
//
//	// Probe any HTTP/2 endpoint with the full Section III battery.
//	report, err := h2scope.Probe(dialer, h2scope.DefaultProbeConfig("example.org"))
//
//	// Re-measure the paper's Table III against the six emulated servers.
//	res, err := h2scope.RunTestbed()
//	fmt.Println(res)
//
//	// Synthesize the Jan 2017 Alexa population and print Table V.
//	census := h2scope.NewCensus(h2scope.EpochJan2017, 1.0, 42)
//	fmt.Println(census.TableV())
package h2scope

import (
	"io"
	"net"
	"time"

	"h2scope/internal/core"
	"h2scope/internal/fingerprint"
	"h2scope/internal/h2conn"
	"h2scope/internal/metrics"
	"h2scope/internal/obs"
	"h2scope/internal/population"
	"h2scope/internal/scan"
	"h2scope/internal/server"
	"h2scope/internal/store"
)

// Re-exported core types. Aliases keep the internal packages as the single
// implementation while giving downstream users one import.
type (
	// Profile enumerates every externally visible server behavior the
	// paper measures (Table III columns and the population's long tail).
	Profile = server.Profile
	// Site is a virtual web site: a domain plus its document tree.
	Site = server.Site
	// Resource is one servable web object.
	Resource = server.Resource
	// Server is an HTTP/2 origin server driven by a Profile.
	Server = server.Server
	// Reaction is how a server answers a protocol violation.
	Reaction = server.Reaction
	// SchedulingMode selects how a server orders DATA across streams.
	SchedulingMode = server.SchedulingMode

	// Report is a full H2Scope probe battery result (a Table III column).
	Report = core.Report
	// ProbeConfig parameterizes a probe battery.
	ProbeConfig = core.Config
	// Observation classifies a server's reaction to a probe.
	Observation = core.Observation
	// Dialer opens transport connections to a probe target.
	Dialer = core.Dialer
	// DialerFunc adapts a function to Dialer.
	DialerFunc = core.DialerFunc

	// Epoch selects one of the paper's two measurement campaigns.
	Epoch = population.Epoch
	// Population is a synthesized Alexa top-1M universe.
	Population = population.Population
	// SiteSpec is one synthesized site.
	SiteSpec = population.SiteSpec
	// ScanSummary is a measured scan: its CensusTally, the engine's
	// counters and the raw per-site results.
	ScanSummary = population.ScanSummary
	// CensusTally is the one census aggregate — the Section V buckets —
	// that the generator's ground truth (Population.Tally), a live scan
	// (ScanSummary embeds it) and a re-read of stored records
	// (CensusTally.Add per ScanRecord) all fill, and Census renders.
	CensusTally = store.Tally

	// ScanStats is the scan engine's counter snapshot (attempted,
	// succeeded, failed-by-kind, retries, latency histogram summary).
	ScanStats = scan.Stats
	// ScanErrorKind classifies a probe failure (dial, TLS, protocol,
	// timeout, canceled); only transient kinds are retried.
	ScanErrorKind = scan.ErrorKind
	// ScanOutcome is a target's final disposition (ok/failed/canceled).
	ScanOutcome = scan.Outcome
	// ScanEngineRecord is the engine's typed per-target result.
	ScanEngineRecord = scan.Record

	// ClientConn is the raw-frame HTTP/2 client connection probes run on.
	ClientConn = h2conn.Conn
	// ClientOptions configures a ClientConn.
	ClientOptions = h2conn.Options
	// Request describes one HTTP/2 request.
	Request = h2conn.Request
	// Response aggregates one stream's response events.
	Response = h2conn.Response

	// ClientProfile describes a real client's wire fingerprint, used for
	// impersonation (ClientOptions.Impersonate) and as the expected value
	// a fingerprinting server should read back.
	ClientProfile = fingerprint.ClientProfile
	// FingerprintEcho is the /fp endpoint's response document.
	FingerprintEcho = fingerprint.Echo
	// FingerprintCensus is the impersonation-sweep verdict for one site.
	FingerprintCensus = fingerprint.CensusResult
)

// ClientProfiles returns the builtin impersonation catalog (curl, chrome,
// firefox, go).
func ClientProfiles() []*ClientProfile { return fingerprint.BuiltinProfiles() }

// ClientProfileByName resolves an impersonation profile case-insensitively.
func ClientProfileByName(name string) (*ClientProfile, error) {
	return fingerprint.ProfileByName(name)
}

// Re-exported enumerations.
const (
	EpochJul2016 = population.EpochJul2016
	EpochJan2017 = population.EpochJan2017

	ReactIgnore    = server.ReactIgnore
	ReactRSTStream = server.ReactRSTStream
	ReactGoAway    = server.ReactGoAway

	SchedRoundRobin        = server.SchedRoundRobin
	SchedPriority          = server.SchedPriority
	SchedPriorityLastOnly  = server.SchedPriorityLastOnly
	SchedPriorityFirstOnly = server.SchedPriorityFirstOnly

	ObserveIgnore     = core.ObserveIgnore
	ObserveRSTStream  = core.ObserveRSTStream
	ObserveGoAway     = core.ObserveGoAway
	ObserveNoResponse = core.ObserveNoResponse

	ScanOutcomeSuccess  = scan.OutcomeSuccess
	ScanOutcomeFailed   = scan.OutcomeFailed
	ScanOutcomeCanceled = scan.OutcomeCanceled

	ScanKindDial     = scan.KindDial
	ScanKindTLS      = scan.KindTLS
	ScanKindProtocol = scan.KindProtocol
	ScanKindTimeout  = scan.KindTimeout
	ScanKindCanceled = scan.KindCanceled
)

// NginxProfile reproduces Nginx v1.9.15 as characterized in Table III.
func NginxProfile() Profile { return server.NginxProfile() }

// LiteSpeedProfile reproduces LiteSpeed v5.0.11.
func LiteSpeedProfile() Profile { return server.LiteSpeedProfile() }

// H2OProfile reproduces H2O v1.6.2.
func H2OProfile() Profile { return server.H2OProfile() }

// NghttpdProfile reproduces nghttpd v1.12.0.
func NghttpdProfile() Profile { return server.NghttpdProfile() }

// TengineProfile reproduces Tengine v2.1.2.
func TengineProfile() Profile { return server.TengineProfile() }

// ApacheProfile reproduces Apache httpd v2.4.23 with mod_http2.
func ApacheProfile() Profile { return server.ApacheProfile() }

// TestbedProfiles returns the six profiles in Table III column order.
func TestbedProfiles() []Profile { return server.TestbedProfiles() }

// NewServer returns an HTTP/2 server for site with the given profile.
func NewServer(p Profile, site *Site) *Server { return server.New(p, site) }

// NewSite returns an empty site for domain.
func NewSite(domain string) *Site { return server.NewSite(domain) }

// DefaultSite builds the testbed document tree (front page, subresources,
// large objects for the multiplexing and priority probes).
func DefaultSite(domain string) *Site { return server.DefaultSite(domain) }

// DefaultProbeConfig returns a probe configuration matched to DefaultSite.
func DefaultProbeConfig(authority string) ProbeConfig { return core.DefaultConfig(authority) }

// TableIIIChecks returns the check names of the paper's Table III, in row
// order, matching Report.TableIIIRow.
func TableIIIChecks() []string {
	return append([]string(nil), core.TableIIIRowNames...)
}

// Probe runs the full H2Scope battery (Section III) against a target.
func Probe(d Dialer, cfg ProbeConfig) (*Report, error) {
	return core.NewProber(d, cfg).Run()
}

// NewProber returns a prober exposing the individual Section III probes.
func NewProber(d Dialer, cfg ProbeConfig) *core.Prober {
	return core.NewProber(d, cfg)
}

// DialClient establishes a raw-frame HTTP/2 client connection over nc.
func DialClient(nc net.Conn, opts ClientOptions) (*ClientConn, error) {
	return h2conn.Dial(nc, opts)
}

// DefaultClientOptions returns the options a well-behaved client would use.
func DefaultClientOptions() ClientOptions { return h2conn.DefaultOptions() }

// GeneratePopulation synthesizes one epoch's Alexa top-1M universe at the
// given scale (1.0 reproduces the full working set) and seed.
func GeneratePopulation(epoch Epoch, scale float64, seed int64) *Population {
	return population.Generate(epoch, scale, seed)
}

// ScanPopulation materializes a sample of the population as live servers
// and re-measures it with the probe battery.
func ScanPopulation(pop *Population, opts population.ScanOptions) (*ScanSummary, error) {
	return population.Scan(pop, opts)
}

// ScanOptions configures ScanPopulation.
type ScanOptions = population.ScanOptions

// ScanRecord is one persisted per-site scan result (Section IV-B's
// "store ... into a database" equivalent; JSON-lines on disk).
type ScanRecord = store.Record

// WriteScanRecords persists a measured scan's per-site reports to w as
// JSON lines, including each site's engine outcome (failed probes keep
// their classified error kind and attempt count).
func WriteScanRecords(w io.Writer, epoch Epoch, scannedAt time.Time, sum *ScanSummary) error {
	sw := store.NewWriter(w)
	for i := range sum.Results {
		if err := sw.Append(sum.Results[i].Record(epoch, scannedAt)); err != nil {
			return err
		}
	}
	return sw.Flush()
}

// AppendScanStats appends a scan-summary trailer record (the engine's final
// ScanStats snapshot, plus an optional metrics-registry snapshot) to a
// JSON-lines record stream. Offline analysis reports trailers separately
// from per-site records.
func AppendScanStats(w io.Writer, epoch Epoch, scannedAt time.Time, stats ScanStats, snaps []MetricSnapshot) error {
	sw := store.NewWriter(w)
	if err := sw.Append(&store.Record{
		Epoch:     epoch.String(),
		ScannedAt: scannedAt,
		Stats:     &stats,
		Metrics:   snaps,
	}); err != nil {
		return err
	}
	return sw.Flush()
}

// Metrics & profiling surface. A MetricsRegistry plugs into
// ScanOptions.Metrics, ProbeConfig.Metrics (via NewConnMetrics), and the
// debug endpoint.
type (
	// MetricsRegistry is a named set of live instruments.
	MetricsRegistry = metrics.Registry
	// MetricSnapshot is one instrument's point-in-time reading, as served
	// by the /metrics.json endpoint and embedded in scan stats trailers.
	MetricSnapshot = metrics.MetricSnapshot
	// DebugServer is a live observability endpoint: Prometheus-text and
	// JSON metrics, expvar, and net/http/pprof.
	DebugServer = metrics.DebugServer
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// Causal-observability surface (internal/obs): phase spans derived from the
// trace bus, the anomaly flight recorder, and the live run dashboard.
type (
	// ObsMonitor folds reconstructed phase spans into per-phase latency
	// histograms with slow-sample exemplars and anomaly detection; plug it
	// into ScanOptions.Observer.
	ObsMonitor = obs.Monitor
	// ObsMonitorConfig configures an ObsMonitor.
	ObsMonitorConfig = obs.MonitorConfig
	// ObsAnomaly is one trigger-worthy observation (p99 blowout, error
	// spike, detector hit).
	ObsAnomaly = obs.Anomaly
	// FlightRecorder turns anomalies into bounded JSONL forensic dumps.
	FlightRecorder = obs.FlightRecorder
	// FlightRecorderConfig configures a FlightRecorder.
	FlightRecorderConfig = obs.FlightRecorderConfig
	// ObsDashboard is the live run dashboard handler (HTML + JSON API).
	ObsDashboard = obs.Dashboard
	// ConnPhases is one connection's reconstructed causal span.
	ConnPhases = obs.ConnPhases
)

// NewObsMonitor builds a span monitor (see ObsMonitorConfig).
func NewObsMonitor(cfg ObsMonitorConfig) *ObsMonitor { return obs.NewMonitor(cfg) }

// NewFlightRecorder builds an anomaly flight recorder writing into
// cfg.Dir.
func NewFlightRecorder(cfg FlightRecorderConfig) (*FlightRecorder, error) {
	return obs.NewFlightRecorder(cfg)
}

// NewObsDashboard builds the live dashboard handler over the given
// registries; mount it on a DebugServer with Handle("/dashboard", d) (and
// "/dashboard.json" for the API).
func NewObsDashboard(title string, m *ObsMonitor, fr *FlightRecorder, regs ...*MetricsRegistry) *ObsDashboard {
	return obs.NewDashboard(title, m, fr, regs...)
}

// BuildConnPhases reconstructs per-connection causal spans from a trace
// event stream (see internal/obs).
var BuildConnPhases = obs.BuildConns

// ObsPhases lists the causal span phases in order (dial ... close).
var ObsPhases = obs.Phases

// StartDebugServer serves /metrics, /metrics.json, /debug/vars, and
// /debug/pprof/* for the given registries on addr (":0" picks a port; see
// DebugServer.Addr). A runtime sampler feeding Go heap/GC/goroutine gauges
// into the first registry runs until Close.
func StartDebugServer(addr string, regs ...*MetricsRegistry) (*DebugServer, error) {
	return metrics.StartDebug(addr, regs...)
}

// RenderMetricsTable formats a registry snapshot as an aligned
// human-readable table.
func RenderMetricsTable(snaps []MetricSnapshot) string { return metrics.RenderTable(snaps) }

// ConnMetrics is the pre-built client-connection instrument set; attach it
// through ProbeConfig.Metrics or ClientOptions.Metrics.
type ConnMetrics = h2conn.Metrics

// NewConnMetrics registers the client-connection instrument set
// (h2_conn_*, h2_frames_*) in r.
func NewConnMetrics(r *MetricsRegistry) *ConnMetrics { return h2conn.NewMetrics(r) }

// ReadScanRecords loads persisted scan records.
func ReadScanRecords(r io.Reader) ([]ScanRecord, error) {
	return store.Read(r)
}

// NewCensusTally returns an empty tally; Add each ScanRecord read back from
// a stored scan and render it with a Census.
func NewCensusTally() *CensusTally { return store.NewTally() }
