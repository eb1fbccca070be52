package store

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"h2scope/internal/core"
	"h2scope/internal/frame"
	"h2scope/internal/scan"
	"h2scope/internal/stats"
)

// Labels of the two non-numeric rows of Tables V-VII: a site whose SETTINGS
// frame is empty, and a site that sets no SETTINGS_MAX_HEADER_LIST_SIZE.
const (
	LabelNull      = "NULL"
	LabelUnlimited = "unlimited"
)

// AllFamilies is the HPACKRatios series of records that carry no family
// (files written before Record had the field).
const AllFamilies = "all"

// Tally is the census aggregate: the buckets of the paper's Section V. It is
// the only one. A live scan folds each site's Record into it as the site
// finalizes, offline analysis folds the records it reads back with the same
// Add, and the generator counts its specs into the same fields
// (population.Population.Tally) — so the three print through one renderer
// (h2scope.Census) and can be compared field by field. Every field but
// PushDomains is a count: the tally's size follows the values sites take, not
// how many sites there were. The distributions behind the figures are counts
// by value, rendered through stats.NewCDFCounts.
type Tally struct {
	// Scanned counts sites, probed or not; GotHeaders those that returned
	// HEADERS, the paper's criterion for a working HTTP/2 site.
	Scanned, GotHeaders int
	// NPN and ALPN count sites negotiating h2 by each mechanism (V-B.1).
	NPN, ALPN int
	// ServerNames histograms the "server" header of working sites (Table IV).
	ServerNames map[string]int
	// InitialWindow, MaxFrame and MaxHeaderList are Tables V-VII, keyed by
	// the advertised value (or LabelNull / LabelUnlimited).
	InitialWindow, MaxFrame, MaxHeaderList map[string]int
	// MaxConcurrent counts sites by the SETTINGS_MAX_CONCURRENT_STREAMS they
	// advertise (Fig. 2).
	MaxConcurrent map[float64]int
	// TinyWindow buckets the 1-byte-window probe (V-D.1).
	TinyWindow map[core.TinyWindowClass]int
	// ZeroWindowHeadersOK counts HEADERS returned under a zero window (V-D.2).
	ZeroWindowHeadersOK int
	// The four WINDOW_UPDATE reaction maps (V-D.3/4), and the connection-level
	// GOAWAYs that carried debug text.
	ZeroWUStream, ZeroWUConn, LargeWUStream, LargeWUConn map[core.Observation]int
	ZeroWUConnDebug                                      int
	// PriorityLast/First/Both are the Algorithm 1 rule counts (V-E.1) and
	// SelfDep the self-dependency reactions (V-E.2).
	PriorityLast, PriorityFirst, PriorityBoth int
	SelfDep                                   map[core.Observation]int
	// PushDomains lists the sites that sent PUSH_PROMISE (V-F). The paper
	// names its push sites, so this is the one list; it is as long as the
	// paper's count of them, not as the sample.
	PushDomains []string
	// HPACKRatios counts compression ratios r <= 1 per server family, at the
	// 0.01 Figs. 4 and 5 print (the paper drops r > 1, sites inserting fresh
	// cookies).
	HPACKRatios map[string]map[float64]int

	// Coverage: what only a measured tally fills.

	// PingRTTsMillis counts sites by minimum h2-PING RTT in milliseconds, at
	// the 1 µs the RTT is computed at: the map is bounded by the range RTTs
	// span (a key per microsecond of it), not by the sample.
	PingRTTsMillis map[float64]int
	// Failed and Canceled count sites whose probe did not complete (they
	// are part of Scanned); FailureKinds histograms the failed by kind.
	Failed, Canceled int
	FailureKinds     map[string]int
	// RobustnessSum adds up the adversarial-battery scores in [0,1] of the
	// RobustnessSites sites that have one; RobustnessVerdicts histograms
	// scenario outcomes ("<kind>/<verdict>").
	RobustnessSum      float64
	RobustnessSites    int
	RobustnessVerdicts map[string]int
	// FingerprintSites counts sites the impersonation sweep observed,
	// FingerprintEcho those whose /fp endpoint answered, FingerprintDiffers
	// those serving different responses to different clients.
	FingerprintSites, FingerprintEcho, FingerprintDiffers int
}

// NewTally returns an empty tally with every map allocated, so all feeders
// produce reflect.DeepEqual-comparable values.
func NewTally() *Tally {
	return &Tally{
		ServerNames:        make(map[string]int),
		InitialWindow:      make(map[string]int),
		MaxFrame:           make(map[string]int),
		MaxHeaderList:      make(map[string]int),
		MaxConcurrent:      make(map[float64]int),
		TinyWindow:         make(map[core.TinyWindowClass]int),
		ZeroWUStream:       make(map[core.Observation]int),
		ZeroWUConn:         make(map[core.Observation]int),
		LargeWUStream:      make(map[core.Observation]int),
		LargeWUConn:        make(map[core.Observation]int),
		SelfDep:            make(map[core.Observation]int),
		HPACKRatios:        make(map[string]map[float64]int),
		PingRTTsMillis:     make(map[float64]int),
		FailureKinds:       make(map[string]int),
		RobustnessVerdicts: make(map[string]int),
	}
}

// Add folds one site's record. Stats trailers are not sites and are skipped.
func (t *Tally) Add(rec *Record) {
	if rec.IsStatsTrailer() {
		return
	}
	t.Scanned++
	if rec.Robustness != nil {
		t.RobustnessSum += rec.Robustness.Value
		t.RobustnessSites++
		for kind, verdict := range rec.Robustness.Verdicts {
			t.RobustnessVerdicts[fmt.Sprintf("%s/%s", kind, verdict)]++
		}
	}
	if fp := rec.Fingerprint; fp != nil {
		t.FingerprintSites++
		if fp.EchoOK {
			t.FingerprintEcho++
		}
		if fp.Differs {
			t.FingerprintDiffers++
		}
	}
	switch rec.Outcome {
	case scan.OutcomeFailed.String():
		t.Failed++
		t.FailureKinds[rec.ErrorKind]++
	case scan.OutcomeCanceled.String():
		t.Canceled++
	}
	r := rec.Report
	if r == nil {
		return
	}
	if r.NPN != nil && *r.NPN {
		t.NPN++
	}
	if r.ALPN != nil && *r.ALPN {
		t.ALPN++
	}
	if set := r.Settings; set != nil && set.GotHeaders {
		t.GotHeaders++
		t.ServerNames[set.ServerHeader]++
		t.addSettings(set)
	}
	if r.FlowData != nil {
		t.TinyWindow[r.FlowData.Class]++
	}
	if r.ZeroWindowHeaders != nil && r.ZeroWindowHeaders.GotHeaders {
		t.ZeroWindowHeadersOK++
	}
	if r.ZeroWU != nil {
		t.ZeroWUStream[r.ZeroWU.Stream]++
		t.ZeroWUConn[r.ZeroWU.Conn]++
		if r.ZeroWU.ConnDebugData != "" {
			t.ZeroWUConnDebug++
		}
	}
	if r.LargeWU != nil {
		t.LargeWUStream[r.LargeWU.Stream]++
		t.LargeWUConn[r.LargeWU.Conn]++
	}
	if r.Priority != nil {
		if r.Priority.LastRuleOK {
			t.PriorityLast++
		}
		if r.Priority.FirstRuleOK {
			t.PriorityFirst++
		}
		if r.Priority.Pass {
			t.PriorityBoth++
		}
	}
	if r.SelfDep != nil {
		t.SelfDep[r.SelfDep.Reaction]++
	}
	if r.Push != nil && r.Push.Supported {
		t.PushDomains = append(t.PushDomains, rec.Domain)
	}
	if r.HPACK != nil && r.HPACK.Ratio <= 1.0 {
		t.AddHPACKRatio(rec.Family, r.HPACK.Ratio)
	}
	if r.Ping != nil && r.Ping.Supported {
		t.PingRTTsMillis[float64(r.Ping.Min().Microseconds())/1000]++
	}
}

// AddHPACKRatio counts one site's compression ratio in its family's series
// (AllFamilies when it has none), rounded the way the figure's %.2f rounds
// it: nearest-rank quantiles are order statistics and rounding is monotone,
// so the figure prints what it would from the unrounded sample.
func (t *Tally) AddHPACKRatio(family string, ratio float64) {
	if family == "" {
		family = AllFamilies
	}
	series := t.HPACKRatios[family]
	if series == nil {
		series = make(map[float64]int)
		t.HPACKRatios[family] = series
	}
	rounded, _ := strconv.ParseFloat(strconv.FormatFloat(ratio, 'f', 2, 64), 64)
	series[rounded]++
}

// addSettings files one working site's advertisement under Tables V-VII and
// Fig. 2. A parameter left out of a non-empty frame counts at its RFC 7540
// default, which is what the peer then assumes.
func (t *Tally) addSettings(set *core.SettingsResult) {
	if len(set.Settings) == 0 {
		t.InitialWindow[LabelNull]++
		t.MaxFrame[LabelNull]++
		t.MaxHeaderList[LabelNull]++
		return
	}
	label := func(id frame.SettingID, unset string) string {
		if v, ok := set.Value(id); ok {
			return strconv.FormatUint(uint64(v), 10)
		}
		return unset
	}
	if v, ok := set.Value(frame.SettingMaxConcurrentStreams); ok {
		t.MaxConcurrent[float64(v)]++
	}
	t.InitialWindow[label(frame.SettingInitialWindowSize, "65535")]++
	t.MaxFrame[label(frame.SettingMaxFrameSize, "16384")]++
	t.MaxHeaderList[label(frame.SettingMaxHeaderListSize, LabelUnlimited)]++
}

// Coverage renders what only a measured tally knows: probes that did not
// complete, h2-PING round trips, and the optional robustness and fingerprint
// columns. It is empty for a tally with none of these (the ground truth).
func (t *Tally) Coverage() string {
	var b strings.Builder
	if t.Failed > 0 || t.Canceled > 0 {
		fmt.Fprintf(&b, "probes: %d complete / %d failed / %d canceled (failed by kind: %v)\n",
			t.Scanned-t.Failed-t.Canceled, t.Failed, t.Canceled, t.FailureKinds)
	}
	if len(t.PingRTTsMillis) > 0 {
		cdf := stats.NewCDFCounts(t.PingRTTsMillis)
		fmt.Fprintf(&b, "h2 PING min RTT: %d sites, p50 %.3fms / p90 %.3fms\n",
			cdf.Len(), cdf.Quantile(0.5), cdf.Quantile(0.9))
	}
	if n := t.RobustnessSites; n > 0 {
		fmt.Fprintf(&b, "robustness: %d sites scored, mean %.2f\n", n, t.RobustnessSum/float64(n))
		keys := make([]string, 0, len(t.RobustnessVerdicts))
		for k := range t.RobustnessVerdicts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %s: %d\n", k, t.RobustnessVerdicts[k])
		}
	}
	if t.FingerprintSites > 0 {
		fmt.Fprintf(&b, "fingerprint sweep: %d sites / %d echoed /fp / %d served by client\n",
			t.FingerprintSites, t.FingerprintEcho, t.FingerprintDiffers)
	}
	return b.String()
}
