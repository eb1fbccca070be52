package population

import (
	"fmt"
	"sort"
	"strings"

	"h2scope/internal/core"
	"h2scope/internal/server"
)

// Agreement quantifies how faithfully a measured scan reproduced the
// generator's ground truth, per behavioral dimension. It is the
// reproduction's calibration instrument: if any fraction drops below 1.0,
// either a probe or the server engine mis-measures that dimension.
type Agreement struct {
	// Sites is how many scanned sites carried comparable reports.
	Sites int
	// Dimensions maps a dimension name to the fraction of sites whose
	// measured classification equals the spec ([0,1]).
	Dimensions map[string]float64
	// Mismatches lists "domain: dimension" entries for disagreements.
	Mismatches []string

	// counts and matches are the per-dimension tallies Dimensions is the
	// quotient of, kept so sites can be folded in one at a time.
	counts, matches map[string]int
}

// ComputeAgreement reports how the scan's sites, each compared with its spec
// as it finalized, agreed with the ground truth.
func ComputeAgreement(sum *ScanSummary) *Agreement {
	agr := &sum.agreement
	agr.Dimensions = make(map[string]float64, len(agr.counts))
	for dim, n := range agr.counts {
		agr.Dimensions[dim] = float64(agr.matches[dim]) / float64(n)
	}
	return agr
}

// add compares one scanned site's report with its spec. A site without a
// report, or whose report has no SETTINGS exchange, is not comparable.
func (agr *Agreement) add(spec *SiteSpec, r *core.Report) {
	if r == nil || r.Settings == nil {
		return
	}
	if agr.counts == nil {
		agr.counts, agr.matches = make(map[string]int), make(map[string]int)
	}
	record := func(dim string, ok bool) {
		agr.counts[dim]++
		if ok {
			agr.matches[dim]++
		} else {
			agr.Mismatches = append(agr.Mismatches, spec.Domain+": "+dim)
		}
	}
	agr.Sites++
	record("server-name", r.Settings.ServerHeader == spec.ServerName)
	if r.FlowData != nil {
		record("tiny-window", tinyClassOf(spec.TinyWindow) == r.FlowData.Class)
	}
	if r.ZeroWindowHeaders != nil {
		record("zero-window-headers",
			r.ZeroWindowHeaders.GotHeaders == !spec.FlowControlHeaders)
	}
	if r.ZeroWU != nil {
		record("zero-wu-stream", observationOf(spec.ZeroWUStream) == r.ZeroWU.Stream)
		record("zero-wu-conn", observationOf(spec.ZeroWUConn) == r.ZeroWU.Conn)
	}
	if r.LargeWU != nil {
		record("large-wu-stream", observationOf(spec.LargeWUStream) == r.LargeWU.Stream)
		record("large-wu-conn", observationOf(spec.LargeWUConn) == r.LargeWU.Conn)
	}
	if r.SelfDep != nil {
		record("self-dependency", observationOf(spec.SelfDep) == r.SelfDep.Reaction)
	}
	if r.Push != nil {
		record("server-push", r.Push.Supported == spec.Push)
	}
	if r.Priority != nil {
		wantLast := spec.Scheduling == server.SchedPriority || spec.Scheduling == server.SchedPriorityLastOnly
		record("priority-last-rule", r.Priority.LastRuleOK == wantLast)
	}
}

// tinyClassOf maps a behavior knob to the probe's observation class.
func tinyClassOf(b server.TinyWindowBehavior) core.TinyWindowClass {
	switch b {
	case server.TinyWindowZeroData:
		return core.TinyWindowZeroLen
	case server.TinyWindowSilent:
		return core.TinyWindowNothing
	default:
		return core.TinyWindowOneByte
	}
}

// observationOf maps a behavior knob to the probe's observation.
func observationOf(r server.Reaction) core.Observation {
	switch r {
	case server.ReactRSTStream:
		return core.ObserveRSTStream
	case server.ReactGoAway:
		return core.ObserveGoAway
	default:
		return core.ObserveIgnore
	}
}

// Perfect reports whether every dimension agreed on every site.
func (a *Agreement) Perfect() bool { return len(a.Mismatches) == 0 }

// String renders the agreement report.
func (a *Agreement) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "measurement-vs-ground-truth agreement over %d sites:\n", a.Sites)
	dims := make([]string, 0, len(a.Dimensions))
	for dim := range a.Dimensions {
		dims = append(dims, dim)
	}
	sort.Strings(dims)
	for _, dim := range dims {
		fmt.Fprintf(&b, "  %-22s %.3f\n", dim, a.Dimensions[dim])
	}
	if len(a.Mismatches) > 0 {
		fmt.Fprintf(&b, "  mismatches: %s\n", strings.Join(a.Mismatches, "; "))
	}
	return b.String()
}
