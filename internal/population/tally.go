package population

import (
	"strconv"

	"h2scope/internal/server"
	"h2scope/internal/store"
)

// Tally counts the generator's ground truth into the census aggregate, in
// the buckets a measured scan of the same sites fills: every spec field goes
// through the mapping (tinyClassOf, observationOf) ComputeAgreement checks
// site by site. NPN and ALPN are the epoch's negotiation totals, which
// include sites that never return HEADERS; HPACKRatios holds target ratios.
func (p *Population) Tally() *store.Tally {
	t := store.NewTally()
	t.NPN, t.ALPN = p.NPNSites, p.ALPNSites
	dec := func(v uint32) string { return strconv.FormatUint(uint64(v), 10) }
	for i := range p.Sites {
		s := &p.Sites[i]
		t.Scanned++
		t.GotHeaders++
		t.ServerNames[s.ServerName]++
		if s.OmitSettings {
			t.InitialWindow[store.LabelNull]++
			t.MaxFrame[store.LabelNull]++
			t.MaxHeaderList[store.LabelNull]++
		} else {
			t.MaxConcurrent[float64(s.MaxConcurrent)]++
			t.InitialWindow[dec(s.InitialWindow)]++
			t.MaxFrame[dec(s.MaxFrame)]++
			if s.MaxHeaderList == 0 {
				t.MaxHeaderList[store.LabelUnlimited]++
			} else {
				t.MaxHeaderList[dec(s.MaxHeaderList)]++
			}
		}
		t.TinyWindow[tinyClassOf(s.TinyWindow)]++
		if !s.FlowControlHeaders {
			t.ZeroWindowHeadersOK++
		}
		t.ZeroWUStream[observationOf(s.ZeroWUStream)]++
		t.ZeroWUConn[observationOf(s.ZeroWUConn)]++
		if s.ZeroWUConn == server.ReactGoAway && s.ZeroWUDebug {
			t.ZeroWUConnDebug++
		}
		t.LargeWUStream[observationOf(s.LargeWUStream)]++
		t.LargeWUConn[observationOf(s.LargeWUConn)]++
		switch s.Scheduling {
		case server.SchedPriority:
			t.PriorityLast++
			t.PriorityFirst++
			t.PriorityBoth++
		case server.SchedPriorityLastOnly:
			t.PriorityLast++
		case server.SchedPriorityFirstOnly:
			t.PriorityFirst++
		}
		t.SelfDep[observationOf(s.SelfDep)]++
		if s.Push {
			t.PushDomains = append(t.PushDomains, s.Domain)
		}
		t.AddHPACKRatio(s.Family, s.HPACKRatio)
	}
	return t
}
