package population

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/hpack"
	"h2scope/internal/server"
)

// SiteSpec is one synthesized HTTP/2 web site: everything the scans can
// observe about it, plus the ground-truth behavior knobs that produce those
// observations when the spec is materialized as a live server.
type SiteSpec struct {
	// Rank is the site's position in the synthetic top list (1-based).
	Rank int
	// Domain is the site's authority.
	Domain string

	// NPN and ALPN are the TLS negotiation mechanisms the site speaks.
	NPN, ALPN bool

	// ServerName is the "server" response header (Table IV); Family groups
	// variants for per-family figures.
	ServerName string
	Family     string

	// OmitSettings marks the NULL rows of Tables V-VII: the site sends an
	// empty SETTINGS frame.
	OmitSettings bool
	// MaxConcurrent, InitialWindow, MaxFrame and MaxHeaderList are the
	// advertised SETTINGS values (MaxHeaderList 0 = unlimited/omitted).
	MaxConcurrent uint32
	InitialWindow uint32
	MaxFrame      uint32
	MaxHeaderList uint32

	// TinyWindow is the behavior under a 1-byte client window (V-D.1).
	TinyWindow server.TinyWindowBehavior
	// FlowControlHeaders marks sites that withhold HEADERS under a zero
	// window (V-D.2).
	FlowControlHeaders bool
	// Reactions to zero and overflowing WINDOW_UPDATE frames (V-D.3/4).
	ZeroWUStream  server.Reaction
	ZeroWUConn    server.Reaction
	ZeroWUDebug   bool
	LargeWUStream server.Reaction
	LargeWUConn   server.Reaction

	// Scheduling is the DATA-ordering behavior (V-E.1).
	Scheduling server.SchedulingMode
	// SelfDep is the reaction to self-dependent PRIORITY frames (V-E.2).
	SelfDep server.Reaction

	// Push marks the handful of sites that send PUSH_PROMISE (V-F).
	Push bool

	// HPACKRatio is the site's target header-compression ratio (Figs 4-5);
	// the materialized server's encoder policy is derived from it.
	HPACKRatio float64

	// BaseRTT is the site's network round-trip time in the RTT experiments.
	BaseRTT time.Duration
}

// Profile materializes the spec's behavior as a server profile.
func (s *SiteSpec) Profile() server.Profile {
	p := server.Profile{
		Name:                    s.ServerName,
		Family:                  s.Family,
		SupportsALPN:            s.ALPN,
		SupportsNPN:             s.NPN,
		HeaderTableSize:         frame.DefaultHeaderTableSize, // "all servers use the default" (V-C)
		MaxConcurrentStreams:    s.MaxConcurrent,
		AdvertiseMaxStreams:     !s.OmitSettings,
		InitialWindowSize:       s.InitialWindow,
		MaxFrameSize:            s.MaxFrame,
		MaxHeaderListSize:       s.MaxHeaderList,
		OmitSettings:            s.OmitSettings,
		FlowControlHeaders:      s.FlowControlHeaders,
		TinyWindow:              s.TinyWindow,
		ZeroWindowUpdateStream:  s.ZeroWUStream,
		ZeroWindowUpdateConn:    s.ZeroWUConn,
		ZeroWindowDebugData:     s.ZeroWUDebug,
		LargeWindowUpdateStream: s.LargeWUStream,
		LargeWindowUpdateConn:   s.LargeWUConn,
		Scheduling:              s.Scheduling,
		SelfDependency:          s.SelfDep,
		EnablePush:              s.Push,
		AnswerPing:              true,
	}
	if s.OmitSettings {
		p.MaxFrameSize = frame.DefaultMaxFrameSize
		p.InitialWindowSize = frame.DefaultInitialWindowSize
	}
	if !s.OmitSettings && s.InitialWindow == 0 {
		// The Nginx pattern of Table V: advertise 0, then immediately
		// reopen with WINDOW_UPDATE frames.
		p.ConnWindowBoost = frame.MaxWindowSize - frame.DefaultInitialWindowSize
		p.StreamWindowBoost = frame.MaxWindowSize - frame.DefaultInitialWindowSize
	}
	switch {
	case s.HPACKRatio >= 0.97:
		p.HPACKPolicy = hpack.PolicyNoDynamicInsert
	case s.HPACKRatio <= 0.20:
		p.HPACKPolicy = hpack.PolicyIndexAll
	default:
		p.HPACKPolicy = hpack.PolicyIndexPartial
		p.HPACKPartialFraction = partialFractionFor(s.HPACKRatio)
		p.HPACKPartialSalt = uint32(s.Rank)*2654435761 + 17
	}
	return p
}

// partialFractionFor inverts the approximate ratio model of an H-request
// probe (H=8): ratio ≈ 1/H + (H-1)/H × (1 − 0.93·fraction).
func partialFractionFor(ratio float64) float64 {
	f := (1 - (ratio-0.125)/0.875) / 0.93
	return math.Max(0, math.Min(1, f))
}

// NewSite materializes the spec's document tree.
func (s *SiteSpec) NewSite() *server.Site {
	site := server.DefaultSite(s.Domain)
	if s.Push {
		site.SetPush("/", "/static/style.css", "/static/app.js", "/static/logo.png", "/static/hero.jpg")
	} else {
		site.SetPush("/") // clear the default manifest: nothing to push
	}
	return site
}

// NewServer materializes the spec as a live HTTP/2 server.
func (s *SiteSpec) NewServer() *server.Server {
	return server.New(s.Profile(), s.NewSite())
}

// Population is one epoch's synthesized universe.
type Population struct {
	// Epoch identifies the experiment.
	Epoch Epoch
	// Scale is the down-scaling factor applied to all published counts.
	Scale float64
	// TotalSites is the (scaled) size of the top list.
	TotalSites int
	// NPNSites and ALPNSites are the (scaled) adoption counts of
	// Section V-B.1; AnnounceSites is their union.
	NPNSites, ALPNSites, AnnounceSites int
	// Sites are the working sites (those that returned HEADERS); all
	// per-feature distributions live here.
	Sites []SiteSpec
}

// Generate synthesizes the population of an epoch. scale in (0, 1] shrinks
// every published count proportionally (scale 1 reproduces the full
// 44,390- or 64,299-site working set); seed fixes all assignments.
func Generate(epoch Epoch, scale float64, seed int64) *Population {
	if scale <= 0 || scale > 1 {
		panic(fmt.Sprintf("population: scale %v out of (0,1]", scale))
	}
	d := dataFor(epoch)
	sc := func(n int) int { return int(math.Round(float64(n) * scale)) }
	w := sc(d.working)
	if w < 1 {
		w = 1
	}

	pop := &Population{
		Epoch:         epoch,
		Scale:         scale,
		TotalSites:    sc(d.totalSites),
		NPNSites:      sc(d.npnOnly + d.npnAlpn),
		ALPNSites:     sc(d.alpnOnly + d.npnAlpn),
		AnnounceSites: sc(d.npnOnly + d.alpnOnly + d.npnAlpn),
		Sites:         make([]SiteSpec, w),
	}

	for i := range pop.Sites {
		pop.Sites[i] = SiteSpec{
			Rank:   i + 1,
			Domain: fmt.Sprintf("site-%06d.example", i+1),
		}
	}

	assignNegotiation(pop.Sites, d, dimRNG(seed, 1))
	assignServerNames(pop.Sites, d, scale, dimRNG(seed, 2))
	assignSettings(pop.Sites, d, scale, dimRNG(seed, 3))
	assignTinyWindow(pop.Sites, d, scale, dimRNG(seed, 4))
	assignZeroWindowHeaders(pop.Sites, d, scale, dimRNG(seed, 5))
	assignWindowUpdateReactions(pop.Sites, d, scale, dimRNG(seed, 6))
	assignScheduling(pop.Sites, d, scale, dimRNG(seed, 7))
	assignSelfDep(pop.Sites, d, scale, dimRNG(seed, 8))
	assignPush(pop.Sites, d, scale)
	assignHPACK(pop.Sites, epoch, dimRNG(seed, 9))
	assignRTT(pop.Sites, dimRNG(seed, 10))
	return pop
}

// dimRNG derives an independent RNG stream per assignment dimension so the
// published marginals stay independent unless deliberately correlated.
func dimRNG(seed int64, dim int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + dim))
}

// scaleBuckets scales a counts vector to sum exactly to total, fixing
// rounding drift on the largest bucket.
func scaleBuckets(counts []int, total int) []int {
	orig := 0
	for _, c := range counts {
		orig += c
	}
	out := make([]int, len(counts))
	if orig == 0 {
		return out
	}
	sum, largest := 0, 0
	for i, c := range counts {
		out[i] = int(math.Round(float64(c) * float64(total) / float64(orig)))
		sum += out[i]
		if out[i] > out[largest] {
			largest = i
		}
	}
	out[largest] += total - sum
	if out[largest] < 0 {
		out[largest] = 0
	}
	return out
}

func assignNegotiation(sites []SiteSpec, d *epochData, rng *rand.Rand) {
	// Working sites inherit the union's composition proportionally.
	buckets := scaleBuckets([]int{d.npnAlpn, d.npnOnly, d.alpnOnly}, len(sites))
	perm := rng.Perm(len(sites))
	idx := 0
	take := func(n int, npn, alpn bool) {
		for i := 0; i < n && idx < len(perm); i++ {
			s := &sites[perm[idx]]
			s.NPN, s.ALPN = npn, alpn
			idx++
		}
	}
	take(buckets[0], true, true)
	take(buckets[1], true, false)
	take(buckets[2], false, true)
	for ; idx < len(perm); idx++ {
		sites[perm[idx]].NPN, sites[perm[idx]].ALPN = true, true
	}
}

func assignServerNames(sites []SiteSpec, d *epochData, scale float64, rng *rand.Rand) {
	type slot struct {
		name   string
		family string
	}
	slots := make([]slot, 0, len(sites))
	counts := make([]int, 0, len(d.servers)+1)
	tail := len(sites)
	for _, sv := range d.servers {
		counts = append(counts, sv.count)
	}
	scaled := scaleBuckets(counts, int(math.Round(float64(sumCounts(counts))*scale)))
	for i, sv := range d.servers {
		for j := 0; j < scaled[i]; j++ {
			slots = append(slots, slot{sv.name, sv.family})
		}
	}
	tail -= len(slots)
	// Long tail: tailKinds synthetic server names share the remainder.
	kinds := d.tailKinds
	if kinds < 1 {
		kinds = 1
	}
	for j := 0; j < tail; j++ {
		k := j % kinds
		slots = append(slots, slot{fmt.Sprintf("httpd-variant-%03d", k), d.tailFamily})
	}
	perm := rng.Perm(len(sites))
	for i, pi := range perm {
		sites[pi].ServerName = slots[i].name
		sites[pi].Family = slots[i].family
	}
}

func sumCounts(counts []int) int {
	s := 0
	for _, c := range counts {
		s += c
	}
	return s
}

// assignValues distributes a published value distribution over the sites
// selected by eligible, writing via set.
func assignValues(sites []SiteSpec, dist []valueCount, eligible []int, rng *rand.Rand, set func(*SiteSpec, int64)) {
	counts := make([]int, len(dist))
	for i, vc := range dist {
		counts[i] = vc.count
	}
	scaled := scaleBuckets(counts, len(eligible))
	perm := rng.Perm(len(eligible))
	idx := 0
	for i, n := range scaled {
		for j := 0; j < n && idx < len(perm); j++ {
			set(&sites[eligible[perm[idx]]], dist[i].value)
			idx++
		}
	}
	for ; idx < len(perm); idx++ {
		set(&sites[eligible[perm[idx]]], dist[len(dist)-1].value)
	}
}

func assignSettings(sites []SiteSpec, d *epochData, scale float64, rng *rand.Rand) {
	// The NULL rows of Tables V-VII are the same sites: those sending an
	// empty SETTINGS frame.
	nulls := int(math.Round(float64(d.omitNullRow) * scale))
	perm := rng.Perm(len(sites))
	for i := 0; i < nulls && i < len(perm); i++ {
		sites[perm[i]].OmitSettings = true
	}
	eligible := make([]int, 0, len(sites)-nulls)
	for i := range sites {
		if !sites[i].OmitSettings {
			eligible = append(eligible, i)
		}
	}
	assignValues(sites, d.initialWindow, eligible, rng, func(s *SiteSpec, v int64) {
		s.InitialWindow = uint32(v)
	})
	assignValues(sites, d.maxFrame, eligible, rng, func(s *SiteSpec, v int64) {
		s.MaxFrame = uint32(v)
	})
	assignValues(sites, d.maxHeaderList, eligible, rng, func(s *SiteSpec, v int64) {
		s.MaxHeaderList = uint32(v)
	})
	assignValues(sites, d.maxConcurrent, eligible, rng, func(s *SiteSpec, v int64) {
		s.MaxConcurrent = uint32(v)
	})
}

func assignTinyWindow(sites []SiteSpec, d *epochData, scale float64, rng *rand.Rand) {
	silent := int(math.Round(float64(d.tinySilent) * scale))
	zeroLen := int(math.Round(float64(d.tinyZeroLen) * scale))

	for i := range sites {
		sites[i].TinyWindow = server.TinyWindowComply
	}
	// The paper attributes most silent sites to LiteSpeed (10,472 of
	// 12,039 in exp. 2): fill the silent bucket from LiteSpeed first.
	wantLiteSpeed := int(float64(silent) * d.tinySilentLiteSpeedShare)
	var litespeed, others []int
	for i := range sites {
		if sites[i].Family == "litespeed" {
			litespeed = append(litespeed, i)
		} else {
			others = append(others, i)
		}
	}
	rng.Shuffle(len(litespeed), func(i, j int) { litespeed[i], litespeed[j] = litespeed[j], litespeed[i] })
	rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
	assigned := 0
	for _, i := range litespeed {
		if assigned >= wantLiteSpeed {
			break
		}
		sites[i].TinyWindow = server.TinyWindowSilent
		assigned++
	}
	oi := 0
	for assigned < silent && oi < len(others) {
		sites[others[oi]].TinyWindow = server.TinyWindowSilent
		assigned++
		oi++
	}
	for n := 0; n < zeroLen && oi < len(others); oi++ {
		if sites[others[oi]].TinyWindow == server.TinyWindowComply {
			sites[others[oi]].TinyWindow = server.TinyWindowZeroData
			n++
		}
	}
}

func assignZeroWindowHeaders(sites []SiteSpec, d *epochData, scale float64, rng *rand.Rand) {
	// `ok` sites honor RFC 7540 and return HEADERS under a zero window;
	// the rest apply flow control to HEADERS ("the remaining sites do not
	// follow RFC 7540"). Silent tiny-window sites necessarily withhold
	// responses, so they fill the non-compliant bucket first and the
	// random remainder comes from the other sites — preserving both the
	// published marginal and the LiteSpeed-silence correlation.
	ok := int(math.Round(float64(d.zeroWindowHeadersOK) * scale))
	nonCompliant := len(sites) - ok
	var rest []int
	for i := range sites {
		if sites[i].TinyWindow == server.TinyWindowSilent {
			sites[i].FlowControlHeaders = true
			nonCompliant--
		} else {
			rest = append(rest, i)
		}
	}
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	for i, ri := range rest {
		sites[ri].FlowControlHeaders = i < nonCompliant
	}
}

func assignWindowUpdateReactions(sites []SiteSpec, d *epochData, scale float64, rng *rand.Rand) {
	w := len(sites)
	sc := func(n int) int {
		v := int(math.Round(float64(n) * scale))
		if v > w {
			v = w
		}
		return v
	}
	// Zero WINDOW_UPDATE, stream level.
	rst := sc(d.zeroWUStream.rst)
	goaway := sc(d.zeroWUStream.goAway)
	debug := sc(d.zeroWUStream.debug)
	perm := rng.Perm(w)
	for i, pi := range perm {
		s := &sites[pi]
		switch {
		case i < rst:
			s.ZeroWUStream = server.ReactRSTStream
		case i < rst+goaway:
			s.ZeroWUStream = server.ReactGoAway
			if i-rst < debug {
				s.ZeroWUDebug = true
			}
		default:
			s.ZeroWUStream = server.ReactIgnore
		}
	}
	// Zero WINDOW_UPDATE, connection level: "nearly all return connection
	// error".
	connGoAway := sc(d.zeroWUConn.goAway)
	perm = rng.Perm(w)
	for i, pi := range perm {
		if i < connGoAway {
			sites[pi].ZeroWUConn = server.ReactGoAway
		} else {
			sites[pi].ZeroWUConn = server.ReactIgnore
		}
	}
	// Large WINDOW_UPDATE.
	streamRST := sc(d.largeWUStreamRST)
	perm = rng.Perm(w)
	for i, pi := range perm {
		if i < streamRST {
			sites[pi].LargeWUStream = server.ReactRSTStream
		} else {
			sites[pi].LargeWUStream = server.ReactIgnore
		}
	}
	connGoAway = sc(d.largeWUConnGoAway)
	perm = rng.Perm(w)
	for i, pi := range perm {
		if i < connGoAway {
			sites[pi].LargeWUConn = server.ReactGoAway
		} else {
			sites[pi].LargeWUConn = server.ReactIgnore
		}
	}
}

// algorithm1Streams is how many streams the paper's Algorithm 1 holds open at
// once: the six of the RFC 7540 section 5.3.3 example tree.
const algorithm1Streams = 6

func assignScheduling(sites []SiteSpec, d *epochData, scale float64, rng *rand.Rand) {
	both := int(math.Round(float64(d.priorityBoth) * scale))
	lastOnly := int(math.Round(float64(d.priorityLastOnly) * scale))
	firstOnly := int(math.Round(float64(d.priorityFirstOnly) * scale))
	// A site the paper counted under one of the three priority modes is one
	// Algorithm 1 could run against, so the modes are dealt only to sites
	// that allow its six streams: the shuffle is stable-partitioned, those
	// sites first. The counts per mode do not change.
	var perm, refusing []int
	for _, i := range rng.Perm(len(sites)) {
		if s := &sites[i]; s.OmitSettings || s.MaxConcurrent >= algorithm1Streams {
			perm = append(perm, i)
		} else {
			refusing = append(refusing, i)
		}
	}
	perm = append(perm, refusing...)
	for i, pi := range perm {
		s := &sites[pi]
		switch {
		case i < both:
			s.Scheduling = server.SchedPriority
		case i < both+lastOnly:
			s.Scheduling = server.SchedPriorityLastOnly
		case i < both+lastOnly+firstOnly:
			s.Scheduling = server.SchedPriorityFirstOnly
		default:
			s.Scheduling = server.SchedRoundRobin
		}
	}
}

func assignSelfDep(sites []SiteSpec, d *epochData, scale float64, rng *rand.Rand) {
	rst := int(math.Round(float64(d.selfDepRST) * scale))
	perm := rng.Perm(len(sites))
	for i, pi := range perm {
		s := &sites[pi]
		switch {
		case i < rst:
			s.SelfDep = server.ReactRSTStream
		case rng.Float64() < d.selfDepGoAwayShare:
			s.SelfDep = server.ReactGoAway
		default:
			s.SelfDep = server.ReactIgnore
		}
	}
}

func assignPush(sites []SiteSpec, d *epochData, scale float64) {
	n := int(math.Round(float64(len(d.pushDomains)) * scale))
	if n < 1 {
		n = 1
	}
	if n > len(d.pushDomains) {
		n = len(d.pushDomains)
	}
	if n > len(sites) {
		n = len(sites)
	}
	// Push sites take the paper's real domain names (Fig. 3 names them) and
	// sit at deterministic spots so both epochs keep the same six.
	for i := 0; i < n; i++ {
		idx := (i * 7919) % len(sites)
		for sites[idx].Push {
			idx = (idx + 1) % len(sites)
		}
		sites[idx].Push = true
		sites[idx].Domain = d.pushDomains[i]
	}
}

func assignHPACK(sites []SiteSpec, epoch Epoch, rng *rand.Rand) {
	for i := range sites {
		sites[i].HPACKRatio = familyRatio(epoch, sites[i].Family, rng)
	}
}

// familyRatio samples a target HPACK compression ratio matching the
// per-family CDF shapes of Figs. 4 (Jul 2016) and 5 (Jan 2017): GSE always
// below 0.3; LiteSpeed 80% below 0.3; Nginx overwhelmingly at 1 (no
// response-header indexing); IdeaWebServer near 1; Tengine concentrated in
// exp. 1 (the tmall.com fleet) and diverse in exp. 2.
func familyRatio(epoch Epoch, family string, rng *rand.Rand) float64 {
	u := rng.Float64()
	switch family {
	case "GSE":
		return 0.10 + 0.18*u
	case "nginx":
		if rng.Float64() < 0.935 {
			return 1.0
		}
		return 0.30 + 0.60*u
	case "tengine":
		if epoch == EpochJul2016 {
			// tmall.com sites share near-identical resources.
			return 0.33 + 0.04*u
		}
		return 0.20 + 0.70*u
	case "litespeed":
		if rng.Float64() < 0.80 {
			return 0.12 + 0.18*u
		}
		return 0.30 + 0.65*u
	case "ideaweb":
		return 0.82 + 0.18*u
	default:
		return 0.20 + 0.80*u
	}
}

func assignRTT(sites []SiteSpec, rng *rand.Rand) {
	for i := range sites {
		// Log-normal-ish Internet RTTs: median ~30 ms, tail to ~300 ms.
		ms := math.Exp(rng.NormFloat64()*0.7 + 3.4)
		if ms < 2 {
			ms = 2
		}
		if ms > 350 {
			ms = 350
		}
		sites[i].BaseRTT = time.Duration(ms * float64(time.Millisecond))
	}
}
