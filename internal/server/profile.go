// Package server implements a complete HTTP/2 origin server whose
// externally visible protocol behavior is configurable through a Profile.
//
// The paper characterizes six real server implementations (Nginx, LiteSpeed,
// H2O, nghttpd, Tengine, Apache v2016 releases) and finds they diverge on a
// specific, enumerable set of behaviors (Table III): whether flow control is
// (incorrectly) applied to HEADERS frames, how zero and overflowing
// WINDOW_UPDATE frames are answered, whether server push and priority
// scheduling are implemented, how self-dependent PRIORITY frames are
// handled, and whether response header fields are entered into the HPACK
// dynamic table. Each divergence is a Profile knob here, so one engine can
// faithfully stand in for all six servers — and for the long tail of
// behaviors the paper observes across the Alexa top 1M.
package server

import (
	"fmt"
	"strings"

	"h2scope/internal/frame"
	"h2scope/internal/hpack"
)

// Reaction is how a server answers a protocol violation (or chooses not to).
type Reaction int

// Reactions a server may have to an erroneous frame.
const (
	// ReactIgnore silently discards the offending frame.
	ReactIgnore Reaction = iota + 1
	// ReactRSTStream answers with RST_STREAM on the affected stream.
	ReactRSTStream
	// ReactGoAway answers with GOAWAY and closes the connection.
	ReactGoAway
)

// String renders the reaction the way the paper's Table III does.
func (r Reaction) String() string {
	switch r {
	case ReactIgnore:
		return "ignore"
	case ReactRSTStream:
		return "RST_STREAM"
	case ReactGoAway:
		return "GOAWAY"
	default:
		return "unknown"
	}
}

// SchedulingMode selects how the server orders DATA frames across streams.
type SchedulingMode int

// Scheduling modes observed across deployed servers (Section V-E).
const (
	// SchedRoundRobin interleaves ready streams in arrival order, ignoring
	// the priority tree entirely. Nginx, LiteSpeed, and Tengine behave this
	// way ("fail" on the paper's Algorithm 1).
	SchedRoundRobin SchedulingMode = iota + 1
	// SchedPriority serves streams strictly by the RFC 7540 dependency
	// tree with weighted fair sharing among siblings. H2O, nghttpd, and
	// Apache behave this way ("pass").
	SchedPriority
	// SchedPriorityLastOnly emits each ready stream's first quantum in
	// arrival order before switching to priority order. The *last* DATA
	// frame of each stream obeys the tree but the *first* does not —
	// the most common partially-compliant behavior in the wild (the
	// ~1,100 sites that pass only the last-DATA rule in Section V-E).
	SchedPriorityLastOnly
	// SchedPriorityFirstOnly emits first quanta in priority order, then
	// degrades to round-robin: first-DATA order obeys the tree, last-DATA
	// order does not (the small first-rule-only population).
	SchedPriorityFirstOnly
	// SchedSequential serves one whole response at a time in arrival
	// order — a server that accepts concurrent streams but does not
	// actually multiplex them. No testbed server behaves this way; the
	// mode exists to validate that the multiplexing probe can detect the
	// absence of interleaving (Section III-A.1's negative case).
	SchedSequential
)

// String returns a short name for the mode.
func (m SchedulingMode) String() string {
	switch m {
	case SchedRoundRobin:
		return "round-robin"
	case SchedPriority:
		return "priority"
	case SchedPriorityLastOnly:
		return "priority-last-only"
	case SchedPriorityFirstOnly:
		return "priority-first-only"
	case SchedSequential:
		return "sequential"
	default:
		return "unknown"
	}
}

// TinyWindowBehavior selects what the server does when the client pins
// SETTINGS_INITIAL_WINDOW_SIZE to a very small value (Section V-D.1).
type TinyWindowBehavior int

// Behaviors observed when the client advertises a 1-byte stream window.
const (
	// TinyWindowComply sends DATA frames sized exactly to the window
	// (37,525 / 44,204 sites; all six testbed servers).
	TinyWindowComply TinyWindowBehavior = iota + 1
	// TinyWindowZeroData sends zero-length DATA frames (2,433 / 8,056 sites).
	TinyWindowZeroData
	// TinyWindowSilent sends no response at all (4,432 / 12,039 sites,
	// predominantly LiteSpeed deployments).
	TinyWindowSilent
)

// Profile enumerates every externally visible behavior the paper measures.
type Profile struct {
	// Name is the value of the "server" response header (e.g. "nginx/1.9.15").
	Name string
	// Family is the implementation family used for per-server aggregation
	// in the paper's figures (e.g. "nginx", "litespeed", "GSE").
	Family string

	// SupportsALPN and SupportsNPN control TLS protocol negotiation.
	// RFC 7540 requires ALPN; NPN is legacy (Apache lacks it).
	SupportsALPN bool
	SupportsNPN  bool

	// --- SETTINGS advertisement (Tables V, VI, VII; Figure 2) ---

	// OmitSettings, when set, sends an empty SETTINGS frame (the "NULL"
	// rows of Tables V-VII).
	OmitSettings bool
	// HeaderTableSize is the advertised SETTINGS_HEADER_TABLE_SIZE.
	HeaderTableSize uint32
	// MaxConcurrentStreams is the advertised and enforced limit on
	// concurrent client-initiated streams. AdvertiseMaxStreams gates
	// whether the setting is sent at all.
	MaxConcurrentStreams uint32
	AdvertiseMaxStreams  bool
	// InitialWindowSize is the advertised SETTINGS_INITIAL_WINDOW_SIZE.
	InitialWindowSize uint32
	// ConnWindowBoost, when nonzero, is sent as an immediate
	// connection-level WINDOW_UPDATE right after SETTINGS — the
	// Nginx-style "advertise 0, then WINDOW_UPDATE" pattern the paper
	// observes under Table V.
	ConnWindowBoost uint32
	// StreamWindowBoost, when nonzero, is sent as a stream-level
	// WINDOW_UPDATE for every newly opened request stream.
	StreamWindowBoost uint32
	// MaxFrameSize is the advertised SETTINGS_MAX_FRAME_SIZE.
	MaxFrameSize uint32
	// MaxHeaderListSize is the advertised SETTINGS_MAX_HEADER_LIST_SIZE;
	// 0 means "unlimited" (the setting is omitted, the RFC suggestion).
	MaxHeaderListSize uint32

	// --- Flow control (Table III rows 4-9; Section V-D) ---

	// FlowControlHeaders applies flow control to HEADERS frames, which
	// RFC 7540 forbids. LiteSpeed does this: with a zero or drained
	// window it withholds even the response headers.
	FlowControlHeaders bool
	// TinyWindow selects the response style under a 1-byte stream window.
	TinyWindow TinyWindowBehavior
	// ZeroWindowUpdateStream is the reaction to WINDOW_UPDATE(stream, 0).
	// RFC 7540 calls for RST_STREAM.
	ZeroWindowUpdateStream Reaction
	// ZeroWindowUpdateConn is the reaction to WINDOW_UPDATE(conn, 0).
	// RFC 7540 calls for GOAWAY.
	ZeroWindowUpdateConn Reaction
	// ZeroWindowDebugData, when set, includes explanatory text in the
	// GOAWAY debug-data field (the 26/42 sites of Section V-D.3).
	ZeroWindowDebugData bool
	// LargeWindowUpdateStream is the reaction to a stream window pushed
	// past 2^31-1 (RFC: RST_STREAM).
	LargeWindowUpdateStream Reaction
	// LargeWindowUpdateConn is the reaction to the connection window
	// pushed past 2^31-1 (RFC: GOAWAY).
	LargeWindowUpdateConn Reaction

	// --- Priority (Table III rows 10-12; Section V-E) ---

	// Scheduling selects DATA ordering across streams.
	Scheduling SchedulingMode
	// SelfDependency is the reaction to a PRIORITY frame that makes a
	// stream depend on itself. RFC 7540 calls for RST_STREAM.
	SelfDependency Reaction

	// --- Server push (Table III row 10; Section V-F) ---

	// EnablePush turns on PUSH_PROMISE for resources with a push manifest.
	EnablePush bool

	// --- HPACK (Table III row 13; Figs. 4, 5) ---

	// HPACKPolicy selects response-header indexing. PolicyNoDynamicInsert
	// reproduces the Nginx/Tengine "support*" behavior.
	HPACKPolicy hpack.IndexingPolicy
	// HPACKPartialFraction is the indexed-name fraction used with
	// PolicyIndexPartial; ignored otherwise. HPACKPartialSalt varies which
	// names fall in the indexed subset.
	HPACKPartialFraction float64
	HPACKPartialSalt     uint32

	// --- PING (Table III row 14) ---

	// AnswerPing controls PING ACK generation (all testbed servers comply).
	AnswerPing bool
}

// settings renders the profile's SETTINGS frame payload.
func (p *Profile) settings() []frame.Setting {
	if p.OmitSettings {
		return nil
	}
	var out []frame.Setting
	if p.HeaderTableSize != frame.DefaultHeaderTableSize {
		out = append(out, frame.Setting{ID: frame.SettingHeaderTableSize, Val: p.HeaderTableSize})
	}
	if p.AdvertiseMaxStreams {
		out = append(out, frame.Setting{ID: frame.SettingMaxConcurrentStreams, Val: p.MaxConcurrentStreams})
	}
	if p.InitialWindowSize != frame.DefaultInitialWindowSize {
		out = append(out, frame.Setting{ID: frame.SettingInitialWindowSize, Val: p.InitialWindowSize})
	}
	if p.MaxFrameSize != frame.DefaultMaxFrameSize {
		out = append(out, frame.Setting{ID: frame.SettingMaxFrameSize, Val: p.MaxFrameSize})
	}
	if p.MaxHeaderListSize != 0 {
		out = append(out, frame.Setting{ID: frame.SettingMaxHeaderListSize, Val: p.MaxHeaderListSize})
	}
	return out
}

// base returns the knobs shared by a fully RFC-compliant server; the six
// testbed constructors override from here.
func base(name, family string) Profile {
	return Profile{
		Name:                    name,
		Family:                  family,
		SupportsALPN:            true,
		SupportsNPN:             true,
		HeaderTableSize:         frame.DefaultHeaderTableSize,
		MaxConcurrentStreams:    128,
		AdvertiseMaxStreams:     true,
		InitialWindowSize:       frame.DefaultInitialWindowSize,
		MaxFrameSize:            frame.DefaultMaxFrameSize,
		TinyWindow:              TinyWindowComply,
		ZeroWindowUpdateStream:  ReactRSTStream,
		ZeroWindowUpdateConn:    ReactGoAway,
		LargeWindowUpdateStream: ReactRSTStream,
		LargeWindowUpdateConn:   ReactGoAway,
		Scheduling:              SchedPriority,
		SelfDependency:          ReactRSTStream,
		HPACKPolicy:             hpack.PolicyIndexAll,
		AnswerPing:              true,
	}
}

// NginxProfile reproduces Nginx v1.9.15 as characterized in Table III:
// round-robin scheduling (priority test fails), no push, zero window
// updates ignored at both levels, RST_STREAM on self-dependency, and no
// dynamic-table indexing of response headers ("support*" HPACK). Nginx also
// advertises a zero initial window and immediately reopens it with
// WINDOW_UPDATE frames (Table V).
func NginxProfile() Profile {
	p := base("nginx/1.9.15", "nginx")
	p.MaxConcurrentStreams = 128
	p.InitialWindowSize = 0
	p.ConnWindowBoost = 2147418112 // 2^31 - 1 - 65,535: reopen to the max
	p.StreamWindowBoost = 2147418112
	p.ZeroWindowUpdateStream = ReactIgnore
	p.ZeroWindowUpdateConn = ReactIgnore
	p.Scheduling = SchedRoundRobin
	p.SelfDependency = ReactRSTStream
	p.EnablePush = false
	p.HPACKPolicy = hpack.PolicyNoDynamicInsert
	return p
}

// LiteSpeedProfile reproduces LiteSpeed v5.0.11: the only testbed server
// that applies flow control to HEADERS frames, ignores self-dependent
// PRIORITY frames, answers zero stream window updates with RST_STREAM, and
// does not push.
func LiteSpeedProfile() Profile {
	p := base("LiteSpeed", "litespeed")
	p.MaxConcurrentStreams = 100
	p.FlowControlHeaders = true
	p.ZeroWindowUpdateStream = ReactRSTStream
	p.ZeroWindowUpdateConn = ReactGoAway
	p.Scheduling = SchedRoundRobin
	p.SelfDependency = ReactIgnore
	p.EnablePush = false
	return p
}

// H2OProfile reproduces H2O v1.6.2: priority scheduling passes, push is
// supported, zero stream window update answered with RST_STREAM, and
// self-dependency treated (non-compliantly) as a connection error.
func H2OProfile() Profile {
	p := base("h2o/1.6.2", "h2o")
	p.MaxConcurrentStreams = 100
	p.ZeroWindowUpdateStream = ReactRSTStream
	p.ZeroWindowUpdateConn = ReactGoAway
	p.Scheduling = SchedPriority
	p.SelfDependency = ReactGoAway
	p.EnablePush = true
	p.InitialWindowSize = 1048576
	return p
}

// NghttpdProfile reproduces nghttpd v1.12.0: priority scheduling passes,
// push is supported, and zero window updates at *either* level are answered
// with GOAWAY (stream-level GOAWAY is non-compliant).
func NghttpdProfile() Profile {
	p := base("nghttpd nghttp2/1.12.0", "nghttpd")
	p.MaxConcurrentStreams = 100
	p.ZeroWindowUpdateStream = ReactGoAway
	p.ZeroWindowUpdateConn = ReactGoAway
	p.Scheduling = SchedPriority
	p.SelfDependency = ReactGoAway
	p.EnablePush = true
	return p
}

// TengineProfile reproduces Tengine v2.1.2, the Alibaba Nginx fork; its
// HTTP/2 behavior tracks Nginx.
func TengineProfile() Profile {
	p := NginxProfile()
	p.Name = "Tengine"
	p.Family = "tengine"
	return p
}

// ApacheProfile reproduces Apache httpd v2.4.23 (mod_http2): the only
// testbed server without NPN, priority scheduling passes, push is
// supported, zero window updates answered with GOAWAY at both levels, and
// self-dependency treated as a connection error.
func ApacheProfile() Profile {
	p := base("Apache/2.4.23", "apache")
	p.SupportsNPN = false
	p.MaxConcurrentStreams = 100
	p.ZeroWindowUpdateStream = ReactGoAway
	p.ZeroWindowUpdateConn = ReactGoAway
	p.Scheduling = SchedPriority
	p.SelfDependency = ReactGoAway
	p.EnablePush = true
	return p
}

// TestbedProfiles returns the six server profiles of the paper's testbed in
// Table III column order.
func TestbedProfiles() []Profile {
	return []Profile{
		NginxProfile(),
		LiteSpeedProfile(),
		H2OProfile(),
		NghttpdProfile(),
		TengineProfile(),
		ApacheProfile(),
	}
}

// ProfileByName returns the testbed profile whose family is name, matched
// case-insensitively.
func ProfileByName(name string) (Profile, error) {
	for _, p := range TestbedProfiles() {
		if strings.EqualFold(p.Family, name) {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("unknown profile %q (want nginx, litespeed, h2o, nghttpd, tengine, or apache)", name)
}
