package fingerprint

import (
	"fmt"
	"strings"

	"h2scope/internal/frame"
	"h2scope/internal/hpack"
)

// ClientProfile describes how one real-world HTTP/2 client behaves on the
// wire: the SETTINGS it sends (order and values), the connection-level
// WINDOW_UPDATE it issues after the preface, any PRIORITY frames, the
// pseudo-header order of its requests, and characteristic plain headers.
// h2conn uses profiles to impersonate clients; the test suite uses the
// same profiles as the expected values a fingerprinting server should
// read back.
type ClientProfile struct {
	// Name identifies the profile ("chrome", "firefox", "curl", "go").
	Name string
	// Settings is the initial SETTINGS list, in the order the client
	// writes it.
	Settings []frame.Setting
	// ConnWindowDelta is the connection-level WINDOW_UPDATE increment
	// sent right after SETTINGS (0 = none).
	ConnWindowDelta uint32
	// Priorities are PRIORITY frames sent before the first request.
	Priorities []H2Priority
	// PseudoOrder is the request pseudo-header order.
	PseudoOrder []string
	// Headers are characteristic plain request headers (user-agent and
	// friends), appended after the pseudo-headers in this order.
	Headers []hpack.HeaderField
}

// Expected returns the H2Fingerprint a passive observer should assemble
// from a faithful impersonation of this profile.
func (p *ClientProfile) Expected() *H2Fingerprint {
	return &H2Fingerprint{
		Settings:     append([]frame.Setting(nil), p.Settings...),
		WindowUpdate: p.ConnWindowDelta,
		Priorities:   append([]H2Priority(nil), p.Priorities...),
		PseudoOrder:  append([]string(nil), p.PseudoOrder...),
	}
}

// ExpectedAkamai is the akamai-format string Expected renders to.
func (p *ClientProfile) ExpectedAkamai() string { return p.Expected().Akamai() }

// Pseudo-header order shorthands.
var (
	orderMASP = []string{":method", ":authority", ":scheme", ":path"}
	orderMPAS = []string{":method", ":path", ":authority", ":scheme"}
	orderMPSA = []string{":method", ":path", ":scheme", ":authority"}
)

// ChromeProfile models Chrome's h2 preamble: five SETTINGS, a ~15 MB
// connection window bump, no standalone PRIORITY frames, and the
// distinctive m,a,s,p pseudo-header order.
func ChromeProfile() *ClientProfile {
	return &ClientProfile{
		Name: "chrome",
		Settings: []frame.Setting{
			{ID: frame.SettingHeaderTableSize, Val: 65536},
			{ID: frame.SettingEnablePush, Val: 0},
			{ID: frame.SettingMaxConcurrentStreams, Val: 1000},
			{ID: frame.SettingInitialWindowSize, Val: 6291456},
			{ID: frame.SettingMaxHeaderListSize, Val: 262144},
		},
		ConnWindowDelta: 15663105,
		PseudoOrder:     orderMASP,
		Headers: []hpack.HeaderField{
			{Name: "user-agent", Value: "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/120.0.0.0 Safari/537.36"},
			{Name: "accept", Value: "text/html,application/xhtml+xml,application/xml;q=0.9,*/*;q=0.8"},
			{Name: "accept-language", Value: "en-US,en;q=0.9"},
		},
	}
}

// FirefoxProfile models Firefox: three SETTINGS, a ~12 MB window bump,
// and its signature priority tree built with six PRIORITY frames on
// odd placeholder streams, with m,p,a,s pseudo-header order.
func FirefoxProfile() *ClientProfile {
	return &ClientProfile{
		Name: "firefox",
		Settings: []frame.Setting{
			{ID: frame.SettingHeaderTableSize, Val: 65536},
			{ID: frame.SettingInitialWindowSize, Val: 131072},
			{ID: frame.SettingMaxFrameSize, Val: 16384},
		},
		ConnWindowDelta: 12517377,
		Priorities: []H2Priority{
			{StreamID: 3, DepStream: 0, Weight: 200},
			{StreamID: 5, DepStream: 0, Weight: 100},
			{StreamID: 7, DepStream: 0, Weight: 0},
			{StreamID: 9, DepStream: 7, Weight: 0},
			{StreamID: 11, DepStream: 3, Weight: 0},
			{StreamID: 13, DepStream: 0, Weight: 240},
		},
		PseudoOrder: orderMPAS,
		Headers: []hpack.HeaderField{
			{Name: "user-agent", Value: "Mozilla/5.0 (X11; Linux x86_64; rv:121.0) Gecko/20100101 Firefox/121.0"},
			{Name: "accept", Value: "text/html,application/xhtml+xml,application/xml;q=0.9,*/*;q=0.8"},
			{Name: "accept-language", Value: "en-US,en;q=0.5"},
		},
	}
}

// CurlProfile models curl with nghttp2: two SETTINGS and a ~1 GB window
// bump, no priorities, m,p,s,a pseudo-header order.
func CurlProfile() *ClientProfile {
	return &ClientProfile{
		Name: "curl",
		Settings: []frame.Setting{
			{ID: frame.SettingMaxConcurrentStreams, Val: 100},
			{ID: frame.SettingInitialWindowSize, Val: 10485760},
		},
		ConnWindowDelta: 1048510465,
		PseudoOrder:     orderMPSA,
		Headers: []hpack.HeaderField{
			{Name: "user-agent", Value: "curl/8.5.0"},
			{Name: "accept", Value: "*/*"},
		},
	}
}

// GoNetHTTPProfile models Go's net/http x/net/http2 transport: three
// SETTINGS and the 1 GiB transportDefaultConnFlow window bump, m,p,a,s
// pseudo-header order.
func GoNetHTTPProfile() *ClientProfile {
	return &ClientProfile{
		Name: "go",
		Settings: []frame.Setting{
			{ID: frame.SettingEnablePush, Val: 0},
			{ID: frame.SettingInitialWindowSize, Val: 4194304},
			{ID: frame.SettingMaxHeaderListSize, Val: 10485760},
		},
		ConnWindowDelta: 1073741824,
		PseudoOrder:     orderMPAS,
		Headers: []hpack.HeaderField{
			{Name: "user-agent", Value: "Go-http-client/2.0"},
			{Name: "accept-encoding", Value: "gzip"},
		},
	}
}

// BuiltinProfiles returns the impersonation catalog in a stable order.
func BuiltinProfiles() []*ClientProfile {
	return []*ClientProfile{CurlProfile(), ChromeProfile(), FirefoxProfile(), GoNetHTTPProfile()}
}

// ProfileByName resolves a profile by its Name, case-insensitively.
func ProfileByName(name string) (*ClientProfile, error) {
	for _, p := range BuiltinProfiles() {
		if strings.EqualFold(p.Name, name) {
			return p, nil
		}
	}
	return nil, fmt.Errorf("fingerprint: unknown client profile %q (want curl, chrome, firefox, or go)", name)
}
