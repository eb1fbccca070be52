package fingerprint

import (
	"testing"

	"h2scope/internal/frame"
	"h2scope/internal/hpack"
)

// Reference akamai-format strings for the builtin client profiles,
// written out by hand from the published per-client preambles.
var akamaiGolden = map[string]string{
	"chrome":  "1:65536;2:0;3:1000;4:6291456;6:262144|15663105|0|m,a,s,p",
	"firefox": "1:65536;4:131072;5:16384|12517377|3:0:0:200,5:0:0:100,7:0:0:0,9:0:7:0,11:0:3:0,13:0:0:240|m,p,a,s",
	"curl":    "3:100;4:10485760|1048510465|0|m,p,s,a",
	"go":      "2:0;4:4194304;6:10485760|1073741824|0|m,p,a,s",
}

func TestAkamaiGolden(t *testing.T) {
	for _, p := range BuiltinProfiles() {
		want, ok := akamaiGolden[p.Name]
		if !ok {
			t.Errorf("no golden string for profile %s", p.Name)
			continue
		}
		if got := p.ExpectedAkamai(); got != want {
			t.Errorf("%s akamai\n got %s\nwant %s", p.Name, got, want)
		}
	}
}

// TestAssembler drives the assembler the way the server's frame handlers
// do and checks the assembled fingerprint matches the profile it mimics.
func TestAssembler(t *testing.T) {
	p := FirefoxProfile()
	var a H2Assembler
	a.OnSettings(p.Settings)
	a.OnWindowUpdate(0, p.ConnWindowDelta)
	for _, pr := range p.Priorities {
		a.OnPriority(pr)
	}
	if a.Complete() {
		t.Fatal("complete before first request")
	}
	a.OnRequestHeaders([]hpack.HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":path", Value: "/"},
		{Name: ":authority", Value: "x"},
		{Name: ":scheme", Value: "https"},
		{Name: "user-agent", Value: "test"},
	})
	if !a.Complete() {
		t.Fatal("not complete after first request")
	}
	if got, want := a.Fingerprint().Akamai(), p.ExpectedAkamai(); got != want {
		t.Errorf("assembled akamai\n got %s\nwant %s", got, want)
	}
}

// TestAssemblerFirstWins: only pre-request frames and only the first
// SETTINGS / connection WINDOW_UPDATE count.
func TestAssemblerFirstWins(t *testing.T) {
	var a H2Assembler
	a.OnSettings([]frame.Setting{{ID: frame.SettingEnablePush, Val: 0}})
	a.OnSettings([]frame.Setting{{ID: frame.SettingMaxFrameSize, Val: 1 << 20}})
	a.OnWindowUpdate(3, 999) // stream-level: ignored
	a.OnWindowUpdate(0, 100)
	a.OnWindowUpdate(0, 200) // second conn update: ignored
	a.OnRequestHeaders([]hpack.HeaderField{{Name: ":method", Value: "GET"}, {Name: ":path", Value: "/"}})
	a.OnSettings([]frame.Setting{{ID: frame.SettingHeaderTableSize, Val: 1}}) // post-request: ignored
	a.OnPriority(H2Priority{StreamID: 5})                                     // post-request: ignored
	if got, want := a.Fingerprint().Akamai(), "2:0|100|0|m,p"; got != want {
		t.Errorf("akamai = %s, want %s", got, want)
	}
}

// TestAssemblerPriorityCap bounds fingerprint growth under priority floods.
func TestAssemblerPriorityCap(t *testing.T) {
	var a H2Assembler
	for i := 0; i < 10*maxPriorities; i++ {
		a.OnPriority(H2Priority{StreamID: uint32(2*i + 3)})
	}
	if n := len(a.Fingerprint().Priorities); n != maxPriorities {
		t.Errorf("retained %d priorities, want cap %d", n, maxPriorities)
	}
}

func TestEmptyFingerprint(t *testing.T) {
	var a H2Assembler
	a.OnRequestHeaders(nil)
	if got, want := a.Fingerprint().Akamai(), "|0|0|"; got != want {
		t.Errorf("empty akamai = %q, want %q", got, want)
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("Chrome")
	if err != nil || p.Name != "chrome" {
		t.Errorf("ProfileByName(Chrome) = %v, %v", p, err)
	}
	if _, err := ProfileByName("safari"); err == nil {
		t.Error("ProfileByName(safari) succeeded, want error")
	}
}
