package fingerprint

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadHello reads a canned ClientHello hex fixture from testdata. The
// fixtures were built independently from RFC 8446's wire grammar (and the
// expected strings below derived by hand from the JA3/JA4 specs), so the
// test checks the parser against the format, not against itself.
func loadHello(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("fixture %s: %v", name, err)
	}
	data, err := hex.DecodeString(strings.Join(strings.Fields(string(raw)), ""))
	if err != nil {
		t.Fatalf("fixture %s: bad hex: %v", name, err)
	}
	return data
}

// golden holds the hand-derived reference strings per fixture.
var golden = []struct {
	fixture  string
	ja3      string
	ja3Hash  string
	ja4      string
	sni      string
	alpn     []string
	ciphers  int // raw count, GREASE included
	grease   bool
	versions int
}{
	{
		fixture: "chrome.hex",
		ja3:     "771,4865-4866-4867-49195-49199-49196-49200-52393-52392-49171-49172-156-157-47-53,0-23-65281-10-11-35-16-5-13-18-51-45-43-27-17513-21,29-23-24,0",
		ja3Hash: "cd08e31494f9531f560d64c695473da9",
		ja4:     "t13d1516h2_8daaf6152771_e5627efa2ab1",
		sni:     "example.com",
		alpn:    []string{"h2", "http/1.1"},
		ciphers: 16, grease: true, versions: 3,
	},
	{
		fixture: "curl.hex",
		ja3:     "771,49196-49200-159-52393-52392-52394-49195-49199-158-49188-49192-107-49187-49191-103-49162-49172-57-49161-49171-51-157-156-61-60-53-47-255,0-11-10-35-22-23-13-16,29-23-30-25-24,0-1-2",
		ja3Hash: "38256a71363b37aca0317a1ca40ea791",
		ja4:     "t12d2808h2_d943125447b4_a8cc486ca5dc",
		sni:     "example.com",
		alpn:    []string{"h2", "http/1.1"},
		ciphers: 28, grease: false, versions: 0,
	},
	{
		fixture: "go.hex",
		ja3:     "771,4865-4866-4867-49195-49199-49196-49200-52393-52392-49161-49171-49162-49172-156-157-47-53,0-5-10-11-13-65281-16-18-35-23-43-51,29-23-24-25,0",
		ja3Hash: "07ad9424d16974c2c0487f005ee14d03",
		ja4:     "t13d1712h2_5b57614c22b0_2dd10c1a5aba",
		sni:     "example.com",
		alpn:    []string{"h2", "http/1.1"},
		ciphers: 17, grease: false, versions: 2,
	},
}

func TestGoldenVectors(t *testing.T) {
	for _, g := range golden {
		t.Run(g.fixture, func(t *testing.T) {
			hello, err := ParseClientHello(loadHello(t, g.fixture))
			if err != nil {
				t.Fatalf("ParseClientHello: %v", err)
			}
			if got := hello.JA3(); got != g.ja3 {
				t.Errorf("JA3\n got %s\nwant %s", got, g.ja3)
			}
			if got := hello.JA3Hash(); got != g.ja3Hash {
				t.Errorf("JA3Hash = %s, want %s", got, g.ja3Hash)
			}
			if got := hello.JA4(); got != g.ja4 {
				t.Errorf("JA4 = %s, want %s", got, g.ja4)
			}
			if hello.ServerName != g.sni {
				t.Errorf("ServerName = %q, want %q", hello.ServerName, g.sni)
			}
			if len(hello.ALPN) != len(g.alpn) || hello.ALPN[0] != g.alpn[0] {
				t.Errorf("ALPN = %v, want %v", hello.ALPN, g.alpn)
			}
			if len(hello.CipherSuites) != g.ciphers {
				t.Errorf("raw cipher count = %d, want %d", len(hello.CipherSuites), g.ciphers)
			}
			if len(hello.SupportedVersions) != g.versions {
				t.Errorf("supported_versions count = %d, want %d", len(hello.SupportedVersions), g.versions)
			}
			hasGREASE := false
			for _, c := range hello.CipherSuites {
				hasGREASE = hasGREASE || IsGREASE(c)
			}
			if hasGREASE != g.grease {
				t.Errorf("GREASE in ciphers = %v, want %v", hasGREASE, g.grease)
			}
		})
	}
}

// TestParseBareHandshake strips the record layer: the parser must accept
// a handshake message directly (the GetConfigForClient path sees no
// records).
func TestParseBareHandshake(t *testing.T) {
	rec := loadHello(t, "chrome.hex")
	bare := rec[5:]
	fromRecord, err := ParseClientHello(rec)
	if err != nil {
		t.Fatalf("record parse: %v", err)
	}
	fromBare, err := ParseClientHello(bare)
	if err != nil {
		t.Fatalf("bare parse: %v", err)
	}
	if fromBare.JA3() != fromRecord.JA3() {
		t.Errorf("bare JA3 %s != record JA3 %s", fromBare.JA3(), fromRecord.JA3())
	}
}

// TestParseFragmentedRecords splits the hello across two TLS records; the
// reassembler must produce the same fingerprint.
func TestParseFragmentedRecords(t *testing.T) {
	rec := loadHello(t, "chrome.hex")
	payload := rec[5:]
	cut := len(payload) / 3
	frag := func(p []byte) []byte {
		return append([]byte{0x16, 0x03, 0x01, byte(len(p) >> 8), byte(len(p))}, p...)
	}
	split := append(frag(payload[:cut]), frag(payload[cut:])...)
	whole, err := ParseClientHello(rec)
	if err != nil {
		t.Fatalf("whole parse: %v", err)
	}
	parts, err := ParseClientHello(split)
	if err != nil {
		t.Fatalf("fragmented parse: %v", err)
	}
	if parts.JA4() != whole.JA4() {
		t.Errorf("fragmented JA4 %s != whole JA4 %s", parts.JA4(), whole.JA4())
	}
}

func TestParseErrors(t *testing.T) {
	rec := loadHello(t, "curl.hex")
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"not-handshake", []byte{0x17, 0x03, 0x03, 0x00, 0x01, 0x00}},
		{"short-record", rec[:4]},
		{"truncated-body", rec[:len(rec)/2]},
		{"zero-length-record", []byte{0x16, 0x03, 0x01, 0x00, 0x00}},
		{"server-hello", append([]byte{0x16, 0x03, 0x03, 0x00, 0x05, 0x02}, 0, 0, 1, 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if hello, err := ParseClientHello(tc.data); err == nil {
				t.Errorf("parse succeeded (%v), want error", hello)
			}
		})
	}
}

// TestGREASETable pins the GREASE predicate to RFC 8701's 16 values.
func TestGREASETable(t *testing.T) {
	n := 0
	for v := 0; v <= 0xffff; v++ {
		if IsGREASE(uint16(v)) {
			n++
			if byte(v)&0x0f != 0x0a {
				t.Fatalf("IsGREASE(%#04x) = true", v)
			}
		}
	}
	if n != 16 {
		t.Errorf("GREASE value count = %d, want 16", n)
	}
}

// TestJA4NoSNINoALPN checks the i marker and empty-ALPN placeholder.
func TestJA4NoSNINoALPN(t *testing.T) {
	hello, err := ParseClientHello(loadHello(t, "curl.hex"))
	if err != nil {
		t.Fatal(err)
	}
	hello.ServerName = ""
	hello.ALPN = nil
	ja4 := hello.JA4()
	if !strings.HasPrefix(ja4, "t12i2808") {
		t.Errorf("JA4 without SNI = %s, want t12i2808... prefix", ja4)
	}
	if !strings.HasPrefix(ja4[8:], "00_") {
		t.Errorf("JA4 without ALPN = %s, want 00 marker", ja4)
	}
}

// TestExtensionIDsMatchIANA spells the extension codes out a second time, as
// literals from the IANA "TLS ExtensionType Values" registry: a wrong code
// makes the parser read the wrong extension body into every JA3/JA4 string.
func TestExtensionIDsMatchIANA(t *testing.T) {
	for _, c := range []struct {
		name string
		got  ExtensionID
		want uint16
	}{
		{"server_name", ExtServerName, 0}, {"supported_groups", ExtSupportedGroups, 10},
		{"ec_point_formats", ExtECPointFormats, 11}, {"signature_algorithms", ExtSignatureAlgorithms, 13},
		{"application_layer_protocol_negotiation", ExtALPN, 16}, {"supported_versions", ExtSupportedVersions, 43},
	} {
		if uint16(c.got) != c.want {
			t.Errorf("%s = %d, IANA assigns %d", c.name, c.got, c.want)
		}
	}
}
