package server_test

import (
	"strings"
	"testing"

	"h2scope/internal/hpack"
	"h2scope/internal/server"
)

func TestProfileJSONRoundTrip(t *testing.T) {
	for _, p := range server.TestbedProfiles() {
		p := p
		t.Run(p.Family, func(t *testing.T) {
			data, err := server.MarshalProfile(p)
			if err != nil {
				t.Fatalf("MarshalProfile: %v", err)
			}
			back, err := server.UnmarshalProfile(data)
			if err != nil {
				t.Fatalf("UnmarshalProfile: %v", err)
			}
			if back != p {
				t.Errorf("round trip changed profile:\n got %+v\nwant %+v", back, p)
			}
		})
	}
}

func TestProfileJSONHumanReadableEnums(t *testing.T) {
	data, err := server.MarshalProfile(server.NginxProfile())
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"ignore"`, `"round-robin"`, `"comply"`, `"no-dynamic-insert"`, `"RST_STREAM"`} {
		if !strings.Contains(s, want) {
			t.Errorf("serialized profile missing %s:\n%s", want, s)
		}
	}
}

func TestProfileJSONPartialPolicy(t *testing.T) {
	p := server.H2OProfile()
	p.HPACKPolicy = hpack.PolicyIndexPartial
	p.HPACKPartialFraction = 0.4
	p.HPACKPartialSalt = 7
	data, err := server.MarshalProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := server.UnmarshalProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.HPACKPolicy != hpack.PolicyIndexPartial || back.HPACKPartialFraction != 0.4 || back.HPACKPartialSalt != 7 {
		t.Errorf("partial policy lost: %+v", back)
	}
}

func TestProfileJSONRejectsGarbage(t *testing.T) {
	if _, err := server.UnmarshalProfile([]byte(`{"HPACKPolicy":"nope"}`)); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := server.UnmarshalProfile([]byte(`{"Scheduling":"warp-speed"}`)); err == nil {
		t.Error("unknown scheduling mode accepted")
	}
	if _, err := server.UnmarshalProfile([]byte(`not json`)); err == nil {
		t.Error("non-JSON accepted")
	}
	data, err := server.MarshalProfile(server.NginxProfile())
	if err != nil {
		t.Fatal(err)
	}
	// A misspelt key and a removed one: each would leave a default in force.
	for _, key := range []string{`"AnswerPIng": false`, `"FingerprintAdaptive": true`} {
		edited := strings.Replace(string(data), "{", "{\n  "+key+",", 1)
		if _, err := server.UnmarshalProfile([]byte(edited)); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("profile with %s: err = %v, want an unknown-field error", key, err)
		}
	}
}
