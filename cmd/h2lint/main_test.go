package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const fixture = "internal/lint/testdata/src/retain/a"

func TestListPrintsCatalog(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-list"}, &out); code != 0 {
		t.Fatalf("run(-list) = %d, want 0", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("catalog has %d analyzers, want 3:\n%s", len(lines), out.String())
	}
	for _, want := range []string{"uncheckederr", "retain", "hotalloc"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("catalog is missing %s", want)
		}
	}
}

func TestFindingsExitOneWithJSON(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-json", fixture}, &out); code != 1 {
		t.Fatalf("run on positive fixture = %d, want 1\n%s", code, out.String())
	}
	var rows []struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(out.Bytes(), &rows); err != nil {
		t.Fatalf("output is not the documented JSON schema: %v\n%s", err, out.String())
	}
	if len(rows) == 0 {
		t.Fatal("no findings on a positive fixture")
	}
	for _, r := range rows {
		if r.Analyzer != "retain" {
			t.Errorf("analyzer = %q, want retain", r.Analyzer)
		}
		if want := fixture + "/a.go"; r.File != want {
			t.Errorf("file = %q, want module-relative %q", r.File, want)
		}
		if r.Line <= 0 || r.Col <= 0 {
			t.Errorf("finding has no position: %+v", r)
		}
		if r.Message == "" {
			t.Errorf("finding has no message: %+v", r)
		}
	}
}

func TestDisabledAnalyzerExitsZero(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-retain=false", fixture}, &out); code != 0 {
		t.Fatalf("run with -retain=false = %d, want 0\n%s", code, out.String())
	}
}

func TestLoadErrorExitsTwo(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"no/such/dir"}, &out); code != 2 {
		t.Fatalf("run on missing dir = %d, want 2", code)
	}
}
