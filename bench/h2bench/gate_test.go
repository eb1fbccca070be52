package main

import (
	"slices"
	"strings"
	"testing"
)

func TestGateRejectsWrongGoldenRow(t *testing.T) {
	golden, err := goldenTable3()
	if err != nil {
		t.Fatal(err)
	}
	wrong := &table3{Families: golden.Families, Checks: golden.Checks}
	for _, row := range golden.Cells {
		wrong.Cells = append(wrong.Cells, slices.Clone(row))
	}
	row := slices.Index(golden.Checks, "Zero Window Update on stream")
	col := slices.Index(golden.Families, "nginx")
	if row < 0 || col < 0 {
		t.Fatal("golden Table III lacks the row or column this test edits")
	}
	wrong.Cells[row][col] = "GOAWAY" // the paper (and the server) say "ignore"
	err = checkTable3(wrong)
	if err == nil {
		t.Fatal("gate passed against a golden copy with a wrong cell")
	}
	for _, want := range []string{"Zero Window Update on stream", "nginx", `"ignore"`, `"GOAWAY"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("gate error %q does not name %s", err, want)
		}
	}

	if d := golden.diff(&table3{Families: golden.Families[1:], Checks: golden.Checks}); len(d) == 0 {
		t.Error("diff accepted a matrix with a column missing")
	}
}

func TestGateRejectsWrongBody(t *testing.T) {
	bs := buildSite(1)
	fx, err := newFixture(bs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.close()
	expected := slices.Clone(bs.Small[:16])
	if err := fetchAll(fx, expected); err != nil {
		t.Fatalf("true expectations: %v", err)
	}

	truncated := slices.Clone(expected)
	truncated[5].Body = truncated[5].Body[:len(truncated[5].Body)-1]
	if err := fetchAll(fx, truncated); err == nil || !strings.Contains(err.Error(), truncated[5].Path) {
		t.Errorf("truncated expected body: got %v, want an error naming %s", err, truncated[5].Path)
	}

	flipped := slices.Clone(expected)
	flipped[9].Body = slices.Clone(flipped[9].Body)
	flipped[9].Body[len(flipped[9].Body)/2] ^= 1
	if err := fetchAll(fx, flipped); err == nil || !strings.Contains(err.Error(), flipped[9].Path) {
		t.Errorf("one flipped byte, same length: got %v, want an error naming %s", err, flipped[9].Path)
	}
}
