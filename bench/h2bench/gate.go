package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"h2scope"
)

// table3 is the paper's Table III as a matrix: Cells[check][family].
type table3 struct {
	Families []string   `json:"families"`
	Checks   []string   `json:"checks"`
	Cells    [][]string `json:"cells"`
}

//go:embed testdata/table3.golden.json
var goldenTable3JSON []byte

func goldenTable3() (*table3, error) {
	var t table3
	if err := json.Unmarshal(goldenTable3JSON, &t); err != nil {
		return nil, fmt.Errorf("golden Table III: %w", err)
	}
	return &t, nil
}

// measureTable3 re-measures Table III: the full probe battery against the
// six testbed profiles, each served in-process.
func measureTable3() (*table3, error) {
	res, err := h2scope.RunTestbed()
	if err != nil {
		return nil, fmt.Errorf("measuring Table III: %w", err)
	}
	return &table3{Families: res.Families, Checks: res.Checks, Cells: res.Cells}, nil
}

// diff lists the cells where got disagrees with the golden matrix.
func (golden *table3) diff(got *table3) []string {
	if !slices.Equal(golden.Families, got.Families) {
		return []string{fmt.Sprintf("families: got %v, golden %v", got.Families, golden.Families)}
	}
	if !slices.Equal(golden.Checks, got.Checks) {
		return []string{fmt.Sprintf("checks: got %v, golden %v", got.Checks, golden.Checks)}
	}
	var out []string
	for r, check := range golden.Checks {
		for c, family := range golden.Families {
			if got.Cells[r][c] != golden.Cells[r][c] {
				out = append(out, fmt.Sprintf("%s / %s: got %q, golden %q",
					check, family, got.Cells[r][c], golden.Cells[r][c]))
			}
		}
	}
	return out
}

// fetchAll fetches every object in expected once from fx, one request at a
// time, and compares status, length and every byte.
func fetchAll(fx *fixture, expected []object) error {
	i := 0
	d := &driver{
		objects:     expected,
		next:        func() int { i++; return i - 1 },
		timeout:     batchTimeout,
		perRequest:  true,
		verifyEvery: 1,
		readBuf:     64 << 10,
		dial:        fx.dial,
		sink:        &opSink{},
	}
	c, _, err := d.connect()
	if err != nil {
		return err
	}
	defer c.close()
	for range expected {
		if c.dead || c.goaway {
			return fmt.Errorf("connection lost after %d objects: %w", d.sink.allOps, c.err)
		}
		d.runBatch(c, 1)
		if d.sink.allFailed > 0 {
			return fmt.Errorf("object %s: wrong status, length or bytes", expected[d.sink.allOps-1].Path)
		}
	}
	return nil
}

// checkTable3 is the first half of the correctness gate every run passes
// before its first timed op: Table III re-measured over the six testbed
// profiles must equal the golden copy. (The second half is fetchAll over
// every object the serve workloads request.)
func checkTable3(golden *table3) error {
	got, err := measureTable3()
	if err != nil {
		return fmt.Errorf("correctness gate: %w", err)
	}
	if d := golden.diff(got); len(d) > 0 {
		return fmt.Errorf("correctness gate: Table III differs from the golden copy: %s", strings.Join(d, "; "))
	}
	return nil
}
