// Package stats provides the small statistical and rendering toolkit the
// measurement harness uses: empirical CDFs (every figure in the paper's
// evaluation is a CDF or a distribution table), quantiles, and fixed-width
// table formatting for terminal output.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution over float64 samples, held as
// the distinct values and how many samples lie at or below each: its size
// follows the values a sample takes, not how many samples there were.
type CDF struct {
	values    []float64 // distinct, ascending
	atOrBelow []int     // atOrBelow[i] samples are <= values[i]
}

// NewCDF builds a CDF from samples.
func NewCDF(samples []float64) *CDF {
	counts := make(map[float64]int)
	for _, v := range samples {
		counts[v]++
	}
	return NewCDFCounts(counts)
}

// NewCDFCounts builds the CDF of the sample that holds each key of counts as
// many times as its count says.
func NewCDFCounts(counts map[float64]int) *CDF {
	c := &CDF{values: make([]float64, 0, len(counts)), atOrBelow: make([]int, 0, len(counts))}
	for v := range counts {
		c.values = append(c.values, v)
	}
	sort.Float64s(c.values)
	n := 0
	for _, v := range c.values {
		n += counts[v]
		c.atOrBelow = append(c.atOrBelow, n)
	}
	return c
}

// Len returns the sample count.
func (c *CDF) Len() int {
	if len(c.atOrBelow) == 0 {
		return 0
	}
	return c.atOrBelow[len(c.atOrBelow)-1]
}

// Quantile returns the q-quantile (0 <= q <= 1) by nearest-rank: the sample
// at index int(q*Len) of the sorted sample.
func (c *CDF) Quantile(q float64) float64 {
	n := c.Len()
	if n == 0 {
		return 0
	}
	idx := min(max(int(q*float64(n)), 0), n-1)
	return c.values[sort.SearchInts(c.atOrBelow, idx+1)]
}

// FormatTable renders a fixed-width text table.
func FormatTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// AsciiCDF renders one or more CDF series as a rough terminal plot: rows
// are probability levels, columns the series' x-values at that level.
func AsciiCDF(names []string, cdfs []*CDF, levels []float64, format string) string {
	headers := append([]string{"CDF"}, names...)
	rows := make([][]string, 0, len(levels))
	for _, q := range levels {
		row := []string{fmt.Sprintf("%.2f", q)}
		for _, c := range cdfs {
			row = append(row, fmt.Sprintf(format, c.Quantile(q)))
		}
		rows = append(rows, row)
	}
	return FormatTable(headers, rows)
}
