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

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from samples (copied and sorted).
func NewCDF(samples []float64) *CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len returns the sample count.
func (c *CDF) Len() int { return len(c.sorted) }

// Quantile returns the q-quantile (0 <= q <= 1) by nearest-rank.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := int(q * float64(len(c.sorted)))
	if idx >= len(c.sorted) {
		idx = len(c.sorted) - 1
	}
	return c.sorted[idx]
}

// Mean returns the sample mean.
func (c *CDF) Mean() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	var sum float64
	for _, v := range c.sorted {
		sum += v
	}
	return sum / float64(len(c.sorted))
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
