// Package metrics provides the small statistics toolkit used by the
// evaluation harness: empirical CDFs (Fig. 11), five-number box-plot
// summaries (Fig. 9), aggregate counters with confidence-free means
// (Figs. 7, 8, 10), and fixed-width text rendering for terminal reports.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary is a five-number box-plot summary plus the mean.
type Summary struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
}

// Summarize computes the summary of xs (xs is not modified). An empty
// input yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	total := 0.0
	for _, x := range s {
		total += x
	}
	return Summary{
		N:      len(s),
		Min:    s[0],
		Q1:     quantileSorted(s, 0.25),
		Median: quantileSorted(s, 0.5),
		Q3:     quantileSorted(s, 0.75),
		Max:    s[len(s)-1],
		Mean:   total / float64(len(s)),
	}
}

// quantileSorted returns the q-quantile of the sorted, non-empty s by
// linear interpolation between order statistics; q is clamped to [0, 1].
func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds the empirical CDF of xs.
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P[X <= x].
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Inverse returns the smallest x with P[X <= x] >= p.
func (c *CDF) Inverse(p float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return c.sorted[0]
	}
	idx := int(math.Ceil(p*float64(len(c.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.sorted) {
		idx = len(c.sorted) - 1
	}
	return c.sorted[idx]
}

// Points returns (x, P[X <= x]) steps suitable for plotting.
func (c *CDF) Points() [][2]float64 {
	out := make([][2]float64, 0, len(c.sorted))
	for i, x := range c.sorted {
		if i+1 < len(c.sorted) && c.sorted[i+1] == x {
			continue // keep only the last step at each distinct x
		}
		out = append(out, [2]float64{x, float64(i+1) / float64(len(c.sorted))})
	}
	return out
}

// Mean returns the arithmetic mean of xs (NaN when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

// Percent returns 100 * num/den, or 0 when den is zero.
func Percent(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// Table renders rows of cells as aligned fixed-width text with a header,
// for the terminal reports the experiment harness prints.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddRowf appends a row formatting each value with %v (floats with %.4g).
func (t *Table) AddRowf(values ...any) {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			cells[i] = fmt.Sprintf("%.4g", x)
		default:
			cells[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
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
			b.WriteString(cell)
			if i < len(widths) && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as RFC 4180 comma-separated values: cells
// containing commas, double quotes, or line breaks are quoted, with
// embedded quotes doubled. Plain numeric and label cells — everything
// the harness emits today — render unchanged.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvCell(cell))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

func csvCell(s string) string {
	if !strings.ContainsAny(s, ",\"\r\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
