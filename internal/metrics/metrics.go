// Package metrics provides the measurement primitives used by the
// experiment harness: duration/value histograms with percentile queries,
// counters, Gini coefficients for the incentive-fairness experiments, and
// plain-text table/series rendering that cmd/experiments prints.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Histogram accumulates float64 samples and answers percentile queries.
// The zero value is ready to use.
type Histogram struct {
	samples []float64
	sorted  bool
	sum     float64
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.samples = append(h.samples, v)
	h.sum += v
	h.sorted = false
}

// AddDuration records a duration sample in seconds.
func (h *Histogram) AddDuration(d time.Duration) { h.Add(d.Seconds()) }

// Count returns the number of samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / float64(len(h.samples))
}

// Quantile returns the q-quantile (0 <= q <= 1) using nearest-rank
// interpolation, or 0 with no samples.
func (h *Histogram) Quantile(q float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	if q <= 0 {
		return h.samples[0]
	}
	if q >= 1 {
		return h.samples[len(h.samples)-1]
	}
	pos := q * float64(len(h.samples)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return h.samples[lo]
	}
	frac := pos - float64(lo)
	return h.samples[lo]*(1-frac) + h.samples[hi]*frac
}

// Median is Quantile(0.5).
func (h *Histogram) Median() float64 { return h.Quantile(0.5) }

// Gini computes the Gini coefficient of a set of non-negative values:
// 0 = perfectly equal, →1 = maximally concentrated. Used by the incentive
// fairness experiment (E10). Returns 0 for fewer than 2 values or a zero
// total.
func Gini(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	var cum, total float64
	for i, v := range sorted {
		if v < 0 {
			panic("metrics: Gini of negative value")
		}
		cum += v * float64(2*(i+1)-n-1)
		total += v
	}
	if total == 0 {
		return 0
	}
	return cum / (float64(n) * total)
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It panics if the lengths differ, and returns 0 if either side has zero
// variance.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("metrics: Pearson length mismatch")
	}
	n := float64(len(xs))
	if n == 0 {
		return 0
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// Spearman returns the Spearman rank correlation between xs and ys.
func Spearman(xs, ys []float64) float64 {
	return Pearson(ranks(xs), ranks(ys))
}

func ranks(v []float64) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	r := make([]float64, len(v))
	for rank, i := range idx {
		r[i] = float64(rank)
	}
	return r
}

// Table renders experiment results as aligned plain text, the format
// cmd/experiments prints and the experiment goldens record.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; each cell is formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Cell returns the rendered cell at (row, col).
func (t *Table) Cell(row, col int) string { return t.rows[row][col] }

// String renders the table with a title line, a header row, a rule and the
// data rows, columns padded to equal width.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// FormatFloat renders a float compactly: integers without decimals, small
// values with enough precision to be meaningful.
func FormatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.5f", v)
	}
}
