// Package stats provides the summary statistics and series formatting used by
// the ACACIA experiment harness: means, standard deviations, percentiles,
// and aligned table output mirroring the rows and series the paper reports.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sample accumulates float64 observations and answers summary queries.
// The zero value is an empty sample ready for use.
//
// Past flatMax observations, Add never regrows: later ones fill fixed
// blocks, so a large sample allocates about the bytes it holds instead of
// the ~5x a regrown slice copies (DESIGN.md §3f). The first order-dependent
// query after blocks exist copies xs and the blocks, in order, into one
// exact-size slice, sorts it, and keeps it as xs.
type Sample struct {
	xs     []float64   // the first observations, or the sorted flattening
	blocks [][]float64 // later observations, full length; the last is filled to tail
	tail   int
	n      int
	sorted bool
}

const (
	// flatMax is the xs capacity past which Add starts blocks.
	flatMax = 1024
	// blockMax caps a block at 64 KiB.
	blockMax = 8192
)

// Add appends an observation.
//
//acacia:hotpath
func (s *Sample) Add(x float64) {
	s.n++
	s.sorted = false
	if s.blocks == nil && (len(s.xs) < cap(s.xs) || cap(s.xs) < flatMax) {
		s.xs = append(s.xs, x)
		return
	}
	if s.blocks == nil || s.tail == len(s.blocks[len(s.blocks)-1]) {
		s.grow()
	}
	s.blocks[len(s.blocks)-1][s.tail] = x
	s.tail++
}

// grow appends an empty block sized to the sample so far, up to blockMax.
// Noinline keeps the allocation out of Add's escape profile.
//
//go:noinline
func (s *Sample) grow() {
	s.blocks = append(s.blocks, make([]float64, min(s.n, blockMax)))
	s.tail = 0
}

// each calls f on every observation in Values order, as of the call: a
// sample merging itself copies only what it held before.
func (s *Sample) each(f func(float64)) {
	xs, blocks, tail := s.xs, s.blocks, s.tail
	for _, x := range xs {
		f(x)
	}
	for i, b := range blocks {
		if i == len(blocks)-1 {
			b = b[:tail]
		}
		for _, x := range b {
			f(x)
		}
	}
}

// AddAll appends all observations in xs.
func (s *Sample) AddAll(xs ...float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

// N reports the number of observations.
func (s *Sample) N() int { return s.n }

// Merge appends all of other's observations to s, leaving other unchanged.
// It lets concurrent trials accumulate partial samples that are combined
// deterministically afterwards. s.Merge(s) doubles s.
func (s *Sample) Merge(other *Sample) {
	if other != nil {
		other.each(s.Add)
	}
}

// Values returns a copy of the observations. The copy is in insertion order
// until the first order-dependent query (Min, Max, Median, Percentile)
// sorts the sample, after which it is the ascending prefix followed by any
// later observations; callers should treat the result as an unordered
// multiset.
func (s *Sample) Values() []float64 {
	out := make([]float64, 0, s.n)
	s.each(func(x float64) { out = append(out, x) })
	return out
}

// Mean reports the arithmetic mean, or 0 for an empty sample. It sums in
// Values order.
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	var sum float64
	s.each(func(x float64) { sum += x })
	return sum / float64(s.n)
}

// sort leaves every observation in xs, ascending.
func (s *Sample) sort() {
	if s.sorted {
		return
	}
	if s.blocks != nil {
		s.xs = s.Values()
		s.blocks, s.tail = nil, 0
	}
	sort.Float64s(s.xs)
	s.sorted = true
}

// Min reports the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if s.n == 0 {
		return 0
	}
	s.sort()
	return s.xs[0]
}

// Max reports the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if s.n == 0 {
		return 0
	}
	s.sort()
	return s.xs[s.n-1]
}

// Percentile reports the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. An empty sample reports 0 for any
// p; otherwise a NaN p reports NaN.
func (s *Sample) Percentile(p float64) float64 {
	if s.n == 0 {
		return 0
	}
	if math.IsNaN(p) {
		return math.NaN()
	}
	if p <= 0 {
		return s.Min()
	}
	if p >= 100 {
		return s.Max()
	}
	s.sort()
	rank := p / 100 * float64(s.n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median reports the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// Table renders aligned experiment output: a header row plus data rows, with
// columns padded to the widest cell. It is how every experiment prints its
// figure/table series.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row of cells, formatting each with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders f with precision appropriate to its magnitude, so both
// millisecond latencies and multi-hundred-Mbps rates read naturally.
func FormatFloat(f float64) string {
	switch {
	case f == 0:
		return "0"
	case math.Abs(f) >= 1000:
		return fmt.Sprintf("%.0f", f)
	case math.Abs(f) >= 10:
		return fmt.Sprintf("%.1f", f)
	case math.Abs(f) >= 1:
		return fmt.Sprintf("%.2f", f)
	case math.Abs(f) >= 0.001:
		return fmt.Sprintf("%.4f", f)
	default:
		return fmt.Sprintf("%.3g", f)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for _, row := range t.rows() {
		for i, c := range row {
			if i < len(widths) {
				widths[i] = max(widths[i], len(c))
			}
		}
	}
	return t.render("  ", func(b *strings.Builder, i int, c string, last bool) {
		b.WriteString(c)
		if i < len(widths) && !last {
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
	})
}

// CSV renders the table as comma-separated values (header + rows), with
// cells containing commas or quotes escaped per RFC 4180. The title is
// emitted as a comment line.
func (t *Table) CSV() string {
	return t.render(",", func(b *strings.Builder, _ int, c string, _ bool) {
		if strings.ContainsAny(c, ",\"\n") {
			c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
		}
		b.WriteString(c)
	})
}

// rows lists the header row, then the data rows.
func (t *Table) rows() [][]string { return append([][]string{t.Header}, t.Rows...) }

// render writes the title as a "# " comment line, then every row, its
// cells separated by sep and each written by cell.
func (t *Table) render(sep string, cell func(b *strings.Builder, i int, c string, last bool)) string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString("# " + t.Title + "\n")
	}
	for _, row := range t.rows() {
		for i, c := range row {
			if i > 0 {
				b.WriteString(sep)
			}
			cell(&b, i, c, i == len(row)-1)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Ratio reports a/b, or 0 when b is 0; a convenience for speedup columns.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
