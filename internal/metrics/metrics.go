// Package metrics provides the formatting and tracking helpers the
// experiment harness uses to print the paper's tables and figures as text:
// aligned tables, named series with ASCII sparklines, unit formatting, and
// time-to-target convergence tracking.
package metrics

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case float32:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// Series is one line of a figure: named (x, y) points.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Mean returns the mean of Y (NaN for empty series).
func (s *Series) Mean() float64 {
	if len(s.Y) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range s.Y {
		sum += v
	}
	return sum / float64(len(s.Y))
}

// Last returns the final Y value (NaN for empty series).
func (s *Series) Last() float64 {
	if len(s.Y) == 0 {
		return math.NaN()
	}
	return s.Y[len(s.Y)-1]
}

// sparkRunes maps normalized values to block characters.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders Y as a compact ASCII strip.
func (s *Series) Sparkline() string {
	if len(s.Y) == 0 {
		return ""
	}
	lo, hi := s.Y[0], s.Y[0]
	for _, v := range s.Y {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range s.Y {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// Figure is a set of series sharing an x-axis, printed as a legend plus
// sparklines and summary statistics.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// NewFigure creates a figure.
func NewFigure(title, xlabel, ylabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// AddSeries creates and returns a new named series.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// Fprint renders the figure: one row per series with sparkline, mean, last.
func (f *Figure) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==  (x: %s, y: %s)\n", f.Title, f.XLabel, f.YLabel)
	nameW := 4
	for _, s := range f.Series {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	for _, s := range f.Series {
		fmt.Fprintf(w, "%-*s  %s  mean=%.4f last=%.4f\n", nameW, s.Name, s.Sparkline(), s.Mean(), s.Last())
	}
}

// FprintPoints renders the figure's raw data as columns (x then one column
// per series), for plotting elsewhere.
func (f *Figure) FprintPoints(w io.Writer) {
	if len(f.Series) == 0 {
		return
	}
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	fmt.Fprintln(w, strings.Join(header, "\t"))
	n := 0
	for _, s := range f.Series {
		if len(s.X) > n {
			n = len(s.X)
		}
	}
	for i := 0; i < n; i++ {
		row := make([]string, 0, len(f.Series)+1)
		x := math.NaN()
		for _, s := range f.Series {
			if i < len(s.X) {
				x = s.X[i]
				break
			}
		}
		row = append(row, fmt.Sprintf("%g", x))
		for _, s := range f.Series {
			if i < len(s.Y) {
				row = append(row, fmt.Sprintf("%.6g", s.Y[i]))
			} else {
				row = append(row, "")
			}
		}
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
}

// FmtBytes renders a byte count with binary units.
func FmtBytes(b int64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%d B", b)
	}
	div, exp := int64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.2f %ciB", float64(b)/float64(div), "KMGTPE"[exp])
}

// FmtPct renders a fraction as a percentage.
func FmtPct(f float64) string { return fmt.Sprintf("%.2f%%", 100*f) }

// FmtDur renders simulated seconds with adaptive units.
func FmtDur(sec float64) string {
	switch {
	case sec < 1e-3:
		return fmt.Sprintf("%.1f µs", sec*1e6)
	case sec < 1:
		return fmt.Sprintf("%.1f ms", sec*1e3)
	case sec < 120:
		return fmt.Sprintf("%.2f s", sec)
	default:
		return fmt.Sprintf("%.1f min", sec/60)
	}
}

// TimeToTarget scans a (time, accuracy) series and returns the first time at
// which accuracy reached target, or NaN if it never did.
func TimeToTarget(times, accs []float64, target float64) float64 {
	for i, a := range accs {
		if a >= target {
			return times[i]
		}
	}
	return math.NaN()
}

// Counters is an ordered set of named event tallies — link-fault outcomes,
// retry counts, dedup hits — printed alongside tables and figures. Insertion
// order is preserved so output is deterministic.
type Counters struct {
	Title string
	names []string
	vals  map[string]int64
}

// NewCounters creates an empty counter set.
func NewCounters(title string) *Counters {
	return &Counters{Title: title, vals: map[string]int64{}}
}

// Add increments a counter, registering it on first touch.
func (c *Counters) Add(name string, delta int64) {
	if _, ok := c.vals[name]; !ok {
		c.names = append(c.names, name)
	}
	c.vals[name] += delta
}

// Set overwrites a counter, registering it on first touch.
func (c *Counters) Set(name string, v int64) {
	if _, ok := c.vals[name]; !ok {
		c.names = append(c.names, name)
	}
	c.vals[name] = v
}

// Get returns a counter (0 if never touched).
func (c *Counters) Get(name string) int64 { return c.vals[name] }

// Fprint renders the counters in insertion order, aligned.
func (c *Counters) Fprint(w io.Writer) {
	if c.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", c.Title)
	}
	nameW := 0
	for _, n := range c.names {
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	for _, n := range c.names {
		fmt.Fprintf(w, "%-*s  %d\n", nameW, n, c.vals[n])
	}
}

// String renders the counters to a string.
func (c *Counters) String() string {
	var b strings.Builder
	c.Fprint(&b)
	return b.String()
}
