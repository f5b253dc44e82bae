// Package report renders experiment results as aligned text tables and CSV,
// in the spirit of the paper's tables and figure series.
package report

import (
	"fmt"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// New creates a table with the given title and column headers.
func New(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Add appends a row; cells are formatted with %v.
func (t *Table) Add(cells ...interface{}) *Table {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case float32:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
	return t
}

// AddStrings appends a pre-formatted row.
func (t *Table) AddStrings(cells ...string) *Table {
	t.rows = append(t.rows, cells)
	return t
}

// Len reports the number of data rows.
func (t *Table) Len() int { return len(t.rows) }

// String renders the table with aligned columns.
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
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := len(widths) - 1
	if total < 0 {
		total = 0
	}
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Bars renders a horizontal ASCII bar chart — the terminal rendition of
// the paper's figures. Values map to bar lengths between lo and hi over
// `width` characters; the numeric value is printed after each bar.
type Bars struct {
	Title   string
	Lo, Hi  float64
	Width   int
	entries []barEntry
}

type barEntry struct {
	label string
	value float64
}

// NewBars creates a chart with values scaled over [lo, hi].
func NewBars(title string, lo, hi float64, width int) *Bars {
	if width <= 0 {
		width = 40
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &Bars{Title: title, Lo: lo, Hi: hi, Width: width}
}

// Add appends one bar.
func (b *Bars) Add(label string, value float64) *Bars {
	b.entries = append(b.entries, barEntry{label, value})
	return b
}

// String renders the chart.
func (b *Bars) String() string {
	var sb strings.Builder
	if b.Title != "" {
		fmt.Fprintf(&sb, "%s\n", b.Title)
	}
	labelW := 0
	for _, e := range b.entries {
		if len(e.label) > labelW {
			labelW = len(e.label)
		}
	}
	for _, e := range b.entries {
		frac := (e.value - b.Lo) / (b.Hi - b.Lo)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		// float64(...) rounds the product on its own: no fused multiply-add.
		n := int(float64(frac*float64(b.Width)) + 0.5)
		fmt.Fprintf(&sb, "%-*s |%s%s %.4f\n", labelW, e.label,
			strings.Repeat("#", n), strings.Repeat(" ", b.Width-n), e.value)
	}
	return sb.String()
}

// CSV renders the table as comma-separated values (no escaping beyond
// replacing embedded commas — experiment output never contains them).
func (t *Table) CSV() string {
	var b strings.Builder
	clean := func(s string) string { return strings.ReplaceAll(s, ",", ";") }
	for i, c := range t.Columns {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(clean(c))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(clean(cell))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
