// Package exp drives the reconstructed evaluation: one function per
// experiment (E1..E9 in DESIGN.md), each returning a renderable Table or
// Series. cmd/experiments prints them; the exp/E* rows of internal/perf
// time them at the quick scale; EXPERIMENTS.md records their outputs.
package exp

import (
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid of results.
type Table struct {
	ID      string // experiment id, e.g. "E2"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Write renders the table as aligned ASCII.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
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
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// Markdown renders the table as a GitHub-flavored markdown table with
// the title as a bold caption line and the notes as a trailing
// italicized list — the form EXPERIMENTS.md embeds directly.
func (t *Table) Markdown(w io.Writer) error {
	var b strings.Builder
	esc := func(s string) string { return strings.ReplaceAll(s, "|", "\\|") }
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s — %s**\n\n", t.ID, t.Title)
	}
	cols := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = esc(c)
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(cols, " | "))
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = esc(c)
		}
		fmt.Fprintf(&b, "| %s |\n", strings.Join(cells, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV renders the table as comma-separated values (cells containing
// commas are quoted).
func (t *Table) CSV(w io.Writer) error {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cols := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = esc(c)
	}
	b.WriteString(strings.Join(cols, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = esc(c)
		}
		b.WriteString(strings.Join(cells, ","))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Point is one (x, y) sample of a figure.
type Point struct {
	X float64
	Y float64
}

// Line is one named curve of a figure.
type Line struct {
	Name   string
	Points []Point
}

// Series is a titled figure: one or more curves over a shared x axis.
type Series struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Lines  []Line
}

// Write renders the figure as a point table followed by a crude ASCII
// plot (y rescaled to 40 columns), enough to read the curve shapes the
// experiments are about.
func (s *Series) Write(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", s.ID, s.Title)
	fmt.Fprintf(&b, "%-12s", s.XLabel)
	for _, l := range s.Lines {
		fmt.Fprintf(&b, "  %-14s", l.Name)
	}
	b.WriteByte('\n')
	// Collect the union of x values in first-line order (lines are
	// expected to share x samples).
	var xs []float64
	seen := map[float64]bool{}
	for _, l := range s.Lines {
		for _, p := range l.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	lookup := func(l Line, x float64) (float64, bool) {
		for _, p := range l.Points {
			if p.X == x {
				return p.Y, true
			}
		}
		return 0, false
	}
	minY, maxY := 0.0, 0.0
	first := true
	for _, l := range s.Lines {
		for _, p := range l.Points {
			if first || p.Y < minY {
				minY = p.Y
			}
			if first || p.Y > maxY {
				maxY = p.Y
			}
			first = false
		}
	}
	for _, x := range xs {
		fmt.Fprintf(&b, "%-12g", x)
		for _, l := range s.Lines {
			if y, ok := lookup(l, x); ok {
				fmt.Fprintf(&b, "  %-14.4f", y)
			} else {
				fmt.Fprintf(&b, "  %-14s", "-")
			}
		}
		b.WriteByte('\n')
	}
	// ASCII plot of the first line (the headline curve).
	if len(s.Lines) > 0 && maxY > minY {
		fmt.Fprintf(&b, "plot (%s, column = %s, scaled %.4f..%.4f):\n", s.Lines[0].Name, s.YLabel, minY, maxY)
		for _, p := range s.Lines[0].Points {
			n := int(40 * (p.Y - minY) / (maxY - minY))
			fmt.Fprintf(&b, "%10g |%s\n", p.X, strings.Repeat("#", n))
		}
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// Renderable is anything an experiment can emit.
type Renderable interface {
	Write(w io.Writer) error
}
