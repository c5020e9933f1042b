// Package report renders the experiment harness's tables and series as
// aligned text, so every regenerated paper artifact prints uniformly.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; cells render with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Write renders the table.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		parts := make([]string, len(widths))
		for i := range widths {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			parts[i] = pad(cell, widths[i])
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := line(t.headers); err != nil {
		return err
	}
	seps := make([]string, len(widths))
	for i, wd := range widths {
		seps[i] = strings.Repeat("-", wd)
	}
	if err := line(seps); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.Write(&b); err != nil {
		return err.Error()
	}
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// PaperVsMeasured formats one EXPERIMENTS.md comparison line.
func PaperVsMeasured(artifact, metric string, paper, measured any, note string) string {
	s := fmt.Sprintf("%-8s %-28s paper=%-12v measured=%-12v", artifact, metric, paper, measured)
	if note != "" {
		s += " " + note
	}
	return strings.TrimRight(s, " ")
}
