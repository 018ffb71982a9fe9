// Package report renders experiment results as aligned ASCII tables and
// CSV, the textual equivalent of the paper's tables and figure series.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows under a fixed header and renders them aligned.
type Table struct {
	Title  string
	header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// AddRow appends a row; values are formatted with %v, floats with Cell.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Cellf formats a float with the given number of decimals.
func Cellf(v float64, decimals int) string {
	return fmt.Sprintf("%.*f", decimals, v)
}

// Render writes the table with a title line, a header row, a separator, and
// the data rows, all space-aligned.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	fmt.Fprintf(&b, "%s\n", line(t.header))
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", total))
	for _, row := range t.rows {
		fmt.Fprintf(&b, "%s\n", line(row))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderCSV writes the table as CSV (header first). Cells containing commas
// or quotes are quoted per RFC 4180.
func (t *Table) RenderCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = csvEscape(c)
		}
		_, err := fmt.Fprintf(w, "%s\n", strings.Join(parts, ","))
		return err
	}
	if err := writeRow(t.header); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// NumRows returns the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Section writes a titled separator to group multiple tables in one output
// stream.
func Section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n\n", title)
}
