// Package trace provides the measurement substrate for the experiment
// harness: aligned text tables (the "rows the paper reports"), descriptive
// statistics, CSV export, and per-experiment wall-clock timings.
package trace

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-aligned text table with an optional title.
type Table struct {
	// Title is printed above the table when non-empty.
	Title string

	headers []string
	rows    [][]string
}

// NewTable builds a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: append([]string(nil), headers...)}
}

// AddRow appends a row; cells are rendered with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// Len returns the number of data rows.
func (t *Table) Len() int { return len(t.rows) }

// Render writes the aligned table to w.
func (t *Table) Render(w io.Writer) {
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
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		fmt.Fprintln(w, b.String())
	}
	writeRow(t.headers)
	rule := make([]string, len(t.headers))
	for i, wd := range widths {
		rule[i] = strings.Repeat("-", wd)
	}
	writeRow(rule)
	for _, row := range t.rows {
		writeRow(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// CSV writes the table as comma-separated values (headers first). Cells
// containing commas or quotes are quoted.
func (t *Table) CSV(w io.Writer) error {
	writeLine := func(cells []string) error {
		out := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			out[i] = c
		}
		_, err := fmt.Fprintln(w, strings.Join(out, ","))
		return err
	}
	if err := writeLine(t.headers); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := writeLine(row); err != nil {
			return err
		}
	}
	return nil
}

// Markdown writes the table as a GitHub-flavored markdown table.
func (t *Table) Markdown(w io.Writer) {
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.headers, " | "))
	seps := make([]string, len(t.headers))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
}
