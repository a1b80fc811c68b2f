// Package experiments regenerates the paper's evaluation: one experiment
// per theorem/figure claim (the paper is pure theory, so its "tables and
// figures" are theorem-level predictions — lower-bound constructions,
// upper-bound scalings and crossovers). Each experiment builds the exact
// constructions from the paper, measures simulated round counts, and
// prints the measured value next to the predicted bound.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table is a rendered experiment result. An experiment's Run fills
// Headers, Rows and Notes; RunOne stamps the other four from the
// registry entry.
type Table struct {
	// ID, Title, Source (the theorem/lemma/figure reproduced) and Claim
	// (the paper prediction being tested) are the Experiment's.
	ID, Title, Source, Claim string
	// Headers and Rows hold the tabular data.
	Headers []string
	Rows    [][]string
	// Notes carry fitted exponents, verdicts, and caveats.
	Notes []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a formatted note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	if t.Claim != "" {
		if _, err := fmt.Fprintf(w, "claim: %s\n", t.Claim); err != nil {
			return err
		}
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		return "  " + strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(t.Headers)); err != nil {
		return err
	}
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(sep)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// tableJSON is the stable artifact schema (schema_version 1). Cells stay
// strings — exactly what the text renderer prints — so artifacts diff
// cleanly and are bit-identical at any worker count.
type tableJSON struct {
	SchemaVersion int        `json:"schema_version"`
	ID            string     `json:"id"`
	Title         string     `json:"title"`
	Source        string     `json:"source,omitempty"`
	Claim         string     `json:"claim,omitempty"`
	Headers       []string   `json:"headers"`
	Rows          [][]string `json:"rows"`
	Notes         []string   `json:"notes,omitempty"`
}

// JSON writes the table as an indented JSON artifact. The output is a
// pure function of the experiment configuration (no timestamps or host
// details), so artifacts from different worker counts are identical.
func (t *Table) JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tableJSON{
		SchemaVersion: 1,
		ID:            t.ID,
		Title:         t.Title,
		Source:        t.Source,
		Claim:         t.Claim,
		Headers:       t.Headers,
		Rows:          t.Rows,
		Notes:         t.Notes,
	})
}

// CSV writes the table as comma-separated values (headers first).
func (t *Table) CSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = esc(c)
		}
		_, err := fmt.Fprintln(w, strings.Join(parts, ","))
		return err
	}
	if err := writeRow(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}
