package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/quick_tables.sha256 from the tables TestRunAllQuick builds")

const quickGoldenPath = "testdata/quick_tables.sha256"

// wallClockCols names the columns whose cells are wall-clock readings;
// tableDigest blanks them so the digest is a pure function of the
// experiment configuration. Only E28 has any.
var wallClockCols = map[string][]int{"E28": {1, 2, 3, 4, 5}}

// tableDigest is the sha256 of a table's Headers, Rows and Notes.
func tableDigest(tbl *Table) string {
	rows := make([][]string, len(tbl.Rows))
	for i, row := range tbl.Rows {
		rows[i] = append([]string(nil), row...)
		for _, c := range wallClockCols[tbl.ID] {
			rows[i][c] = ""
		}
	}
	b, err := json.Marshal([]any{tbl.Headers, rows, tbl.Notes})
	if err != nil {
		panic(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// readQuickGolden parses the "<ID> <sha256>" lines of quickGoldenPath.
func readQuickGolden(t *testing.T) map[string]string {
	data, err := os.ReadFile(quickGoldenPath)
	if err != nil {
		t.Fatalf("%v (record it with: go test ./internal/experiments -run TestRunAllQuick -update)", err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		id, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", quickGoldenPath, line)
		}
		golden[id] = sum
	}
	return golden
}

func TestAllRegistered(t *testing.T) {
	all := All()
	if len(all) != 31 {
		t.Fatalf("registered %d experiments, want 31", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Source == "" || e.Claim == "" || e.Run == nil {
			t.Fatalf("experiment %+v incomplete", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestGet(t *testing.T) {
	e, err := Get("E1")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "E1" {
		t.Fatalf("Get(E1) = %s", e.ID)
	}
	if _, err := Get("E99"); err == nil {
		t.Fatal("expected error for unknown ID")
	}
}

// Every experiment must run to completion in Quick mode and produce a
// well-formed table. This is the repository's end-to-end integration
// test: it exercises generators, conductance, the simulator, every
// protocol and the guessing game. The tables are the ones
// `cmd/experiments -quick` prints, and each one's digest is pinned in
// testdata/quick_tables.sha256: a change that bends a paper table fails
// here (or regenerates the file with -update and says why).
func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep skipped in -short")
	}
	cfg := Config{Quick: true}
	var (
		mu     sync.Mutex
		got    = map[string]string{}
		golden map[string]string
	)
	if *update {
		t.Cleanup(func() { // runs once every parallel subtest is done
			var buf strings.Builder
			for _, e := range All() {
				fmt.Fprintf(&buf, "%s %s\n", e.ID, got[e.ID])
			}
			if err := os.WriteFile(quickGoldenPath, []byte(buf.String()), 0o644); err != nil {
				t.Error(err)
			}
		})
	} else {
		golden = readQuickGolden(t)
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tbl, err := RunOne(context.Background(), cfg, e)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if tbl.ID != e.ID || tbl.Title != e.Title || tbl.Source != e.Source || tbl.Claim != e.Claim {
				t.Fatalf("%s: registry entry not stamped: %q %q %q %q", e.ID, tbl.ID, tbl.Title, tbl.Source, tbl.Claim)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Headers) {
					t.Fatalf("%s row width %d != headers %d", e.ID, len(row), len(tbl.Headers))
				}
			}
			var buf bytes.Buffer
			if err := tbl.Render(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), e.ID) {
				t.Fatalf("%s render missing ID", e.ID)
			}
			sum := tableDigest(tbl)
			if *update {
				mu.Lock()
				got[e.ID] = sum
				mu.Unlock()
			} else if sum != golden[e.ID] {
				t.Fatalf("%s: table digest %s, %s pins %s:\n%s", e.ID, sum, quickGoldenPath, golden[e.ID], buf.String())
			}
		})
	}
}

// TestWorkerCountDeterminism is the harness's core guarantee: the same
// grid produces byte-identical JSON artifacts at workers=1 and
// workers=8, because every trial's randomness derives from its grid
// coordinates rather than from scheduling order.
func TestWorkerCountDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism sweep skipped in -short")
	}
	// A cross-section of grid shapes: multi-trial stochastic cells (E2,
	// E4), sparse metrics (E3), mixed per-trial + per-cell work (E14),
	// and label-carrying samples (E6).
	// E26 rides along to pin that even the HTTP service layer produces
	// schedule-independent tables (its metrics are all counters the
	// coalescing cache makes deterministic).
	for _, id := range []string{"E2", "E3", "E4", "E6", "E14", "E26"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			render := func(workers int) string {
				cfg := Config{Seed: 11, Quick: true, Trials: 2, Workers: workers}
				tbl, err := RunOne(context.Background(), cfg, e)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				var buf bytes.Buffer
				if err := tbl.JSON(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.String()
			}
			serial := render(1)
			parallel := render(8)
			if serial != parallel {
				t.Fatalf("JSON diverged between workers=1 and workers=8:\n--- workers=1\n%s\n--- workers=8\n%s", serial, parallel)
			}
		})
	}
}

func TestRunHonorsContextCancellation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the deadline pass
	e, err := Get("E2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunOne(ctx, Config{Quick: true, Trials: 1}, e); err == nil {
		t.Fatal("expected context error")
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tbl := &Table{
		ID:      "T",
		Title:   "demo",
		Claim:   "x",
		Headers: []string{"a", "b"},
	}
	tbl.AddRow(1, 2.5)
	tbl.AddRow("x,y", 10000.0)
	tbl.AddNote("note %d", 1)
	var txt bytes.Buffer
	if err := tbl.Render(&txt); err != nil {
		t.Fatal(err)
	}
	out := txt.String()
	for _, want := range []string{"T — demo", "claim: x", "2.500", "note: note 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q in:\n%s", want, out)
		}
	}
	var csv bytes.Buffer
	if err := tbl.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), `"x,y"`) {
		t.Fatalf("CSV escaping broken:\n%s", csv.String())
	}
	if !strings.HasPrefix(csv.String(), "a,b\n") {
		t.Fatalf("CSV header broken:\n%s", csv.String())
	}
}

func TestTableJSON(t *testing.T) {
	tbl := &Table{
		ID:      "T",
		Title:   "demo",
		Source:  "Theorem 1",
		Claim:   "x",
		Headers: []string{"a", "b"},
	}
	tbl.AddRow(1, 2.5)
	tbl.AddNote("note %d", 1)
	var buf bytes.Buffer
	if err := tbl.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		SchemaVersion int        `json:"schema_version"`
		ID            string     `json:"id"`
		Source        string     `json:"source"`
		Headers       []string   `json:"headers"`
		Rows          [][]string `json:"rows"`
		Notes         []string   `json:"notes"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if decoded.SchemaVersion != 1 || decoded.ID != "T" || decoded.Source != "Theorem 1" {
		t.Fatalf("decoded = %+v", decoded)
	}
	if len(decoded.Rows) != 1 || decoded.Rows[0][1] != "2.500" {
		t.Fatalf("rows = %v", decoded.Rows)
	}
	if len(decoded.Notes) != 1 {
		t.Fatalf("notes = %v", decoded.Notes)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Trials != 5 || c.Seed != 1 {
		t.Fatalf("defaults = %+v", c)
	}
	q := Config{Quick: true}.withDefaults()
	if q.Trials != 3 {
		t.Fatalf("quick trials = %d", q.Trials)
	}
}

func TestFormatFloat(t *testing.T) {
	tests := []struct {
		v    float64
		want string
	}{
		{0, "0"}, {12345, "12345"}, {99.5, "99.5"}, {1.23456, "1.235"},
	}
	for _, tt := range tests {
		if got := formatFloat(tt.v); got != tt.want {
			t.Fatalf("formatFloat(%v) = %q, want %q", tt.v, got, tt.want)
		}
	}
}
