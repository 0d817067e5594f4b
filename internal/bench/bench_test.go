package bench

import (
	"strings"
	"testing"
)

// TestAllExperimentsSmoke runs every experiment at tiny scale, checking the
// ids are unique and the tables are structurally complete (every row has a
// cell per header, no empty cells).
func TestAllExperimentsSmoke(t *testing.T) {
	sc := SmokeScale()
	seen := make(map[string]bool)
	for _, e := range Experiments {
		if seen[e.ID] {
			t.Fatalf("experiment id %q listed twice", e.ID)
		}
		seen[e.ID] = true
		t.Run(e.ID, func(t *testing.T) {
			tbl := e.Run(sc)
			if tbl.ID != e.ID {
				t.Fatalf("table id %q", tbl.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("no rows")
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Headers) {
					t.Fatalf("row %v has %d cells, want %d", row, len(row), len(tbl.Headers))
				}
				for _, c := range row {
					if strings.TrimSpace(c) == "" {
						t.Fatalf("empty cell in row %v", row)
					}
				}
			}
			out := tbl.Render()
			if !strings.Contains(out, tbl.Title) {
				t.Fatal("render missing title")
			}
		})
	}
}

func TestDefaultScaleFill(t *testing.T) {
	sc := Scale{}.withDefaults()
	if sc.Keys == 0 || sc.Ops == 0 || sc.Workers == 0 || sc.Batch == 0 {
		t.Fatalf("defaults not applied: %+v", sc)
	}
}
