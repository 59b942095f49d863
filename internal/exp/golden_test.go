package exp

import (
	"context"
	"os"
	"strings"
	"testing"
	"time"
)

// TestQuickTablesGolden pins E1–E9 at the quick scale, rendered as
// cmd/experiments -quick prints them, to testdata/golden_quick.txt.
// Every cell that reads as a duration is masked, since the tables
// repeat exactly apart from their timings. The random planners of E2
// and E4 and the Set Cover instances of E7 draw from seeded
// generators, so a generator that draws from any other source changes
// a row here. An intended change of output edits the file by hand.
func TestQuickTablesGolden(t *testing.T) {
	var b strings.Builder
	for _, e := range Experiments() {
		r, err := e.Run(context.Background(), quick)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if tab, ok := r.(*Table); ok {
			for _, row := range tab.Rows {
				for i, cell := range row {
					if _, err := time.ParseDuration(cell); err == nil && cell != "0" {
						row[i] = "<time>"
					}
				}
			}
		}
		if err := r.Write(&b); err != nil {
			t.Fatal(err)
		}
		b.WriteByte('\n')
	}
	want, err := os.ReadFile("testdata/golden_quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}
