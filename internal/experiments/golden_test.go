package experiments

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"
)

// goldenPath is the committed output of `spotdc-experiments -all`.
const goldenPath = "../../experiments_output.txt"

// TestAllMatchesGolden runs the whole suite exactly as
// `spotdc-experiments -all` does and diffs it against the committed golden,
// so a change to any reported number fails here instead of waiting for a
// hand diff. fig7b's clearing-time column is wall-clock time and is masked.
// Regenerate the golden after an intended change with
//
//	go run ./cmd/spotdc-experiments -all > experiments_output.txt
func TestAllMatchesGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the full suite is ≈10× slower under -race; the tier-1 run covers it")
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := RunAll(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, rep := range reports {
		if err := rep.Fprint(&got); err != nil {
			t.Fatal(err)
		}
	}
	g, w := maskTimings(got.String()), maskTimings(string(want))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("-all differs from %s at line %d:\n got  %q\n want %q", goldenPath, i+1, gl, wl)
		}
	}
}

// maskTimings splits report text into lines and, inside the fig7b table,
// replaces the mean-clearing-time cell with a placeholder and collapses the
// column padding that cell's width sets.
func maskTimings(text string) []string {
	lines := strings.Split(text, "\n")
	inFig7b := false
	for i, l := range lines {
		if strings.HasPrefix(l, "== ") {
			inFig7b = strings.HasPrefix(l, "== fig7b:")
			continue
		}
		f := strings.Fields(l)
		if !inFig7b || len(f) != 5 {
			continue
		}
		if _, err := strconv.Atoi(f[0]); err != nil {
			continue
		}
		f[3] = "<time>"
		lines[i] = strings.Join(f, " ")
	}
	return lines
}
