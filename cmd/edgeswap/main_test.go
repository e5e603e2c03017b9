package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nullgraph/internal/obs"
)

// TestRunEmitsReport drives the command end to end with -report, on an
// undirected edge list and on a directed arc list, and checks that the
// chain-health report is written with the run's swap totals.
func TestRunEmitsReport(t *testing.T) {
	for _, directed := range []bool{false, true} {
		name := "undirected"
		if directed {
			name = "directed"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			// A ring plus chords: simple, with room for swaps in both
			// readings (u v is an edge, or an arc u -> v).
			var in strings.Builder
			const n = 200
			for i := 0; i < n; i++ {
				fmt.Fprintf(&in, "%d %d\n%d %d\n", i, (i+1)%n, i, (i+7)%n)
			}
			inPath := filepath.Join(dir, "in.txt")
			if err := os.WriteFile(inPath, []byte(in.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			outPath := filepath.Join(dir, "out.txt")
			reportPath := filepath.Join(dir, "report.json")
			args := []string{"-in", inPath, "-swaps", "4", "-workers", "1", "-seed", "3",
				"-q", "-o", outPath, "-report", reportPath}
			if directed {
				args = append(args, "-directed")
			}
			if err := run(args); err != nil {
				t.Fatal(err)
			}
			if fi, err := os.Stat(outPath); err != nil || fi.Size() == 0 {
				t.Fatalf("output missing or empty: %v", err)
			}
			data, err := os.ReadFile(reportPath)
			if err != nil {
				t.Fatal(err)
			}
			var rep obs.RunReport
			if err := json.Unmarshal(data, &rep); err != nil {
				t.Fatalf("report is not valid JSON: %v", err)
			}
			if rep.Schema != obs.SchemaVersion {
				t.Errorf("report schema = %q, want %q", rep.Schema, obs.SchemaVersion)
			}
			if rep.Edges != 2*n {
				t.Errorf("report edges = %d, want %d", rep.Edges, 2*n)
			}
			if rep.SwapTotals.Iterations != 4 || rep.SwapTotals.Attempts == 0 || rep.SwapTotals.Successes == 0 {
				t.Errorf("report swap totals not populated: %+v", rep.SwapTotals)
			}
		})
	}
}
