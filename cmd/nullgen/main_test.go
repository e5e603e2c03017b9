package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nullgraph/internal/obs"
)

// valid returns a baseline config that passes validation; cases mutate
// one field each.
func valid() config {
	return config{PowerLaw: 1000, Gamma: 2.1, DMin: 1, DMax: 100, Swaps: 10, Out: "-"}
}

func TestValidateConfig(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*config)
		wantErr string // substring of the expected message; "" = valid
	}{
		{"baseline", func(c *config) {}, ""},
		{"dist source", func(c *config) { c.PowerLaw = 0; c.DistFile = "d.txt" }, ""},
		{"dataset source", func(c *config) { c.PowerLaw = 0; c.Dataset = "as20" }, ""},
		{"joint source", func(c *config) { c.PowerLaw = 0; c.Joint = "j.txt" }, ""},
		{"no source", func(c *config) { c.PowerLaw = 0 }, "required"},
		{"two sources", func(c *config) { c.Dataset = "as20" }, "mutually exclusive"},
		{"three sources", func(c *config) { c.Dataset = "as20"; c.DistFile = "d.txt" }, "mutually exclusive"},
		{"joint plus powerlaw", func(c *config) { c.Joint = "j.txt" }, "mutually exclusive"},
		{"negative swaps", func(c *config) { c.Swaps = -1 }, "-swaps"},
		{"zero swaps ok", func(c *config) { c.Swaps = 0 }, ""},
		{"negative powerlaw", func(c *config) { c.PowerLaw = -5 }, "positive"},
		{"gamma one", func(c *config) { c.Gamma = 1 }, "-gamma"},
		{"gamma below one", func(c *config) { c.Gamma = 0.5 }, "-gamma"},
		{"dmin zero", func(c *config) { c.DMin = 0 }, "-dmin"},
		{"dmin above dmax", func(c *config) { c.DMin = 50; c.DMax = 10 }, "exceeds"},
		{"gamma ignored without powerlaw", func(c *config) { c.PowerLaw = 0; c.DistFile = "d.txt"; c.Gamma = 0 }, ""},
		{"report with joint ok", func(c *config) { c.PowerLaw = 0; c.Joint = "j.txt"; c.Report = "r.json" }, ""},
		{"report with powerlaw ok", func(c *config) { c.Report = "r.json" }, ""},
		{"negative timeout", func(c *config) { c.Timeout = -time.Second }, "-timeout"},
		{"positive timeout ok", func(c *config) { c.Timeout = 30 * time.Second }, ""},
		{"adaptive ok", func(c *config) { c.Adaptive = true }, ""},
		{"adaptive with knobs ok", func(c *config) { c.Adaptive = true; c.StopFloor = 8; c.StopBudget = 64 }, ""},
		{"adaptive with stat ok", func(c *config) { c.Adaptive = true; c.StopStat = "success-rate" }, ""},
		{"adaptive plus mix", func(c *config) { c.Adaptive = true; c.Mix = true }, "mutually exclusive"},
		{"stop floor without adaptive", func(c *config) { c.StopFloor = 8 }, "require -adaptive"},
		{"stop budget without adaptive", func(c *config) { c.StopBudget = 64 }, "require -adaptive"},
		{"negative stop floor", func(c *config) { c.Adaptive = true; c.StopFloor = -1 }, ">= 0"},
		{"floor above budget", func(c *config) { c.Adaptive = true; c.StopFloor = 65; c.StopBudget = 64 }, "exceeds"},
		{"bad stop stat", func(c *config) { c.Adaptive = true; c.StopStat = "modularity" }, "-stop-stat"},
		{"adaptive joint ok", func(c *config) { c.PowerLaw = 0; c.Joint = "j.txt"; c.Adaptive = true }, ""},
	}
	for _, tc := range cases {
		c := valid()
		tc.mutate(&c)
		err := validateConfig(c)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: want error containing %q, got nil", tc.name, tc.wantErr)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestRunEmitsReport drives the CLI entry end to end: a small power-law
// run, and a small -joint digraph run, with -report must each write
// both the graph and a populated, schema-tagged RunReport.
func TestRunEmitsReport(t *testing.T) {
	for _, tc := range []struct {
		name   string
		source func(c *config, dir string)
	}{
		{"powerlaw", func(c *config, _ string) { c.PowerLaw = 500 }},
		{"joint", func(c *config, dir string) {
			c.PowerLaw = 0
			c.Joint = filepath.Join(dir, "joint.txt")
			if err := os.WriteFile(c.Joint, []byte("2 2 50\n1 3 20\n3 1 20\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c := valid()
			tc.source(&c, dir)
			c.Swaps = 4
			c.Quiet = true
			c.Out = filepath.Join(dir, "graph.txt")
			c.Report = filepath.Join(dir, "report.json")
			if err := validateConfig(c); err != nil {
				t.Fatal(err)
			}
			if err := run(context.Background(), c); err != nil {
				t.Fatal(err)
			}
			if fi, err := os.Stat(c.Out); err != nil || fi.Size() == 0 {
				t.Fatalf("graph output missing or empty: %v", err)
			}
			data, err := os.ReadFile(c.Report)
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
			if rep.SwapTotals.Iterations != 4 || rep.SwapTotals.Attempts == 0 {
				t.Errorf("report swap totals not populated: %+v", rep.SwapTotals)
			}
			if rep.EdgeSkip == nil || rep.EdgeSkip.TotalEdges == 0 {
				t.Error("report missing edge-skip section")
			}
			if rep.Phases == nil {
				t.Error("report missing phases section")
			}
		})
	}
}

// TestRunCanceledContext: a context canceled before the run starts must
// surface the context error (the -timeout / SIGINT path) and write no
// output file.
func TestRunCanceledContext(t *testing.T) {
	dir := t.TempDir()
	c := valid()
	c.PowerLaw = 500
	c.Quiet = true
	c.Out = filepath.Join(dir, "graph.txt")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, c)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got err %v, want context.Canceled", err)
	}
	if _, err := os.Stat(c.Out); !os.IsNotExist(err) {
		t.Error("canceled run still created the output file")
	}
}
