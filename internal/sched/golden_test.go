package sched_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/nop"
	"mcmnpu/internal/scenario"
	"mcmnpu/internal/sched"
)

var update = flag.Bool("update", false, "rewrite golden files")

// hexf renders a float by its exact bits, so the golden pins every
// schedule value byte for byte rather than to a printed precision.
func hexf(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// goldenCases returns the specs the schedule golden pins: every registry
// scenario, heterogeneous packages whose pools mix chiplet types (the
// per-chiplet probe path of StageSchedule.refresh), both tolerance
// extremes and a NoP override.
func goldenCases(t *testing.T) []scenario.Spec {
	t.Helper()
	specs := scenario.Registry()
	urban, err := scenario.Lookup("urban-8cam")
	if err != nil {
		t.Fatal(err)
	}
	variant := func(name string, edit func(*scenario.Spec)) {
		sp := urban
		sp.Name = name
		edit(&sp)
		specs = append(specs, sp)
	}
	variant("het-simba36", func(sp *scenario.Spec) {
		sp.ChipletTypes = []string{"big*4", "eco*8", "simba*24"}
	})
	variant("het-simba36-bwopt", func(sp *scenario.Spec) {
		sp.ChipletTypes = []string{"simba*9", "bwopt*3", "eco*6", "big*18"}
	})
	variant("het-mesh4x4", func(sp *scenario.Spec) {
		sp.Package = "mesh:4x4"
		sp.ChipletTypes = []string{"big*4", "eco*6", "simba*3", "bwopt*3"}
	})
	variant("het-mesh4x4-alt", func(sp *scenario.Spec) {
		sp.Package = "mesh:4x4"
		sp.ChipletTypes = []string{"eco", "big", "eco", "big", "simba*4", "big*2", "eco*6"}
	})
	variant("tol-0.02", func(sp *scenario.Spec) { sp.Tolerance = 0.02 })
	variant("tol-0.2", func(sp *scenario.Spec) { sp.Tolerance = 0.2 })
	variant("nop-slow", func(sp *scenario.Spec) {
		p := nop.DefaultParams()
		p.LinkBWGBs = 25
		p.HopLatencyNs = 140
		sp.NoP = &p
	})
	return specs
}

// scheduleFingerprint renders every decision and derived value of a
// schedule: pools, units (shards, placement, exact costs), stage
// metrics, the full greedy step trace and the inter-stage transfers.
func scheduleFingerprint(b *strings.Builder, s *sched.Schedule) {
	fmt.Fprintf(b, "base=%s pipe=%s\n", hexf(s.BaseMs), hexf(s.PipeLatMs()))
	for _, ss := range s.Stages {
		fmt.Fprintf(b, "stage %d %s pool=%v\n", ss.Index, ss.Name, ss.Pool)
		fmt.Fprintf(b, "  pipe=%s e2e=%s energy=%s macs=%d nop=%s/%s transfers=%d\n",
			hexf(ss.PipeLatMs), hexf(ss.E2EMs), hexf(ss.EnergyJ), ss.MACs,
			hexf(ss.NoPLatMs), hexf(ss.NoPEnergyJ), len(ss.Transfers))
		for _, u := range ss.Units {
			fmt.Fprintf(b, "  unit %s shards=%d chips=%v per=%s energy=%s macs=%d\n",
				u.Label(), u.Shards, u.Chiplets, hexf(u.PerShardMs), hexf(u.EnergyJ), u.MACs)
		}
	}
	for _, st := range s.Steps {
		fmt.Fprintf(b, "step %s/%s pipe=%s base=%s free=%d\n",
			st.Action, st.Stage, hexf(st.PipeLatMs), hexf(st.BaseMs), st.ChipletsFree)
	}
	for _, tr := range s.InterStage {
		fmt.Fprintf(b, "xfer %v->%v %d %s\n", tr.Src, tr.Dst, tr.Bytes, tr.Label)
	}
}

// TestScheduleGolden pins Algorithm 1's output bytes across the
// registry and the heterogeneous, tolerance and NoP variants. Any
// optimisation of the scheduler must leave this file byte-identical;
// regenerate with -update only after an intentional scheduling change.
func TestScheduleGolden(t *testing.T) {
	cache := costmodel.NewCache()
	var b strings.Builder
	for _, sp := range goldenCases(t) {
		p, err := scenario.Prepare(sp, cache)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		fmt.Fprintf(&b, "== %s (%s)\n", sp.Name, p.Bundle.MCM.Name)
		scheduleFingerprint(&b, p.Schedule)
	}
	got := b.String()
	path := filepath.Join("testdata", "schedules.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("schedule golden diverges at line %d:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("schedule golden length differs: got %d lines, want %d", len(gl), len(wl))
	}
}
