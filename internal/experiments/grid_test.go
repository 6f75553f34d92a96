package experiments

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"mcmnpu/internal/report"
	"mcmnpu/internal/sweep"
	"mcmnpu/internal/workloads"
)

// TestDefaultGridRunsEveryScenario: the standard grid names its
// scenarios and runs every one of them to a non-empty table.
func TestDefaultGridRunsEveryScenario(t *testing.T) {
	eng := sweep.New(4)
	grid := ShardedGrid(eng)
	names := make([]string, len(grid))
	for i, s := range grid {
		names[i] = s.Name
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"cameras", "mesh-size", "frontier", "dse-lcstr"} {
		if !strings.Contains(joined, want) {
			t.Errorf("grid missing scenario %s (have %s)", want, joined)
		}
	}
	results := eng.RunGridSharded(context.Background(), workloads.DefaultConfig(), grid)
	if len(results) != len(grid) {
		t.Fatalf("results = %d, want %d", len(results), len(grid))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("scenario %s failed: %v", r.Scenario, r.Err)
			continue
		}
		if r.Table == nil || len(r.Table.Rows) == 0 {
			t.Errorf("scenario %s produced no rows", r.Scenario)
		}
	}
}

// runPlan runs one grid plan constructor alone on a fresh engine with
// the given worker count (one worker is the serial run) and returns the
// typed rows its points filled plus the rendered table.
func runPlan[R any](t *testing.T, workers int, build planFunc[R]) ([]R, *report.Table) {
	t.Helper()
	eng := sweep.New(workers)
	var rows []R
	sc := sweep.ShardedScenario{Name: "plan", Prepare: func(_ context.Context, cfg workloads.Config) (sweep.GridPlan, error) {
		plan, r, err := build(eng, cfg)
		rows = r
		return plan, err
	}}
	res := eng.RunGridSharded(context.Background(), workloads.DefaultConfig(), []sweep.ShardedScenario{sc})[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return rows, res.Table
}

// renderResults flattens a grid run into one string: scenario order,
// errors and full table bytes all participate in the comparison.
func renderResults(t *testing.T, results []sweep.GridResult) string {
	t.Helper()
	var sb strings.Builder
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("scenario %s failed: %v", r.Scenario, r.Err)
		}
		sb.WriteString(r.Scenario)
		sb.WriteString("\n")
		r.Table.Render(&sb)
	}
	return sb.String()
}

func runSharded(t *testing.T, workers int) string {
	t.Helper()
	eng := sweep.New(workers)
	return renderResults(t, eng.RunGridSharded(context.Background(), workloads.DefaultConfig(), ShardedGrid(eng)))
}

// TestShardedGridSerialParallelIdentical: bit-for-bit identical output
// at every worker count — the determinism contract the sharded
// dispatch must keep. Runs under `make race`, so the worker fan-out is
// also checked for data races.
func TestShardedGridSerialParallelIdentical(t *testing.T) {
	want := runSharded(t, 1)
	for _, workers := range []int{2, 8, 32} {
		if got := runSharded(t, workers); got != want {
			t.Errorf("workers=%d output diverged from serial:\n got:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}

// TestShardedGridParallelEfficiency asserts the point-level sharding
// actually buys wall time: 8 workers must finish the grid in under
// half the 1-worker time. Skipped under -short and on hosts with fewer
// than 8 CPUs, where the workers cannot run concurrently and the
// ratio measures the scheduler, not the decomposition; the bench
// lane's scaling gate enforces the committed ratios on CI's multi-core
// runners.
func TestShardedGridParallelEfficiency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	if n := runtime.NumCPU(); n < 8 {
		t.Skipf("host has %d CPUs; need >= 8 to observe parallel speedup", n)
	}
	wall := func(workers int) time.Duration {
		eng := sweep.New(workers)
		start := time.Now()
		for _, r := range eng.RunGridSharded(context.Background(), workloads.DefaultConfig(), ShardedGrid(eng)) {
			if r.Err != nil {
				t.Fatalf("scenario %s failed: %v", r.Scenario, r.Err)
			}
		}
		return time.Since(start)
	}
	serial := wall(1)
	parallel := wall(8)
	if parallel >= serial/2 {
		t.Errorf("8-worker grid took %v vs %v serial (%.2fx); want < 0.5x",
			parallel, serial, float64(parallel)/float64(serial))
	}
}

func TestLcstrSweepTightensFeasibility(t *testing.T) {
	results, tbl := runPlan(t, 2, lcstrPlan)
	if len(results) != len(DefaultLcstrPoints) || len(tbl.Rows) != len(DefaultLcstrPoints) {
		t.Fatalf("results = %d, rows = %d, want %d", len(results), len(tbl.Rows), len(DefaultLcstrPoints))
	}
	// Loosening the constraint never loses feasibility, and the paper's
	// 85 ms operating point is feasible.
	for i := 1; i < len(results); i++ {
		if results[i-1].Feasible && !results[i].Feasible {
			t.Errorf("Lcstr %.0f feasible but looser %.0f is not", DefaultLcstrPoints[i-1], DefaultLcstrPoints[i])
		}
	}
	for i, l := range DefaultLcstrPoints {
		if l == 85 && !results[i].Feasible {
			t.Error("Het(2) infeasible at the paper's 85 ms constraint")
		}
	}
}
