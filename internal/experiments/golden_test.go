package experiments

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mcmnpu/internal/sweep"
	"mcmnpu/internal/workloads"
)

// The golden tests snapshot the rendered paper-reproduction tables and
// assert byte-for-byte equality: they lock the determinism guarantee of
// the analytic stack (scheduler, cost model, DSE reduce) end to end —
// any change to a single float anywhere upstream shows up here.
// Regenerate intentionally with:
//
//	go test ./internal/experiments -run TestGolden -update

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s (regenerate with -update if intentional)\n got:\n%s\nwant:\n%s",
			path, got, want)
	}
}

func TestGoldenTableI(t *testing.T) {
	r, err := TableI(context.Background(), sweep.New(1), workloads.DefaultConfig(), 85)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1.golden", r.Table().String())
}

func TestGoldenTable2(t *testing.T) {
	rows, err := Table2(workloads.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table2.golden", Table2Table(rows).String())
}

func TestGoldenCameraSweep(t *testing.T) {
	_, tbl := runPlan(t, 1, cameraPlan)
	checkGolden(t, "camera_sweep.golden", tbl.String())
}

func TestGoldenFrontierSweep(t *testing.T) {
	_, tbl := runPlan(t, 1, frontierPlan)
	checkGolden(t, "frontier_sweep.golden", tbl.String())
}

func TestGoldenMeshSweep(t *testing.T) {
	_, tbl := runPlan(t, 1, meshPlan)
	checkGolden(t, "mesh_sweep.golden", tbl.String())
}

// TestGoldenGrid pins every byte of the sharded experiment grid: all
// seven scenarios' tables, rendered in grid order at one worker.
// TestShardedGridSerialParallelIdentical extends the pin to any worker
// count.
func TestGoldenGrid(t *testing.T) {
	checkGolden(t, "grid.golden", runSharded(t, 1))
}
