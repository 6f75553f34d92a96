package pareto

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcmnpu/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenReports pins the report JSON of both explorers byte for
// byte at one worker: exhaustive runs with pruning on and off, an
// explicit typed candidate list with duplicates, and evolutionary runs
// on a heterogeneous space and on a two-candidate space whose repeats
// the memo absorbs. One line per case. Regenerate intentionally with:
//
//	go test ./internal/pareto -run TestGoldenReports -update
func TestGoldenReports(t *testing.T) {
	ctx := context.Background()
	opts := evolveTestOpts(t)
	_, exploreOpts := testSpace()

	typed, err := Space{
		Meshes:    []MeshDim{{2, 1}, {2, 2}},
		Dataflows: []string{"OS"},
		Types:     []string{"simba", "eco"},
	}.EnumerateTyped(64)
	if err != nil {
		t.Fatal(err)
	}
	typed = append(typed, typed[0], typed[len(typed)-1])

	hetero := Space{
		Meshes:    []MeshDim{{2, 2}, {3, 2}},
		Dataflows: []string{"OS", "WS"},
		Types:     []string{"simba", "eco", "big"},
	}
	tiny := Space{Meshes: []MeshDim{{2, 1}}, Dataflows: []string{"OS", "WS"}}

	explore := func(noPrune bool) func(Options) (Report, error) {
		return func(o Options) (Report, error) {
			o.NoPrune = noPrune
			return Explore(ctx, Space{}, o)
		}
	}
	evolve := func(space Space, seed uint64) func(Options) (Report, error) {
		return func(o Options) (Report, error) {
			return Evolve(ctx, space, EvolveOptions{Options: o, Generations: 4, Population: 8, Seed: seed})
		}
	}
	cases := []struct {
		name string
		opts Options
		run  func(o Options) (Report, error)
	}{
		{"explore-default", exploreOpts, explore(false)},
		{"explore-default-noprune", exploreOpts, explore(true)},
		{"candidates-typed-dups", opts, func(o Options) (Report, error) {
			return ExploreCandidates(ctx, typed, o)
		}},
		{"evolve-hetero-seed1", opts, evolve(hetero, 1)},
		{"evolve-hetero-seed7", opts, evolve(hetero, 7)},
		{"evolve-tiny-seed1", opts, evolve(tiny, 1)},
		{"evolve-tiny-seed7", opts, evolve(tiny, 7)},
	}

	var out strings.Builder
	for _, c := range cases {
		o := c.opts
		o.Engine = sweep.New(1)
		rep, err := c.run(o)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		out.WriteString(c.name + " " + string(b) + "\n")
	}

	path := filepath.Join("testdata", "reports.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	got := strings.SplitAfter(out.String(), "\n")
	wantLines := strings.SplitAfter(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%s holds %d lines, run produced %d (regenerate with -update if intentional)",
			path, len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("line %d drifted from %s (regenerate with -update if intentional)\n got: %s\nwant: %s",
				i+1, path, got[i], wantLines[i])
		}
	}
}
