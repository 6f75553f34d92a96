package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenEvaluate pins the -table1 -ablations stdout byte for byte:
// Table I and the grid-backed ablation tables, in CLI order. Regenerate
// intentionally with:
//
//	go test ./cmd/evaluate -run TestGoldenEvaluate -update
func TestGoldenEvaluate(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-table1", "-ablations"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	path := filepath.Join("testdata", "evaluate.golden")
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
	if out.String() != string(want) {
		t.Errorf("output drifted from %s (regenerate with -update if intentional)\n got:\n%s\nwant:\n%s",
			path, out.String(), want)
	}
}
