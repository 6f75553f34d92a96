package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"mcmnpu/internal/report"
	"mcmnpu/internal/workloads"
)

// squaresScenario is a minimal sharded scenario: point i writes i*i
// into its slot, Finish renders the slots in order. mul distinguishes
// scenarios; weights (when set) exercise the LPT dispatch order.
func squaresScenario(name string, points, mul int, weight func(int) float64, ran *[]int32) ShardedScenario {
	return ShardedScenario{
		Name: name,
		Prepare: func(ctx context.Context, cfg workloads.Config) (GridPlan, error) {
			rows := make([]int, points)
			hits := make([]int32, points)
			*ran = hits
			return GridPlan{
				Points: points,
				Weight: weight,
				Run: func(ctx context.Context, i int) error {
					atomic.AddInt32(&hits[i], 1)
					rows[i] = mul * i * i
					return nil
				},
				Finish: func() (*report.Table, error) {
					t := report.NewTable(name, "Point", "Value")
					for i, v := range rows {
						t.AddRow(i, v)
					}
					return t, nil
				},
			}, nil
		},
	}
}

func renderGrid(results []GridResult) string {
	var sb strings.Builder
	for _, r := range results {
		fmt.Fprintf(&sb, "scenario %s err=%v\n", r.Scenario, r.Err)
		if r.Table != nil {
			r.Table.Render(&sb)
		}
	}
	return sb.String()
}

func TestRunGridShardedRunsAllPointsOnce(t *testing.T) {
	var ranA, ranB []int32
	results := New(8).RunGridSharded(context.Background(), workloads.DefaultConfig(), []ShardedScenario{
		squaresScenario("a", 17, 1, nil, &ranA),
		squaresScenario("b", 5, 3, func(i int) float64 { return float64(i) }, &ranB),
	})
	if len(results) != 2 || results[0].Scenario != "a" || results[1].Scenario != "b" {
		t.Fatalf("results out of order: %+v", results)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("scenario %s: %v", r.Scenario, r.Err)
		}
		if r.Table == nil {
			t.Fatalf("scenario %s: no table", r.Scenario)
		}
		if r.ElapsedMs < 0 {
			t.Errorf("scenario %s: negative work time %v", r.Scenario, r.ElapsedMs)
		}
	}
	for _, hits := range [][]int32{ranA, ranB} {
		for i, h := range hits {
			if h != 1 {
				t.Errorf("point %d ran %d times, want exactly once", i, h)
			}
		}
	}
}

// TestRunGridShardedDeterministicAcrossWorkers: the assembled output —
// tables, errors, ordering — is bit-for-bit identical at any worker
// count and under any weight-driven dispatch order.
func TestRunGridShardedDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int, weight func(int) float64) string {
		var ranA, ranB, ranC []int32
		return renderGrid(New(workers).RunGridSharded(context.Background(), workloads.DefaultConfig(),
			[]ShardedScenario{
				squaresScenario("a", 9, 1, weight, &ranA),
				squaresScenario("b", 21, 2, nil, &ranB),
				squaresScenario("c", 3, 7, weight, &ranC),
			}))
	}
	want := run(1, nil)
	for _, workers := range []int{1, 2, 8, 32} {
		for _, weight := range []func(int) float64{nil, func(i int) float64 { return float64(-i) }} {
			if got := run(workers, weight); got != want {
				t.Fatalf("workers=%d output diverged:\n got:\n%s\nwant:\n%s", workers, got, want)
			}
		}
	}
}

// TestRunGridShardedPrepareErrorIsolated: one scenario's Prepare
// failure is recorded on that result only; the rest of the grid runs.
func TestRunGridShardedPrepareErrorIsolated(t *testing.T) {
	boom := errors.New("prepare boom")
	var ran []int32
	results := New(4).RunGridSharded(context.Background(), workloads.DefaultConfig(), []ShardedScenario{
		{Name: "bad", Prepare: func(context.Context, workloads.Config) (GridPlan, error) {
			return GridPlan{}, boom
		}},
		squaresScenario("good", 6, 1, nil, &ran),
	})
	if !errors.Is(results[0].Err, boom) {
		t.Errorf("bad scenario err = %v, want %v", results[0].Err, boom)
	}
	if results[1].Err != nil || results[1].Table == nil {
		t.Errorf("good scenario should have completed: %+v", results[1])
	}
}

// TestRunGridShardedPointErrorLowestIndex: when several points of one
// scenario fail, the scenario reports the lowest-indexed failure —
// deterministic no matter which worker hit its error first — and other
// scenarios are untouched.
func TestRunGridShardedPointErrorLowestIndex(t *testing.T) {
	err1, err3 := errors.New("point 1"), errors.New("point 3")
	flaky := ShardedScenario{
		Name: "flaky",
		Prepare: func(context.Context, workloads.Config) (GridPlan, error) {
			return GridPlan{
				Points: 6,
				// Heaviest-last weights dispatch point 3 before point 1.
				Weight: func(i int) float64 { return float64(-i) },
				Run: func(ctx context.Context, i int) error {
					switch i {
					case 1:
						return err1
					case 3:
						return err3
					}
					return nil
				},
				Finish: func() (*report.Table, error) {
					t.Error("Finish called on a failed scenario")
					return nil, nil
				},
			}, nil
		},
	}
	var ran []int32
	for _, workers := range []int{1, 8} {
		results := New(workers).RunGridSharded(context.Background(), workloads.DefaultConfig(),
			[]ShardedScenario{flaky, squaresScenario("good", 4, 1, nil, &ran)})
		if !errors.Is(results[0].Err, err1) {
			t.Errorf("workers=%d: err = %v, want lowest-indexed point error %v",
				workers, results[0].Err, err1)
		}
		if results[1].Err != nil {
			t.Errorf("workers=%d: point failure leaked into another scenario: %v",
				workers, results[1].Err)
		}
	}
}

// TestRunGridShardedPointPanicIsolated: a panicking point is recovered
// into its own scenario's error, keeping the value, and does not cancel
// the other scenarios' points.
func TestRunGridShardedPointPanicIsolated(t *testing.T) {
	boom := ShardedScenario{
		Name: "boom",
		Prepare: func(context.Context, workloads.Config) (GridPlan, error) {
			return GridPlan{
				Points: 3,
				Run: func(ctx context.Context, i int) error {
					if i == 1 {
						panic("bad point")
					}
					return nil
				},
				Finish: func() (*report.Table, error) {
					t.Error("Finish called on a panicked scenario")
					return nil, nil
				},
			}, nil
		},
	}
	var ran []int32
	for _, workers := range []int{1, 2} {
		results := New(workers).RunGridSharded(context.Background(), workloads.DefaultConfig(),
			[]ShardedScenario{boom, squaresScenario("good", 40, 1, nil, &ran)})
		var pe *PanicError
		if !errors.As(results[0].Err, &pe) || pe.Index != 1 || pe.Value != "bad point" {
			t.Errorf("workers=%d: err = %v, want the point-1 panic", workers, results[0].Err)
		}
		if results[1].Err != nil || results[1].Table == nil {
			t.Errorf("workers=%d: panic leaked into the healthy scenario: %v", workers, results[1].Err)
		}
	}
}

// TestRunGridShardedPreCancelled: a dead context marks every scenario
// with the cancellation cause instead of running anything.
func TestRunGridShardedPreCancelled(t *testing.T) {
	cause := errors.New("deadline blown")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	results := New(4).RunGridSharded(ctx, workloads.DefaultConfig(), []ShardedScenario{
		{Name: "never", Prepare: func(context.Context, workloads.Config) (GridPlan, error) {
			t.Error("Prepare called on a dead context")
			return GridPlan{}, nil
		}},
	})
	if !errors.Is(results[0].Err, cause) {
		t.Errorf("err = %v, want cancellation cause %v", results[0].Err, cause)
	}
}

// TestRunGridShardedCancellationMidRun: cancelling while points are in
// flight marks incomplete scenarios with the context error; no Finish
// runs for them.
func TestRunGridShardedCancellationMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once atomic.Bool
	stuck := ShardedScenario{
		Name: "stuck",
		Prepare: func(context.Context, workloads.Config) (GridPlan, error) {
			return GridPlan{
				Points: 64,
				Run: func(ctx context.Context, i int) error {
					if once.CompareAndSwap(false, true) {
						close(started)
					}
					<-ctx.Done()
					return nil
				},
				Finish: func() (*report.Table, error) {
					t.Error("Finish called after cancellation")
					return nil, nil
				},
			}, nil
		},
	}
	done := make(chan []GridResult, 1)
	go func() {
		done <- New(2).RunGridSharded(ctx, workloads.DefaultConfig(), []ShardedScenario{stuck})
	}()
	<-started
	cancel()
	results := <-done
	if !errors.Is(results[0].Err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", results[0].Err)
	}
}
