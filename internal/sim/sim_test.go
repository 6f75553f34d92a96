package sim

import (
	"math"
	"testing"

	"mcmnpu/internal/chiplet"
	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/nop"
	"mcmnpu/internal/sched"
	"mcmnpu/internal/trace"
	"mcmnpu/internal/workloads"
)

func buildSchedule(t *testing.T) *sched.Schedule {
	t.Helper()
	p, err := workloads.Perception(workloads.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Build(p, chiplet.Simba36(dataflow.OS), sched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunBasics(t *testing.T) {
	s := buildSchedule(t)
	r, err := Run(s, 8, trace.NewGenerator(1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Frames != 8 || r.MakespanMs <= 0 || r.AvgFrameLatencyMs <= 0 {
		t.Fatalf("bad result: %+v", r)
	}
	if len(r.FrameLatenciesMs) != 8 {
		t.Errorf("frame latencies = %d", len(r.FrameLatenciesMs))
	}
	if r.UtilPct <= 0 || r.UtilPct > 100 {
		t.Errorf("util = %.2f", r.UtilPct)
	}
}

func TestSteadyStateMatchesAnalyticalPipe(t *testing.T) {
	s := buildSchedule(t)
	r, err := Run(s, 16, trace.NewGenerator(2))
	if err != nil {
		t.Fatal(err)
	}
	analytic := s.PipeLatMs()
	rel := math.Abs(r.SteadyIntervalMs-analytic) / analytic
	// The event-driven run carries gang-scheduling and dependency
	// serialization the analytical model idealizes away; they should
	// still agree within 35%.
	if rel > 0.35 {
		t.Errorf("steady interval %.1f ms vs analytic pipe %.1f ms (%.0f%% apart)",
			r.SteadyIntervalMs, analytic, rel*100)
	}
	if r.SteadyIntervalMs < analytic*0.95 {
		t.Errorf("simulated interval %.1f cannot beat the analytic bound %.1f",
			r.SteadyIntervalMs, analytic)
	}
}

func TestDeterminism(t *testing.T) {
	s := buildSchedule(t)
	r1, err := Run(s, 6, trace.NewGenerator(9))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(s, 6, trace.NewGenerator(9))
	if err != nil {
		t.Fatal(err)
	}
	if r1.MakespanMs != r2.MakespanMs || r1.SteadyIntervalMs != r2.SteadyIntervalMs {
		t.Error("same seed must give identical simulation results")
	}
}

func TestFrameLatencyAtLeastCriticalPath(t *testing.T) {
	s := buildSchedule(t)
	r, err := Run(s, 4, trace.NewGenerator(3))
	if err != nil {
		t.Fatal(err)
	}
	// Any frame's latency is at least the sum of per-stage chain minima:
	// use the first stage's unit latency as a crude lower bound.
	min := s.Stages[0].Units[0].PerShardMs
	for _, l := range r.FrameLatenciesMs {
		if l < min {
			t.Errorf("frame latency %.2f below single-stage bound %.2f", l, min)
		}
	}
}

func TestMoreFramesMoreMakespan(t *testing.T) {
	s := buildSchedule(t)
	r4, _ := Run(s, 4, trace.NewGenerator(5))
	r12, _ := Run(s, 12, trace.NewGenerator(5))
	if r12.MakespanMs <= r4.MakespanMs {
		t.Errorf("12-frame makespan %.1f should exceed 4-frame %.1f",
			r12.MakespanMs, r4.MakespanMs)
	}
}

func TestRunErrors(t *testing.T) {
	s := buildSchedule(t)
	if _, err := Run(s, 0, nil); err == nil {
		t.Error("zero frames should error")
	}
	if _, err := Run(s, 2, nil); err != nil {
		t.Errorf("nil generator should default: %v", err)
	}
}

func TestLinkAccounting(t *testing.T) {
	s := buildSchedule(t)
	g, err := Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	r, err := g.Run(8, trace.NewGenerator(4))
	if err != nil {
		t.Fatal(err)
	}
	links := g.LinkBytes(8)
	if len(links) == 0 || r.BusiestLinkBytes <= 0 {
		t.Fatal("no link traffic recorded")
	}
	// The paper's conclusion: the NoP never becomes the bottleneck.
	// Even the busiest link stays well under its 100 GB/s capacity.
	if r.LinkUtilizationPct > 50 {
		t.Errorf("busiest link at %.1f%% of capacity; expected << 100%%",
			r.LinkUtilizationPct)
	}
	var total, busiest int64
	for _, b := range links {
		total += b
		if b > busiest {
			busiest = b
		}
	}
	if busiest != r.BusiestLinkBytes {
		t.Errorf("busiest link in LinkBytes %d, Result reports %d", busiest, r.BusiestLinkBytes)
	}
	if total < r.BusiestLinkBytes {
		t.Error("total link traffic below busiest link")
	}
	// Every frame moves the same bytes: traffic scales with the count.
	for l, b := range g.LinkBytes(1) {
		if links[l] != 8*b {
			t.Errorf("link %v: %d bytes over 8 frames, %d over 1", l, links[l], b)
		}
	}
}

// TestChipletBusyAlignedWithCoords pins the Result's busy slice to
// Graph.Coords: entry i is the busy time of Coords()[i], which is every
// frame's run of each unit placed on that chiplet, and Coords is
// row-major.
func TestChipletBusyAlignedWithCoords(t *testing.T) {
	s := buildSchedule(t)
	g, err := Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	const frames = 8
	r, err := g.Run(frames, trace.NewGenerator(6))
	if err != nil {
		t.Fatal(err)
	}
	coords := g.Coords()
	if len(r.ChipletBusyMs) != len(coords) {
		t.Fatalf("%d busy entries for %d chiplets", len(r.ChipletBusyMs), len(coords))
	}
	want := map[nop.Coord]float64{}
	for _, d := range g.defs {
		for _, c := range d.unit.Chiplets {
			want[c] += frames * d.unit.PerShardMs
		}
	}
	for i, c := range coords {
		if i > 0 && (c.Y < coords[i-1].Y || c.Y == coords[i-1].Y && c.X <= coords[i-1].X) {
			t.Errorf("coords not row-major at %d: %v after %v", i, c, coords[i-1])
		}
		if got := r.ChipletBusyMs[i]; math.Abs(got-want[c]) > 1e-9*want[c] {
			t.Errorf("chiplet %v busy %.6f ms, want %.6f", c, got, want[c])
		}
	}
}
