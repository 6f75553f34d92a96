package pipeline

import (
	"testing"

	"mcmnpu/internal/chiplet"
	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/sched"
	"mcmnpu/internal/workloads"
)

func schedule(t *testing.T, m *chiplet.MCM, firstThree bool) *sched.Schedule {
	t.Helper()
	p, err := workloads.Perception(workloads.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if firstThree {
		p = p.FirstThreeStages()
	}
	s, err := sched.Build(p, m, sched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestModeString(t *testing.T) {
	if Stagewise.String() != "stagewise" || Layerwise.String() != "layerwise" {
		t.Error("mode strings")
	}
	if Mode(7).String() == "" {
		t.Error("unknown mode should stringify")
	}
}

func TestMetricsConsistency(t *testing.T) {
	s := schedule(t, chiplet.Simba36(dataflow.OS), false)
	for _, mode := range []Mode{Stagewise, Layerwise} {
		m := Compute(s, mode)
		if m.E2EMs <= 0 || m.PipeLatMs <= 0 || m.EnergyJ <= 0 {
			t.Fatalf("%v: non-positive metrics %+v", mode, m)
		}
		if m.PipeLatMs > m.E2EMs+1e-9 {
			t.Errorf("%v: pipe %.2f exceeds E2E %.2f", mode, m.PipeLatMs, m.E2EMs)
		}
		if edp := m.EnergyJ * m.PipeLatMs; edp != m.EDP {
			t.Errorf("%v: EDP mismatch", mode)
		}
		if m.UtilPct <= 0 || m.UtilPct > 100 {
			t.Errorf("%v: util = %.2f", mode, m.UtilPct)
		}
		if m.FPS <= 0 {
			t.Errorf("%v: FPS = %v", mode, m.FPS)
		}
	}
}

func TestStagewiseNeverFasterThanLayerwise(t *testing.T) {
	for _, mk := range []func() *chiplet.MCM{
		func() *chiplet.MCM { return chiplet.Simba36(dataflow.OS) },
		func() *chiplet.MCM { return chiplet.Baseline(2, dataflow.OS) },
	} {
		s := schedule(t, mk(), true)
		sw := Compute(s, Stagewise)
		lw := Compute(s, Layerwise)
		if sw.PipeLatMs < lw.PipeLatMs-1e-9 {
			t.Errorf("stagewise pipe %.2f < layerwise %.2f", sw.PipeLatMs, lw.PipeLatMs)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	// The paper's Table II orderings: utilization rises monotonically
	// from monolithic to 36x256; the MCM achieves the best (lowest)
	// layerwise EDP; the MCM spends more energy than the monolithic die.
	utils := make([]float64, 0, 4)
	edps := make([]float64, 0, 4)
	energies := make([]float64, 0, 4)
	mcms := []*chiplet.MCM{
		chiplet.Baseline(1, dataflow.OS),
		chiplet.Baseline(2, dataflow.OS),
		chiplet.Baseline(4, dataflow.OS),
		chiplet.Simba36(dataflow.OS),
	}
	for _, m := range mcms {
		s := schedule(t, m, true)
		lw := Compute(s, Layerwise)
		utils = append(utils, lw.UtilPct)
		edps = append(edps, lw.EDP)
		energies = append(energies, lw.EnergyJ)
	}
	for i := 1; i < len(utils); i++ {
		if utils[i] <= utils[i-1] {
			t.Errorf("utilization not increasing: %v", utils)
		}
	}
	for i := 0; i < 3; i++ {
		if edps[3] >= edps[i] {
			t.Errorf("36x256 EDP %.1f not best vs arrangement %d (%.1f)", edps[3], i, edps[i])
		}
	}
	if energies[3] <= energies[0] {
		t.Errorf("paper: the MCM pays an energy premium over monolithic; got %.3f vs %.3f",
			energies[3], energies[0])
	}
	// Paper: 2.8x utilization gain over monolithic; ours is >= 2x.
	if utils[3]/utils[0] < 2 {
		t.Errorf("utilization gain = %.2fx, want >= 2x", utils[3]/utils[0])
	}
}

func TestNoPTwoOrdersBelowCompute(t *testing.T) {
	// Paper Fig 9 observation (iii): NoP overheads are at least two
	// orders of magnitude below the computational costs.
	s := schedule(t, chiplet.Simba36(dataflow.OS), false)
	m := Compute(s, Layerwise)
	if m.NoPLatMs*25 > m.E2EMs {
		t.Errorf("NoP latency %.3f ms not << compute %.1f ms", m.NoPLatMs, m.E2EMs)
	}
	if m.NoPEnergyJ*20 > m.EnergyJ {
		t.Errorf("NoP energy %.4f J not << total %.3f J", m.NoPEnergyJ, m.EnergyJ)
	}
}

// TestPaperHeadlinePipeLatency: the paper's headline operating point is
// ~90 ms pipelining latency for the full pipeline on the 36-chiplet OS
// package.
func TestPaperHeadlinePipeLatency(t *testing.T) {
	m := Compute(schedule(t, chiplet.Simba36(dataflow.OS), false), Layerwise)
	if m.PipeLatMs <= 0 || m.EnergyJ <= 0 || m.FPS <= 0 {
		t.Fatalf("bad metrics: %+v", m)
	}
	if m.PipeLatMs < 60 || m.PipeLatMs > 120 {
		t.Errorf("pipe = %.1f ms, expected ~90", m.PipeLatMs)
	}
}

// TestPaperHeadlineMeetsCameraRate: the same operating point sustains the
// 5 FPS camera rate, and its throughput is finite.
func TestPaperHeadlineMeetsCameraRate(t *testing.T) {
	m := Compute(schedule(t, chiplet.Simba36(dataflow.OS), false), Layerwise)
	if m.FPS < 5 {
		t.Errorf("36-chiplet package should sustain 5 FPS (got %.1f)", m.FPS)
	}
	if m.FPS >= 1e6 {
		t.Errorf("nothing sustains a million FPS (got %.1f)", m.FPS)
	}
}
