package experiments

import (
	"context"
	"fmt"

	"mcmnpu/internal/chiplet"
	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/dse"
	"mcmnpu/internal/report"
	"mcmnpu/internal/sched"
	"mcmnpu/internal/sweep"
	"mcmnpu/internal/workloads"
)

// Grid wiring: the named experiment scenarios a sweep.Engine can run
// concurrently. This lives here rather than in internal/sweep so the
// engine stays a pure execution layer (workers, cancellation, reduce)
// while the domain knowledge — which experiments exist and how they
// render — stays with the experiments.
//
// Each grid experiment has exactly one implementation: a plan
// constructor (cameraPlan, meshPlan, ...) that declares the
// experiment's individual points, one schedule build each, and returns
// the typed rows those points fill. The engine interleaves the points of
// every scenario across its pool and memoizes through its own cache; a
// one-worker engine is the serial run. testdata/grid.golden pins every
// rendered byte.

// engineSchedOptions is schedOptions with the engine's per-engine cache
// instead of the package-global one: grid points share memoized
// evaluations with the engine's DSE explorations and with each other,
// without contending with harnesses running on other engines.
func engineSchedOptions(e *sweep.Engine) sched.Options {
	o := sched.DefaultOptions()
	o.Cache = e.Cache()
	return o
}

// simba36Template compiles cfg's pipeline against the paper's 6x6 OS
// package: the shared template of the sweeps that vary only the NoP
// parameters or the solver options.
func simba36Template(cfg workloads.Config) (*sched.Template, error) {
	p, err := workloads.Perception(cfg)
	if err != nil {
		return nil, err
	}
	return sched.NewTemplate(p, chiplet.Simba36(dataflow.OS))
}

// pointPlan assembles the GridPlan of a sweep whose point i computes
// rows[i], and returns the rows it fills. point must be goroutine-safe;
// render runs once, after every point succeeded, on the rows in point
// order.
func pointPlan[R any](n int, weight func(i int) float64, point func(i int) (R, error), render func([]R) *report.Table) (sweep.GridPlan, []R) {
	rows := make([]R, n)
	return sweep.GridPlan{
		Points: n,
		Weight: weight,
		Run: func(_ context.Context, i int) error {
			r, err := point(i)
			if err != nil {
				return err
			}
			rows[i] = r
			return nil
		},
		Finish: func() (*report.Table, error) { return render(rows), nil },
	}, rows
}

// scanSpace is the serial candidate scan of one (space, wsCount) pin —
// the same fold ExploreSpace distributes, so the result is bit-for-bit
// identical to the engine's parallel reduce. Grid points use it because
// each point is already inside a pool worker; fanning the masks again
// would only oversubscribe the pool.
func scanSpace(sp *dse.Space, wsCount int) dse.Result {
	cands := sp.Candidates(wsCount)
	sc := sp.NewScanner(wsCount)
	for i, c := range cands {
		sc.Scan(c, i)
	}
	return sc.Finish(len(cands))
}

// DefaultLcstrPoints are the latency-constraint points of the DSE Lcstr
// scenario (ms), bracketing the paper's 85 ms operating point.
var DefaultLcstrPoints = []float64{60, 70, 85, 100}

// lcstrPlan is the "dse-lcstr" grid scenario: Table I's Het(2)
// exploration re-run under each latency constraint of
// DefaultLcstrPoints, showing how the feasible heterogeneous frontier
// moves as Lcstr tightens.
func lcstrPlan(e *sweep.Engine, cfg workloads.Config) (sweep.GridPlan, []dse.Result, error) {
	lcstrs := DefaultLcstrPoints
	cfg.LaneContext = 0.6 // Table I's operating point (Fig 11)
	// One cost table for all Lcstr points: the constraint only gates
	// feasibility, never costs.
	base := dse.NewCachedSpace(workloads.Trunks(cfg), 9, lcstrs[0], e.Cache())
	plan, results := pointPlan(len(lcstrs),
		func(int) float64 { return 4 },
		func(i int) (dse.Result, error) { return scanSpace(base.WithLcstr(lcstrs[i]), 2), nil },
		func(results []dse.Result) *report.Table {
			t := report.NewTable("DSE — Het(2) trunks integration vs latency constraint",
				"Lcstr(ms)", "E2E Lat(ms)", "Pipe Lat(ms)", "Energy(J)", "EDP(ms*J)", "WS nets", "Feasible")
			for i, l := range lcstrs {
				r := results[i]
				t.AddRow(l, r.E2EMs, r.PipeLatMs, r.EnergyJ, r.EDP,
					fmt.Sprintf("%d", len(r.WSNets)), fmt.Sprintf("%v", r.Feasible))
			}
			return t
		})
	return plan, results, nil
}

// planFunc is the shape every grid plan constructor shares.
type planFunc[R any] func(e *sweep.Engine, cfg workloads.Config) (sweep.GridPlan, []R, error)

// prepare adapts a plan constructor to ShardedScenario.Prepare: the
// grid needs only the plan; the typed rows are for direct callers.
func prepare[R any](e *sweep.Engine, build planFunc[R]) func(context.Context, workloads.Config) (sweep.GridPlan, error) {
	return func(_ context.Context, cfg workloads.Config) (sweep.GridPlan, error) {
		plan, _, err := build(e, cfg)
		return plan, err
	}
}

// ShardedGrid returns the standard experiment grid for
// Engine.RunGridSharded: the sweeps the paper varies one at a time
// (camera count, temporal queue depth, NoP link parameters, mesh size,
// scheduler tolerance), the mesh x dataflow Pareto frontier summary,
// and the DSE Lcstr sweep. Weights are rough Build cost estimates
// (chiplet count of the point's mesh, scaled by replica or iteration
// pressure where it matters) so the pool starts the 12x12 builds before
// the 4x4 ones.
func ShardedGrid(e *sweep.Engine) []sweep.ShardedScenario {
	return []sweep.ShardedScenario{
		{Name: "cameras", Prepare: prepare(e, cameraPlan)},
		{Name: "temporal-depth", Prepare: prepare(e, temporalPlan)},
		{Name: "nop-bandwidth", Prepare: prepare(e, nopPlan)},
		{Name: "mesh-size", Prepare: prepare(e, meshPlan)},
		{Name: "frontier", Prepare: prepare(e, frontierPlan)},
		{Name: "tolerance", Prepare: prepare(e, tolerancePlan)},
		{Name: "dse-lcstr", Prepare: prepare(e, lcstrPlan)},
	}
}

// GridScenarioNames returns the sharded grid's scenario names in run
// order — the vocabulary a grid-sweep request selects from. The
// closures ShardedGrid builds are never invoked, so no engine is
// needed.
func GridScenarioNames() []string {
	all := ShardedGrid(nil)
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name
	}
	return names
}
