// The evaluator: the one bound → prune → stream pipeline both explorers
// drive. bound fans every candidate x scenario pair across the sweep
// engine and aggregates the analytic lower bounds worst case across
// scenarios; settle walks the bounded candidates in ascending bound
// order and either prunes each one (its safety-discounted bound is
// already dominated by a realized frontier point) or streams it and
// offers the realized point to the frontier; report assembles the
// settled records and the frontier. Every candidate is bounded and
// settled at most once per evaluator, so the evolutionary explorer's
// genome re-encounters cost nothing.
//
// Determinism contract: the bound fan-out writes results by index and
// aggregates them in a serial loop, and every pruning/insertion
// decision happens in one serial loop over a totally ordered batch, so
// the worker count never changes which candidates are pruned or what
// the frontier contains.
package pareto

import (
	"context"
	"fmt"
	"sort"

	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/pipeline"
	"mcmnpu/internal/scenario"
	"mcmnpu/internal/sweep"
)

// evaluator is one exploration's evaluation state.
type evaluator struct {
	opts       Options
	objectives []string
	// pool runs the bound fan-out: opts.Engine, or a one-worker engine
	// (serial) when that is nil.
	pool *sweep.Engine

	recs     map[string]*Eval   // settled records by candidate name
	order    []string           // settle order
	pending  map[string]pending // bounded but not yet settled
	frontier Frontier

	simulated  int
	pruned     int
	infeasible int
}

// pending is one candidate's aggregated analytic bound: the Eval
// skeleton (lower bounds, PE counts, feasibility) plus the prepared
// scenarios a surviving candidate streams on, so the schedule the bound
// built is the one the full run uses.
type pending struct {
	e     Eval
	preps []*scenario.Prepared
}

func newEvaluator(opts Options) (*evaluator, error) {
	objectives, err := resolveObjectives(opts)
	if err != nil {
		return nil, err
	}
	pool := opts.Engine
	if pool == nil {
		pool = sweep.New(1)
	}
	return &evaluator{
		opts:       opts,
		objectives: objectives,
		pool:       pool,
		recs:       map[string]*Eval{},
		pending:    map[string]pending{},
	}, nil
}

// bound computes the analytic bounds of every listed candidate not
// already bounded or settled. Callers pass unique names.
func (ev *evaluator) bound(ctx context.Context, cands []Candidate) error {
	todo := make([]Candidate, 0, len(cands))
	names := make([]string, 0, len(cands))
	for _, c := range cands {
		n := c.Name()
		if _, ok := ev.recs[n]; ok {
			continue
		}
		if _, ok := ev.pending[n]; ok {
			continue
		}
		todo = append(todo, c)
		names = append(names, n)
	}
	if len(todo) == 0 {
		return nil
	}
	ns := len(ev.opts.Scenarios)
	raw := make([]pairBound, len(todo)*ns)
	err := ev.pool.Each(ctx, len(raw), func(i int) error {
		c, sp := todo[i/ns], ev.opts.Scenarios[i%ns]
		raw[i] = lowerBound(c.Apply(sp), ev.pool.Cache())
		return nil
	})
	if err != nil {
		return err
	}
	for ci, c := range todo {
		p := pending{e: Eval{Candidate: c, Name: names[ci]}}
		for _, b := range raw[ci*ns : (ci+1)*ns] {
			if b.err != nil {
				p.e.Infeasible = true
				if p.e.Reason == "" {
					p.e.Reason = b.err.Error()
				}
				continue
			}
			p.e.Chiplets, p.e.PEs = b.chips, b.pes
			p.e.LBLatMs = max(p.e.LBLatMs, b.latMs)
			p.e.LBEnergyJ = max(p.e.LBEnergyJ, b.energyJ)
			p.preps = append(p.preps, b.prep)
		}
		ev.pending[names[ci]] = p
	}
	return nil
}

// settle bounds the listed candidates where needed and decides every one
// not already settled, cheapest lower bound first (realizing
// likely-frontier points early maximizes pruning): infeasible, pruned,
// or streamed and offered to the frontier. Callers pass unique names.
func (ev *evaluator) settle(ctx context.Context, cands []Candidate) error {
	if err := ev.bound(ctx, cands); err != nil {
		return err
	}
	batch := make([]pending, 0, len(cands))
	for _, c := range cands {
		n := c.Name()
		if p, ok := ev.pending[n]; ok {
			delete(ev.pending, n)
			batch = append(batch, p)
		}
	}
	sort.Slice(batch, func(a, b int) bool {
		ea, eb := &batch[a].e, &batch[b].e
		if ea.LBLatMs != eb.LBLatMs {
			return ea.LBLatMs < eb.LBLatMs
		}
		if ea.LBEnergyJ != eb.LBEnergyJ {
			return ea.LBEnergyJ < eb.LBEnergyJ
		}
		if ea.PEs != eb.PEs {
			return ea.PEs < eb.PEs
		}
		return ea.Name < eb.Name
	})
	ropts := scenario.RunOptions{
		Frames:       ev.opts.Frames,
		WindowFrames: ev.opts.WindowFrames,
		Engine:       ev.opts.Engine,
	}
	for i := range batch {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Records point into the batch; only survivors keep their
		// prepared scenarios, and only until they have streamed.
		e, preps := &batch[i].e, batch[i].preps
		batch[i].preps = nil
		ev.recs[e.Name] = e
		ev.order = append(ev.order, e.Name)
		if e.Infeasible {
			ev.infeasible++
			continue
		}
		lb := objVec(ev.objectives, e.LBLatMs*lbSafety, e.LBEnergyJ, e.PEs)
		if !ev.opts.NoPrune && ev.frontier.DominatedBy(lb) {
			e.Pruned = true
			ev.pruned++
			continue
		}
		for _, prep := range preps {
			r, err := prep.Run(ctx, ropts)
			if err != nil {
				return fmt.Errorf("pareto %s: %w", e.Name, err)
			}
			e.P99Ms = max(e.P99Ms, r.P99Ms)
			e.EnergyJ = max(e.EnergyJ, r.EnergyPerFrameJ)
		}
		ev.simulated++
		ev.frontier.Add(Point{Name: e.Name, Vec: objVec(ev.objectives, e.P99Ms, e.EnergyJ, e.PEs)})
	}
	return nil
}

// report assembles the settled records in the given order, each flagged
// with its frontier membership (the frontier settles only after every
// insertion — late points can evict earlier ones), and the frontier in
// its canonical order.
func (ev *evaluator) report(order []string) Report {
	rep := Report{
		Objectives: ev.objectives,
		Evals:      make([]Eval, 0, len(order)),
		Evaluated:  ev.simulated,
		Pruned:     ev.pruned,
		Infeasible: ev.infeasible,
	}
	for _, sp := range ev.opts.Scenarios {
		rep.Scenarios = append(rep.Scenarios, sp.Name)
	}
	pts := ev.frontier.Points()
	on := make(map[string]bool, len(pts))
	for _, p := range pts {
		on[p.Name] = true
	}
	for _, n := range order {
		e := *ev.recs[n]
		e.OnFrontier = on[n]
		rep.Evals = append(rep.Evals, e)
	}
	for _, p := range pts {
		e := *ev.recs[p.Name]
		e.OnFrontier = true
		rep.Frontier = append(rep.Frontier, e)
	}
	return rep
}

// pairBound is one candidate x scenario analytic lower-bound sample. It
// retains the prepared scenario (compiled bundle + built schedule), so
// a candidate that survives pruning streams on the schedule the bound
// already built instead of rebuilding it serially.
type pairBound struct {
	latMs   float64
	energyJ float64
	pes     int64
	chips   int
	prep    *scenario.Prepared
	err     error
}

// lowerBound prepares one candidate-applied spec (compile + one
// schedule build) and reads the analytic pipeline metrics. Shared with
// the full run only through the layer-cost cache, so cached and
// uncached phases agree bit-for-bit.
func lowerBound(sp scenario.Spec, cache *costmodel.Cache) (b pairBound) {
	prep, err := scenario.Prepare(sp, cache)
	if err != nil {
		b.err = err
		return b
	}
	m := pipeline.Compute(prep.Schedule, pipeline.Layerwise)
	b.latMs = m.E2EMs
	b.energyJ = m.EnergyJ
	b.pes = prep.Bundle.MCM.TotalPEs()
	b.chips = prep.Bundle.MCM.Chiplets()
	b.prep = prep
	return b
}
