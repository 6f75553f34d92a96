package sched

import (
	"fmt"
	"slices"

	"mcmnpu/internal/chiplet"
	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/nop"
)

// StageSchedule holds the mapping of one pipeline stage onto its chiplet
// pool.
type StageSchedule struct {
	Name  string
	Index int
	Pool  []nop.Coord
	Units []*Unit

	// Derived metrics (recomputed by refresh).
	PipeLatMs  float64 // max per-chiplet busy time (layerwise pipelining)
	E2EMs      float64 // critical-path latency through the stage, incl NoP
	EnergyJ    float64 // compute energy (NoP accounted separately)
	MACs       int64
	NoPLatMs   float64
	NoPEnergyJ float64
	Transfers  []nop.Transfer

	mcm   *chiplet.MCM
	cache *costmodel.Cache

	// Reusable working state: Algorithm 1 refreshes each stage dozens
	// of times per schedule, so per-refresh slices are owned by the
	// stage and cleared instead of reallocated.
	scratch stageScratch
}

// chainGroup identifies one (replica, model) serial unit chain of the
// stage.
type chainGroup struct {
	replica int
	model   string
}

type stageScratch struct {
	order   []*Unit
	weights []float64 // order's LPT weights, sorted alongside it
	loads   []float64 // per-pool-index packed load (place)
	sel     []int32   // pool indices picked for one unit (place)
	groups  []chainGroup
	idle    []nop.Coord

	// Dense per-mesh-position state, indexed by meshIdx: the stage's
	// per-chiplet load (computeMetrics) and busy marks (idleCoords).
	meshLoad []float64
	meshBusy []bool

	// Pool homogeneity, decided once per pool change rather than per
	// (unit, chiplet) pair: odd marks (by mesh position) the pool
	// chiplets whose configuration differs from the reference
	// chiplet's, hetero reports whether any does, and oddPool is the
	// pool the marks were computed for.
	odd     []bool
	hetero  bool
	oddPool []nop.Coord
}

// meshIdx is c's dense row-major index on the stage's mesh.
func (ss *StageSchedule) meshIdx(c nop.Coord) int { return c.Y*ss.mcm.GridW + c.X }

// meshSize is the number of mesh positions of the stage's package.
func (ss *StageSchedule) meshSize() int { return ss.mcm.GridW * ss.mcm.GridH }

// refresh re-evaluates unit costs, re-places units onto the pool (LPT),
// and recomputes the stage metrics. Only units a greedy step touched
// are re-costed: evalOn answers the rest from their memo.
//
//perf:hot — called per improvement iteration per stage; uses stageScratch, not fresh slices
func (ss *StageSchedule) refresh() error {
	if len(ss.Pool) == 0 {
		return fmt.Errorf("sched: stage %s has an empty chiplet pool", ss.Name)
	}
	// Evaluate on the pool's reference accelerator.
	ref := ss.mcm.At(ss.Pool[0])
	for _, u := range ss.Units {
		if u.Shards > int64(len(ss.Pool)) {
			u.Shards = int64(len(ss.Pool))
		}
		if err := u.evalOn(ref, ss.cache); err != nil {
			return err
		}
	}
	ss.place()
	if ss.markOdd(ref) {
		if err := ss.probeHetero(); err != nil {
			return err
		}
	}
	ss.computeMetrics()
	return nil
}

// markOdd refreshes the pool's homogeneity marks when the pool changed
// since the last call and reports whether any pool chiplet differs
// from the reference accelerator ref (the chiplet at Pool[0]).
func (ss *StageSchedule) markOdd(ref *costmodel.Accel) bool {
	sc := &ss.scratch
	if sc.odd != nil && slices.Equal(sc.oddPool, ss.Pool) {
		return sc.hetero
	}
	if sc.odd == nil {
		sc.odd = make([]bool, ss.meshSize())
	} else {
		clear(sc.odd)
	}
	sc.hetero = false
	for _, c := range ss.Pool {
		if a := ss.mcm.At(c); a != ref && !costmodel.AccelEquivalent(a, ref) {
			sc.odd[ss.meshIdx(c)] = true
			sc.hetero = true
		}
	}
	sc.oddPool = append(sc.oddPool[:0], ss.Pool...)
	return sc.hetero
}

// probeHetero re-evaluates units placed on a heterogeneous pool against
// their actual chiplets: a unit's per-shard latency becomes its slowest
// shard's. A chiplet whose configuration equals the reference would
// probe to exactly u.PerShardMs — the cost model reads values, not
// identities — so only the chiplets markOdd flagged probe, through the
// unit's per-(accelerator, shard count) probe memo (typed packages
// share one accel instance per type, so a unit spread over k chiplets
// of one non-reference type costs one probe, not k).
func (ss *StageSchedule) probeHetero() error {
	for _, u := range ss.Units {
		worst := 0.0
		for _, c := range u.Chiplets {
			if !ss.scratch.odd[ss.meshIdx(c)] {
				worst = maxf(worst, u.PerShardMs)
				continue
			}
			ms, err := u.probeMs(ss.mcm.At(c), ss.cache)
			if err != nil {
				return err
			}
			worst = maxf(worst, ms)
		}
		if worst > 0 {
			u.PerShardMs = worst
		}
	}
	return nil
}

// place assigns each unit's shards to chiplets with longest-processing-
// time-first packing: heavier units claim the least-loaded chiplets.
// Loads are tracked per pool index — plain array reads in the
// selection loop, no coordinate hashing.
func (ss *StageSchedule) place() {
	if cap(ss.scratch.loads) < len(ss.Pool) {
		ss.scratch.loads = make([]float64, len(ss.Pool))
	}
	loads := ss.scratch.loads[:len(ss.Pool)]
	clear(loads)
	// Heaviest first, stable: an insertion sort on precomputed weights
	// orders exactly as sort.SliceStable on the same comparison.
	order := append(ss.scratch.order[:0], ss.Units...)
	w := ss.scratch.weights[:0]
	for _, u := range order {
		w = append(w, u.PerShardMs*float64(u.Shards))
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && w[j] > w[j-1]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
			w[j], w[j-1] = w[j-1], w[j]
		}
	}
	ss.scratch.order, ss.scratch.weights = order, w
	for _, u := range order {
		n := int(u.Shards)
		if n > len(ss.Pool) {
			n = len(ss.Pool)
		}
		idxs := ss.leastLoaded(loads, n)
		// A unit's chiplet slice is its own (nothing else holds it past
		// a refresh), so the next placement reuses its backing array.
		coords := u.Chiplets[:0]
		for _, ix := range idxs {
			coords = append(coords, ss.Pool[ix])
		}
		sortCoords(coords)
		u.Chiplets = coords
		for _, ix := range idxs {
			loads[ix] += u.PerShardMs
		}
	}
}

// leastLoaded picks the n pool indices with minimal load, ties broken by
// pool order — the first n of a stable sort of the pool by load — by
// stable selection into a bounded buffer: a later index displaces the
// buffer's last entry only on a strictly smaller load.
func (ss *StageSchedule) leastLoaded(loads []float64, n int) []int32 {
	if n > len(loads) {
		n = len(loads)
	}
	sel := ss.scratch.sel[:0]
	for i := range loads {
		switch {
		case len(sel) < n:
			sel = append(sel, int32(i))
		case n > 0 && loads[i] < loads[sel[n-1]]:
			sel[n-1] = int32(i)
		default:
			continue
		}
		for j := len(sel) - 1; j > 0 && loads[sel[j]] < loads[sel[j-1]]; j-- {
			sel[j], sel[j-1] = sel[j-1], sel[j]
		}
	}
	ss.scratch.sel = sel
	return sel
}

// computeMetrics derives pipe latency, E2E, energy and intra-stage NoP
// traffic from the current placement.
func (ss *StageSchedule) computeMetrics() {
	if ss.scratch.meshLoad == nil {
		ss.scratch.meshLoad = make([]float64, ss.meshSize())
	}
	load := ss.scratch.meshLoad
	clear(load)
	ss.EnergyJ = 0
	ss.MACs = 0
	for _, u := range ss.Units {
		for _, c := range u.Chiplets {
			load[ss.meshIdx(c)] += u.PerShardMs
		}
		ss.EnergyJ += u.EnergyJ
		ss.MACs += u.MACs
	}
	ss.PipeLatMs = 0
	for _, l := range load {
		ss.PipeLatMs = maxf(ss.PipeLatMs, l)
	}

	// Intra-stage transfers: edges between units of the same instance.
	// Each (replica, model) group is one serial chain; groups are walked
	// in (replica, model) order — deterministic, where the map-based
	// predecessor visited replicas in random map order. Chain latencies
	// feed a max (order-free) and replica chains are value-symmetric, so
	// the visit order does not change any metric.
	ss.Transfers = ss.Transfers[:0]
	groups := ss.scratch.groups[:0]
	for _, u := range ss.Units {
		found := false
		for _, g := range groups {
			if g.replica == u.Replica && g.model == u.Model {
				found = true
				break
			}
		}
		if !found {
			groups = append(groups, chainGroup{replica: u.Replica, model: u.Model})
		}
	}
	ss.scratch.groups = groups
	for i := 1; i < len(groups); i++ {
		for j := i; j > 0 && (groups[j].replica < groups[j-1].replica ||
			(groups[j].replica == groups[j-1].replica && groups[j].model < groups[j-1].model)); j-- {
			groups[j], groups[j-1] = groups[j-1], groups[j]
		}
	}

	// E2E of the stage: the longest instance chain (replicas and trunk
	// models run concurrently when they own disjoint chiplets), floored
	// by the stage's busiest chiplet (instances forced onto a shared
	// chiplet serialize).
	ss.NoPLatMs, ss.NoPEnergyJ = 0, 0
	ss.E2EMs = 0
	for _, g := range groups {
		ss.E2EMs = maxf(ss.E2EMs, ss.chainPath(g))
	}
	ss.E2EMs = maxf(ss.E2EMs, ss.PipeLatMs)
	for _, t := range ss.Transfers {
		c := ss.mcm.NoP.Eval(t)
		ss.NoPLatMs += c.LatencyMs
		ss.NoPEnergyJ += c.EnergyJ
	}
}

// chainPath walks the units of one (replica, model) instance in
// construction order, summing per-shard latencies and inter-unit
// transfer latencies, and records the transfers. Units of the same
// instance are serial (they partition one model's layers).
func (ss *StageSchedule) chainPath(g chainGroup) float64 {
	var chain float64
	var prev *Unit
	for _, u := range ss.Units {
		if u.Replica != g.replica || u.Model != g.model {
			continue
		}
		if prev != nil {
			chain += ss.linkUnits(prev, u)
		}
		chain += u.PerShardMs
		prev = u
	}
	return chain
}

// linkUnits records the NoP transfers from producer u to consumer v and
// returns the added critical-path latency (the slowest single shard
// transfer; shard streams move in parallel).
func (ss *StageSchedule) linkUnits(u, v *Unit) float64 {
	bytes := u.outputBytes()
	if bytes <= 0 || len(u.Chiplets) == 0 || len(v.Chiplets) == 0 {
		return 0
	}
	per := bytes / int64(len(u.Chiplets))
	var worst float64
	for i, src := range u.Chiplets {
		dst := v.Chiplets[i%len(v.Chiplets)]
		t := nop.Transfer{Src: src, Dst: dst, Bytes: per, Label: u.Nodes[len(u.Nodes)-1].Layer.Name}
		ss.Transfers = append(ss.Transfers, t)
		worst = maxf(worst, ss.mcm.NoP.Eval(t).LatencyMs)
	}
	return worst
}

// idleCoords returns pool coords with no assigned work. The slice is
// stage scratch — valid until the next idleCoords call.
func (ss *StageSchedule) idleCoords() []nop.Coord {
	if ss.scratch.meshBusy == nil {
		ss.scratch.meshBusy = make([]bool, ss.meshSize())
	}
	busy := ss.scratch.meshBusy
	clear(busy)
	for _, u := range ss.Units {
		for _, c := range u.Chiplets {
			busy[ss.meshIdx(c)] = true
		}
	}
	idle := ss.scratch.idle[:0]
	for _, c := range ss.Pool {
		if !busy[ss.meshIdx(c)] {
			idle = append(idle, c)
		}
	}
	ss.scratch.idle = idle
	return idle
}

// bottleneckUnit returns the unit with the largest per-shard latency
// that can still be sharded or segmented; nil if none.
func (ss *StageSchedule) bottleneckUnit(skip map[*Unit]bool) *Unit {
	var best *Unit
	for _, u := range ss.Units {
		if skip[u] {
			continue
		}
		improvable := u.canSegment() || u.nextShards(len(ss.Pool)) > u.Shards
		if !improvable {
			continue
		}
		if best == nil || u.PerShardMs > best.PerShardMs {
			best = u
		}
	}
	return best
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
