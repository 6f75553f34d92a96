// Package sched implements the paper's core contribution: the nested
// greedy throughput-matching scheduler (Algorithm 1) that maps the
// four-stage perception pipeline onto a multi-chiplet NPU.
//
// The scheduler works on Units — contiguous runs of layers from one
// model instance. A unit can be data-parallel sharded across several
// chiplets (weights replicated, rows/batch split) or, when it spans
// multiple layers, split into pipeline segments. The outer greedy loop
// matches every stage's pipelining latency to the base stage (FE+BFPN);
// the inner loop shards the bottleneck unit of the bottleneck stage.
// Surplus (idle) chiplets migrate from over-provisioned stages to
// bottleneck stages, reproducing the paper's Figures 5-8 mappings and
// the Fig 10 dual-NPU progression.
//
// Unit costing is incremental. A unit's cost is a pure function of its
// nodes (fixed at construction), its shard count and the accelerator it
// is evaluated on, so each Unit memoizes its last evaluation keyed by
// (accelerator pointer, Shards). A stage refresh after a greedy step
// re-costs only the units that step touched: the new segments of a
// split, a unit whose shard count changed, or every unit of a stage
// whose reference chiplet (Pool[0]) moved when a borrow reshaped its
// pool. A rollback restores Shards, so the memo misses and the unit
// re-costs to exactly its earlier values. The heterogeneous probe keeps
// its own per-(accelerator, Shards) memo. The bookkeeping between steps
// (busy and idle chiplets, per-chiplet loads) uses dense slices indexed
// by mesh position rather than maps.
package sched

import (
	"fmt"

	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/dnn"
	"mcmnpu/internal/nop"
)

// Unit is one schedulable piece of work: a contiguous (in topological
// order) run of layers from one model instance.
type Unit struct {
	StageIdx int
	Model    string
	Replica  int
	Nodes    []*dnn.Node

	// Shards is the data-parallel split factor (only meaningful for
	// single-node units; multi-node units split into segments instead).
	Shards int64

	// Chiplets holds the mesh positions of every shard (len == Shards).
	Chiplets []nop.Coord

	// Derived costs (per shard; all shards run concurrently).
	PerShardMs float64
	EnergyJ    float64 // total across shards
	MACs       int64   // total across shards

	// memo holds the costs of the last evalOn and probes the costs the
	// heterogeneous probe evaluated on other accelerators. A unit's cost
	// is a pure function of (Nodes, Shards, accelerator), and Nodes
	// never changes after construction, so Algorithm 1 re-costs only
	// units whose shard count or reference accelerator moved.
	memo   unitCost
	probes []unitCost
}

// unitCost is one memoized evaluation of a unit: its costs on accel at
// a shard count.
type unitCost struct {
	accel  *costmodel.Accel
	shards int64
	ms, ej float64
	macs   int64
}

// Label returns a stable display name for the unit.
func (u *Unit) Label() string {
	name := u.Nodes[0].Layer.Name
	if len(u.Nodes) > 1 {
		name = fmt.Sprintf("%s..%s", u.Nodes[0].Layer.Name, u.Nodes[len(u.Nodes)-1].Layer.Name)
	}
	if u.Replica > 0 {
		return fmt.Sprintf("%s[%d]", name, u.Replica)
	}
	return name
}

// evalOn computes the unit's per-shard latency and total energy on the
// given accelerator. For multi-node units the nodes run serially on one
// chiplet; for sharded single-node units each shard holds a 1/Shards
// slice with weights replicated. Costs go through the cache (nil is
// valid and evaluates uncached). The result is memoized on the unit
// against (accelerator, Shards): a repeat call with neither changed —
// every unit a greedy step did not touch — returns the memo without a
// single cache lookup. A rolled-back shard count or a new reference
// chiplet misses and re-costs.
func (u *Unit) evalOn(a *costmodel.Accel, cache *costmodel.Cache) error {
	if u.memo.accel == a && u.memo.shards == u.Shards {
		u.setCost(u.memo)
		return nil
	}
	c, err := u.cost(a, cache)
	if err != nil {
		return err
	}
	u.setCost(c)
	return nil
}

// setCost publishes c as the unit's costs and memoizes it.
func (u *Unit) setCost(c unitCost) {
	u.memo = c
	u.PerShardMs, u.EnergyJ, u.MACs = c.ms, c.ej, c.macs
}

// probeMs returns the unit's per-shard latency on a at its current
// shard count without touching its reference costs, memoized per
// (accelerator, Shards): the heterogeneous probe of refresh asks the
// same few questions on every greedy iteration.
func (u *Unit) probeMs(a *costmodel.Accel, cache *costmodel.Cache) (float64, error) {
	for _, p := range u.probes {
		if p.accel == a && p.shards == u.Shards {
			return p.ms, nil
		}
	}
	c, err := u.cost(a, cache)
	if err != nil {
		return 0, err
	}
	u.probes = append(u.probes, c)
	return c.ms, nil
}

// cost evaluates the unit on a at its current shard count.
func (u *Unit) cost(a *costmodel.Accel, cache *costmodel.Cache) (unitCost, error) {
	c := unitCost{accel: a, shards: u.Shards}
	for _, n := range u.Nodes {
		lc, err := cache.ShardedLayerOn(n.Layer, u.Shards, a)
		if err != nil {
			return unitCost{}, fmt.Errorf("sched: unit %s: %w", u.Label(), err)
		}
		c.ms += lc.LatencyMs
		c.ej += lc.EnergyJ * float64(u.Shards)
		c.macs += n.Layer.MACs()
	}
	return c, nil
}

// maxShards returns the largest useful shard factor for the unit.
func (u *Unit) maxShards() int64 {
	if len(u.Nodes) != 1 {
		return 1 // multi-node units segment instead of sharding
	}
	return u.Nodes[0].Layer.MaxShard()
}

// nextShards returns the next efficient shard count above the current
// one: the next divisor of the batch extent for batch-sharded layers
// (splitting 12 frames 5-ways wastes the ceiling share), otherwise
// +1 for row-sharded layers. Returns current if exhausted.
func (u *Unit) nextShards(poolSize int) int64 {
	if len(u.Nodes) != 1 {
		return u.Shards
	}
	l := u.Nodes[0].Layer
	max := u.maxShards()
	if int64(poolSize) < max {
		max = int64(poolSize)
	}
	if u.Shards >= max {
		return u.Shards
	}
	if l.ShardDim == "batch" && l.Nest.Batch > 1 {
		b := l.Nest.Batch
		for n := u.Shards + 1; n <= max; n++ {
			if b%n == 0 {
				return n
			}
		}
		return u.Shards
	}
	return u.Shards + 1
}

// canSegment reports whether the unit spans multiple layers and can be
// split into pipeline segments.
func (u *Unit) canSegment() bool { return len(u.Nodes) > 1 }

// segment splits the unit into two pipeline segments at the balanced
// cumulative-latency point (the paper splits FE+BFPN at the fourth
// ResNet block this way in the dual-NPU study). Costs are computed on a
// through the cache (nil evaluates uncached), one lookup per node: the
// halves' costs are summed from the same per-node costs that place the
// cut.
func (u *Unit) segment(a *costmodel.Accel, cache *costmodel.Cache) (*Unit, *Unit, error) {
	if !u.canSegment() {
		return nil, nil, fmt.Errorf("sched: unit %s cannot segment", u.Label())
	}
	n := len(u.Nodes)
	buf := make([]float64, 2*n)
	lat, ej := buf[:n], buf[n:]
	var total float64
	for i, nd := range u.Nodes {
		c := cache.LayerOn(nd.Layer, a)
		lat[i], ej[i] = c.LatencyMs, c.EnergyJ
		total += lat[i]
	}
	var acc float64
	cut := 1
	bestDiff := total
	for i := 0; i < n-1; i++ {
		acc += lat[i]
		diff := abs64(acc - (total - acc))
		if diff < bestDiff {
			bestDiff = diff
			cut = i + 1
		}
	}
	first := &Unit{StageIdx: u.StageIdx, Model: u.Model, Replica: u.Replica,
		Nodes: u.Nodes[:cut], Shards: 1}
	second := &Unit{StageIdx: u.StageIdx, Model: u.Model, Replica: u.Replica,
		Nodes: u.Nodes[cut:], Shards: 1}
	first.setCost(unshardedCost(a, first.Nodes, lat[:cut], ej[:cut]))
	second.setCost(unshardedCost(a, second.Nodes, lat[cut:], ej[cut:]))
	return first, second, nil
}

// unshardedCost sums a one-shard unit's cost from its nodes' layer
// latencies and energies in node order. A layer's one-way shard is a
// field-for-field copy of it, so this is bit-for-bit what cost returns
// at Shards == 1, without a second lookup per node.
func unshardedCost(a *costmodel.Accel, nodes []*dnn.Node, lat, ej []float64) unitCost {
	c := unitCost{accel: a, shards: 1}
	for i, nd := range nodes {
		c.ms += lat[i]
		c.ej += ej[i]
		c.macs += nd.Layer.MACs()
	}
	return c
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// outputBytes returns the bytes the unit emits downstream (int8
// activations of its terminal node).
func (u *Unit) outputBytes() int64 {
	return u.Nodes[len(u.Nodes)-1].Layer.OutputElems()
}

// containsNode reports whether the unit holds the given node.
func (u *Unit) containsNode(id int) bool {
	for _, n := range u.Nodes {
		if n.ID == id {
			return true
		}
	}
	return false
}

// sortCoords orders coordinates row-major. Insertion sort: placements
// hold 1-18 coordinates, and it allocates nothing.
func sortCoords(cs []nop.Coord) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && coordLess(cs[j], cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

func coordLess(a, b nop.Coord) bool {
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.X < b.X
}
