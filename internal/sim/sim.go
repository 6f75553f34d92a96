// Package sim is a discrete-event execution simulator for a built
// schedule: frame sets stream through the scheduled units with true
// chiplet contention (a chiplet serializes the units mapped to it) and
// NoP transfer latencies between dependent units. It validates the
// analytical pipelining latency of the scheduler — the steady-state
// inter-completion interval should match sched/pipeline's figure — and
// measures realized utilization and per-chiplet busy time.
//
// Engine: Run is event-driven. Tasks carry dependency counters and a
// global min-heap orders schedulable tasks by (feasible start, frame,
// construction order). Chiplet occupancy only ever pushes a task's
// feasible start later, so the heap is lazy: a popped entry whose start
// went stale is re-keyed in place instead of the whole ready set being
// rescanned. Frames are admitted lazily too: frames are visited in
// arrival order, and a frame's zero-dependency tasks enter the heap
// only once its arrival is no later than the heap top, so frames that
// have not arrived yet do not deepen the heap. The result is O(n log n)-ish against the O(n²)
// greedy rescan of RunGreedy while producing bit-for-bit identical
// results (same task order, same floating-point accumulation order) —
// TestEventDrivenMatchesGreedy holds the two engines together.
//
// Representation: every frame executes the same task DAG (dependencies
// never cross frames; arrivals only gate starts), so Prepare compiles
// the schedule once into a per-frame template — flat task definitions
// with CSR dependency/successor lists, dense chiplet indices and
// per-frame NoP link traffic — and Run instantiates `frames` copies of
// it arithmetically: global task seq = frame*T + template index, which
// reproduces the original frame-major construction order exactly. The
// event loop itself runs on pooled flat arrays (no per-task objects, no
// map lookups, no interface boxing in the heap), so a streaming run
// allocates little beyond its Result: per-frame latencies and the
// per-chiplet busy slice (aligned with Graph.Coords). Link traffic
// needs no simulation — it is the per-frame load times the frame
// count — so Graph.LinkBytes computes it on demand and the Result
// keeps only the busiest link's scalars.
package sim

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"mcmnpu/internal/nop"
	"mcmnpu/internal/sched"
	"mcmnpu/internal/trace"
)

// taskDef is one unit execution slot of the per-frame template. Deps,
// successors and chiplet indices are ranges into the Graph's shared
// CSR arrays.
type taskDef struct {
	unit  *sched.Unit
	durMs float64 // unit.PerShardMs at Prepare time

	depOff, depEnd     int32 // into Graph.depList / Graph.depExtra
	succOff, succEnd   int32 // into Graph.succList
	coordOff, coordEnd int32 // into Graph.coordList
}

// Graph is a schedule compiled for simulation: the per-frame task
// template plus everything Run needs that does not depend on the frame
// count. A Graph is immutable after Prepare and safe for concurrent
// Run calls — the scenario runner prepares once and fans trace windows
// across a worker pool.
type Graph struct {
	s    *sched.Schedule
	defs []taskDef

	depList  []int32   // template-local dependency indices
	depExtra []float64 // NoP latency charged on top of each dependency
	succList []int32   // template-local successor indices
	lastTmpl []int32   // template indices of the frame's terminal tasks
	seeds    []int32   // template indices of zero-dependency tasks, ascending

	coords    []nop.Coord // used chiplets, row-major order
	coordList []int32     // per-def dense indices into coords

	// Per-frame NoP link traffic (XY routes of every inter-unit
	// transfer); identical for every frame, so a run's totals are one
	// multiplication away.
	linkBytes map[nop.Link]int64
	maxLink   int64
}

// Result summarizes a simulation run.
type Result struct {
	Frames            int
	MakespanMs        float64
	AvgFrameLatencyMs float64
	// SteadyIntervalMs is the average inter-completion interval over the
	// second half of the run: the realized pipelining latency.
	SteadyIntervalMs float64
	ThroughputFPS    float64
	UtilPct          float64   // busy-PE-time / (PEs * makespan)
	ChipletBusyMs    []float64 // per chiplet, aligned with Graph.Coords
	FrameLatenciesMs []float64

	// The busiest NoP link's traffic over the whole run and its realized
	// bandwidth demand — evidence for the paper's claim that the NoP
	// never becomes the bottleneck. Graph.LinkBytes has every link.
	BusiestLinkBytes   int64
	BusiestLinkGBps    float64 // busiest link bytes / makespan
	LinkUtilizationPct float64 // busiest link demand / link bandwidth
}

// Prepare compiles the schedule's per-frame task template. The
// returned Graph snapshots unit latencies and placements, so it must
// be rebuilt if the schedule is modified.
func Prepare(s *sched.Schedule) (*Graph, error) {
	g := &Graph{s: s, linkBytes: map[nop.Link]int64{}}

	type tpl struct {
		unit  *sched.Unit
		deps  []int32
		extra []float64
	}
	var tpls []tpl
	var prevTerminals []int32
	nStages := len(s.Pipeline.Stages)
	for i := 0; i < nStages; i++ {
		chains := chainsOf(s.Stages[i])
		var terminals []int32
		for _, chain := range chains {
			prev := int32(-1)
			for k, u := range chain {
				t := tpl{unit: u}
				if prev >= 0 {
					t.deps = append(t.deps, prev)
					t.extra = append(t.extra, transferMs(s, chain[k-1], u))
				} else {
					// The stage boundary waits for every upstream
					// chain terminal plus that terminal's own
					// transfer (each terminal is a distinct unit
					// with its own placement, so latencies genuinely
					// differ per dependency).
					for _, pt := range prevTerminals {
						t.deps = append(t.deps, pt)
						t.extra = append(t.extra, transferMs(s, tpls[pt].unit, u))
					}
				}
				prev = int32(len(tpls))
				tpls = append(tpls, t)
			}
			if prev >= 0 {
				terminals = append(terminals, prev)
			}
		}
		if len(terminals) > 0 {
			prevTerminals = terminals
		}
	}
	if len(tpls) == 0 {
		return nil, fmt.Errorf("sim: schedule has no units")
	}
	g.lastTmpl = prevTerminals

	// Dense chiplet indexing, row-major over the used coords.
	coordIdx := map[nop.Coord]int32{}
	for _, t := range tpls {
		for _, c := range t.unit.Chiplets {
			if _, ok := coordIdx[c]; !ok {
				coordIdx[c] = 0
				g.coords = append(g.coords, c)
			}
		}
	}
	sort.Slice(g.coords, func(i, j int) bool {
		if g.coords[i].Y != g.coords[j].Y {
			return g.coords[i].Y < g.coords[j].Y
		}
		return g.coords[i].X < g.coords[j].X
	})
	for i, c := range g.coords {
		coordIdx[c] = int32(i)
	}

	// Flatten to CSR and account each dependency's per-frame link load.
	succs := make([][]int32, len(tpls))
	g.defs = make([]taskDef, len(tpls))
	for i, t := range tpls {
		d := &g.defs[i]
		d.unit = t.unit
		d.durMs = t.unit.PerShardMs
		d.depOff = int32(len(g.depList))
		for k, dep := range t.deps {
			g.depList = append(g.depList, dep)
			g.depExtra = append(g.depExtra, t.extra[k])
			succs[dep] = append(succs[dep], int32(i))
			recordLinks(g.linkBytes, tpls[dep].unit, t.unit)
		}
		d.depEnd = int32(len(g.depList))
		d.coordOff = int32(len(g.coordList))
		for _, c := range t.unit.Chiplets {
			g.coordList = append(g.coordList, coordIdx[c])
		}
		d.coordEnd = int32(len(g.coordList))
		if d.depOff == d.depEnd {
			g.seeds = append(g.seeds, int32(i))
		}
	}
	for i := range g.defs {
		g.defs[i].succOff = int32(len(g.succList))
		g.succList = append(g.succList, succs[i]...)
		g.defs[i].succEnd = int32(len(g.succList))
	}
	for _, b := range g.linkBytes {
		if b > g.maxLink {
			g.maxLink = b
		}
	}
	return g, nil
}

// Coords returns the chiplets the schedule uses, in row-major order:
// Result.ChipletBusyMs[i] is the busy time of Coords()[i]. The slice is
// shared; callers must not modify it.
func (g *Graph) Coords() []nop.Coord { return g.coords }

// LinkBytes returns each NoP link's traffic over a run of `frames`
// frame sets (XY routes of every inter-unit transfer). Every frame
// moves the same bytes, so no simulation is needed.
func (g *Graph) LinkBytes(frames int) map[nop.Link]int64 {
	out := make(map[nop.Link]int64, len(g.linkBytes))
	for l, b := range g.linkBytes {
		out[l] = b * int64(frames)
	}
	return out
}

// startEvent is one heap entry: a schedulable task keyed by the feasible
// start computed when it was pushed (a lower bound on its current one).
type startEvent struct {
	start float64
	seq   int
}

// eventHeap is a typed binary min-heap of startEvents ordered by
// (start, seq) — container/heap's algorithm without the interface
// boxing. (start, seq) pairs are unique, so any correct heap pops the
// same total order; the seq tie-break reproduces the greedy scan's
// lowest-index-wins rule.
type eventHeap []startEvent

func (h eventHeap) less(i, j int) bool {
	if h[i].start != h[j].start {
		return h[i].start < h[j].start
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && h.less(r, l) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

func (h *eventHeap) push(e startEvent) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// replaceMin overwrites the minimum with e and restores heap order: a
// pop followed by a push, for one sift instead of two.
func (h eventHeap) replaceMin(e startEvent) {
	h[0] = e
	h.down(0)
}

func (h *eventHeap) removeMin() {
	old := *h
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	(*h).down(0)
}

// runScratch is the pooled flat working state of one Run: everything
// sized by task count or chiplet count, so streaming windows reuse one
// warm allocation set instead of rebuilding per-task objects and maps.
type runScratch struct {
	waiting []int32
	ready   []float64
	end     []float64
	free    []float64
	busy    []float64
	order   []int32 // frame indices by (ReadyMs, frame): admission order
	h       eventHeap
}

var scratchPool = sync.Pool{New: func() any { return &runScratch{} }}

// grab sizes the scratch for n tasks of `frames` frames over m
// chiplets. Only the occupancy arrays need zeroing: waiting and order
// are fully initialized by the caller, ready/end entries are written
// before any read (dependency counters gate every read behind the
// writer).
func (sc *runScratch) grab(n, frames, m int) {
	if cap(sc.waiting) < n {
		sc.waiting = make([]int32, n)
		sc.ready = make([]float64, n)
		sc.end = make([]float64, n)
	}
	sc.waiting = sc.waiting[:n]
	sc.ready = sc.ready[:n]
	sc.end = sc.end[:n]
	if cap(sc.order) < frames {
		sc.order = make([]int32, frames)
	}
	sc.order = sc.order[:frames]
	if cap(sc.free) < m {
		sc.free = make([]float64, m)
		sc.busy = make([]float64, m)
	}
	sc.free = sc.free[:m]
	sc.busy = sc.busy[:m]
	for i := range sc.free {
		sc.free[i] = 0
		sc.busy[i] = 0
	}
	sc.h = sc.h[:0]
}

// Run streams `frames` frame sets (arriving per the trace generator)
// through the compiled schedule and returns realized metrics.
//
//perf:hot — the per-event simulator loop; PR 5 de-allocated it and rule P1 keeps it that way
func (g *Graph) Run(frames int, gen *trace.Generator) (Result, error) {
	if frames <= 0 {
		return Result{}, fmt.Errorf("sim: non-positive frame count %d", frames)
	}
	if gen == nil {
		gen = trace.NewGenerator(1)
	}
	arrivals := gen.FrameSets(frames)

	T := len(g.defs)
	n := frames * T
	sc := scratchPool.Get().(*runScratch)
	defer scratchPool.Put(sc)
	sc.grab(n, frames, len(g.coords))

	for f := 0; f < frames; f++ {
		off := f * T
		for li := range g.defs {
			sc.waiting[off+li] = g.defs[li].depEnd - g.defs[li].depOff
		}
	}

	// Admission order: frames by (ReadyMs, frame). Arrivals are nearly
	// sorted but jitter beyond the frame period reorders them, so sort —
	// insertion sort, stable and allocation-free.
	for f := range sc.order {
		sc.order[f] = int32(f)
	}
	for i := 1; i < frames; i++ {
		for j := i; j > 0 && arrivals[sc.order[j]].ReadyMs < arrivals[sc.order[j-1]].ReadyMs; j-- {
			sc.order[j], sc.order[j-1] = sc.order[j-1], sc.order[j]
		}
	}

	// startOf: a task's feasible start is its dependency-readiness
	// pushed later by the occupancy of its gang's chiplets.
	startOf := func(seq, li int) float64 {
		d := &g.defs[li]
		start := sc.ready[seq]
		for _, ci := range g.coordList[d.coordOff:d.coordEnd] {
			if f := sc.free[ci]; f > start {
				start = f
			}
		}
		return start
	}

	// A frame's zero-dependency tasks are keyed (ReadyMs, seq): every
	// chiplet is free when a fully seeded heap would have pushed them.
	// No key still outside the heap is below the next frame's ReadyMs,
	// so admitting that frame whenever its ReadyMs is at most the heap
	// top's start pops exactly the fully seeded heap's order.
	admitted := 0
	remaining := n
	for {
		for admitted < frames {
			f := int(sc.order[admitted])
			ready := arrivals[f].ReadyMs
			if len(sc.h) > 0 && ready > sc.h[0].start {
				break
			}
			for _, li := range g.seeds {
				seq := f*T + int(li)
				sc.ready[seq] = ready
				sc.h.push(startEvent{start: ready, seq: seq})
			}
			admitted++
		}
		if len(sc.h) == 0 {
			break
		}
		ev := sc.h[0]
		seq := ev.seq
		li := seq % T
		if cur := startOf(seq, li); cur > ev.start {
			// Stale: a gang on one of this task's chiplets was scheduled
			// after the entry was pushed. Re-key and retry.
			sc.h.replaceMin(startEvent{start: cur, seq: seq})
			continue
		}
		d := &g.defs[li]
		endMs := ev.start + d.durMs
		sc.end[seq] = endMs
		for _, ci := range g.coordList[d.coordOff:d.coordEnd] {
			sc.free[ci] = endMs
			sc.busy[ci] += d.durMs
		}
		remaining--
		// The executed entry stays at the top until its first newly
		// ready successor can take its slot.
		popped := false
		base := seq - li
		for _, si := range g.succList[d.succOff:d.succEnd] {
			gs := base + int(si)
			sc.waiting[gs]--
			if sc.waiting[gs] == 0 {
				sd := &g.defs[si]
				ready := arrivals[gs/T].ReadyMs
				for k := sd.depOff; k < sd.depEnd; k++ {
					if e := sc.end[base+int(g.depList[k])] + g.depExtra[k]; e > ready {
						ready = e
					}
				}
				sc.ready[gs] = ready
				e := startEvent{start: startOf(gs, int(si)), seq: gs}
				if popped {
					sc.h.push(e)
				} else {
					sc.h.replaceMin(e)
					popped = true
				}
			}
		}
		if !popped {
			sc.h.removeMin()
		}
	}
	if remaining > 0 {
		return Result{}, fmt.Errorf("sim: deadlock with %d tasks remaining", remaining)
	}

	return g.summarize(frames, arrivals, sc.end, sc.busy), nil
}

// Run compiles the schedule and streams `frames` frame sets through it;
// see Graph.Run. Callers running many windows over one schedule should
// Prepare once and share the Graph.
func Run(s *sched.Schedule, frames int, gen *trace.Generator) (Result, error) {
	if frames <= 0 {
		return Result{}, fmt.Errorf("sim: non-positive frame count %d", frames)
	}
	g, err := Prepare(s)
	if err != nil {
		return Result{}, err
	}
	return g.Run(frames, gen)
}

// summarize assembles the Result shared by both engines from the flat
// end-time and busy arrays: summary metrics plus the busiest link's
// whole-run load (the per-frame load times the frame count).
func (g *Graph) summarize(frames int, arrivals []trace.SetArrival, end, busy []float64) Result {
	r := Result{Frames: frames}
	T := len(g.defs)

	completions := make([]float64, frames)
	r.FrameLatenciesMs = make([]float64, 0, frames)
	for f := 0; f < frames; f++ {
		var e float64
		for _, li := range g.lastTmpl {
			if v := end[f*T+int(li)]; v > e {
				e = v
			}
		}
		completions[f] = e
		r.FrameLatenciesMs = append(r.FrameLatenciesMs, e-arrivals[f].ReadyMs)
		if e > r.MakespanMs {
			r.MakespanMs = e
		}
	}
	var sum float64
	for _, l := range r.FrameLatenciesMs {
		sum += l
	}
	r.AvgFrameLatencyMs = sum / float64(frames)

	// Steady-state interval: average completion gap over the back half.
	sort.Float64s(completions)
	half := frames / 2
	if frames >= 4 && completions[frames-1] > completions[half] {
		r.SteadyIntervalMs = (completions[frames-1] - completions[half]) / float64(frames-1-half)
	} else if frames > 1 {
		r.SteadyIntervalMs = (completions[frames-1] - completions[0]) / float64(frames-1)
	} else {
		r.SteadyIntervalMs = r.MakespanMs
	}
	if r.SteadyIntervalMs > 0 {
		r.ThroughputFPS = 1e3 / r.SteadyIntervalMs
	}

	// Busy accounting in row-major coordinate order: float addition is
	// not associative, so the fixed order keeps UtilPct identical
	// between runs (g.coords is sorted at Prepare time).
	r.ChipletBusyMs = slices.Clone(busy)
	var busyPE float64
	for i, c := range g.coords {
		if a := g.s.MCM.At(c); a != nil {
			busyPE += busy[i] * float64(a.PEs)
		}
	}
	if r.MakespanMs > 0 {
		r.UtilPct = busyPE / (float64(g.s.MCM.TotalPEs()) * r.MakespanMs) * 100
	}

	r.BusiestLinkBytes = g.maxLink * int64(frames)
	if r.MakespanMs > 0 {
		r.BusiestLinkGBps = float64(r.BusiestLinkBytes) / (r.MakespanMs * 1e-3) / 1e9
		r.LinkUtilizationPct = r.BusiestLinkGBps / g.s.MCM.NoP.LinkBWGBs * 100
	}
	return r
}

// recordLinks charges a producer->consumer transfer's bytes to every
// link on its XY routes.
func recordLinks(linkBytes map[nop.Link]int64, u, v *sched.Unit) {
	if u == nil || v == nil || len(u.Chiplets) == 0 || len(v.Chiplets) == 0 {
		return
	}
	bytes := u.Nodes[len(u.Nodes)-1].Layer.OutputElems() / int64(len(u.Chiplets))
	for i, src := range u.Chiplets {
		dst := v.Chiplets[i%len(v.Chiplets)]
		for _, l := range nop.Route(src, dst) {
			linkBytes[l] += bytes
		}
	}
}

// chainsOf groups a stage's units into serial chains per (model,
// replica), preserving construction order.
func chainsOf(ss *sched.StageSchedule) [][]*sched.Unit {
	type key struct {
		model   string
		replica int
	}
	order := make(map[key][]*sched.Unit)
	var keys []key
	for _, u := range ss.Units {
		k := key{u.Model, u.Replica}
		if _, ok := order[k]; !ok {
			keys = append(keys, k)
		}
		order[k] = append(order[k], u)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].model != keys[j].model {
			return keys[i].model < keys[j].model
		}
		return keys[i].replica < keys[j].replica
	})
	out := make([][]*sched.Unit, 0, len(keys))
	for _, k := range keys {
		out = append(out, order[k])
	}
	return out
}

// transferMs estimates the NoP latency between two consecutive units.
func transferMs(s *sched.Schedule, u, v *sched.Unit) float64 {
	if len(u.Chiplets) == 0 || len(v.Chiplets) == 0 {
		return 0
	}
	bytes := u.Nodes[len(u.Nodes)-1].Layer.OutputElems() / int64(len(u.Chiplets))
	var worst float64
	for i, src := range u.Chiplets {
		dst := v.Chiplets[i%len(v.Chiplets)]
		c := s.MCM.NoP.Eval(nop.Transfer{Src: src, Dst: dst, Bytes: bytes})
		if c.LatencyMs > worst {
			worst = c.LatencyMs
		}
	}
	return worst
}
