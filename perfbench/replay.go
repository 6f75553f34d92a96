package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mcmnpu/internal/api"
	"mcmnpu/internal/pipeline"
	"mcmnpu/internal/scenario"
	"mcmnpu/internal/sched"
	"mcmnpu/internal/sweep"
	"mcmnpu/internal/workloads"
)

// span is one timed call at a layer seam. Spans stay in memory and are
// written out when the benchmark ends.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Req    int    `json:"req"`
}

// tracer records spans. A nil tracer records nothing, so the untraced
// replay runs the very same calls.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indices
	req   int
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Req: t.req})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// adopt makes the spans recorded since mark (whose roots are
// attribution replays run after a request) children of parent: they
// estimate how parent's opaque call split across layers, so their time
// comes out of parent's self time.
func (t *tracer) adopt(mark, parent int) {
	if t == nil {
		return
	}
	for i := mark; i < len(t.spans); i++ {
		if t.spans[i].Parent == -1 {
			t.spans[i].Parent = parent
		}
	}
}

// selfTimes sums each span name's self time: its duration minus the
// durations of its children.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		self[s.Name] += d
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	return self
}

// write saves the spans as one JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// replayer reissues served requests in-process through each layer's
// exported functions, serially on a one-worker engine whose cost cache
// was warmed like the daemon's.
type replayer struct {
	eng    *sweep.Engine
	svc    *api.Service
	memo   map[workloads.Config]*workloads.Pipeline
	frames int // frames simulated by the traced replay
	builds int // schedules built by the traced replay
}

func newReplayer() *replayer {
	eng := sweep.New(1)
	return &replayer{eng: eng, svc: api.NewService(eng), memo: map[workloads.Config]*workloads.Pipeline{}}
}

// workload mirrors the scenario package's compiled-pipeline memo.
func (rp *replayer) workload(cfg workloads.Config) (*workloads.Pipeline, error) {
	if p, ok := rp.memo[cfg]; ok {
		return p, nil
	}
	p, err := workloads.Perception(cfg)
	if err == nil {
		rp.memo[cfg] = p
	}
	return p, err
}

// prepare is scenario.Prepare split at its seams: Spec.Compile (with
// the workload memo) and sched.Build on the engine's cost cache.
func (rp *replayer) prepare(tr *tracer, sp scenario.Spec) (*scenario.Prepared, error) {
	s := tr.begin("scenario.compile")
	b, err := sp.Compile()
	var p *workloads.Pipeline
	if err == nil {
		p, err = rp.workload(b.Config)
	}
	tr.end(s)
	if err != nil {
		return nil, err
	}
	b.Sched.Cache = rp.eng.Cache()
	s = tr.begin("sched.build")
	sc, err := sched.Build(p, b.MCM, b.Sched)
	tr.end(s)
	if tr != nil {
		rp.builds++
	}
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", b.Spec.Name, err)
	}
	return &scenario.Prepared{Bundle: b, Schedule: sc}, nil
}

// runPrepared streams a prepared scenario, with the analytic pipeline
// metrics timed on their own first (Prepared.Run recomputes them).
func (rp *replayer) runPrepared(ctx context.Context, tr *tracer, pr *scenario.Prepared, opts scenario.RunOptions) (scenario.Result, error) {
	s := tr.begin("pipeline.compute")
	pipeline.Compute(pr.Schedule, pipeline.Layerwise)
	tr.end(s)
	opts.Engine = rp.eng
	s = tr.begin("sim.run")
	r, err := pr.Run(ctx, opts)
	tr.end(s)
	if tr != nil {
		rp.frames += r.Frames
	}
	return r, err
}

// replay reissues one request body in api.Server.compute order —
// decode, key, execute, encode — and returns the encoded response. A
// traced pareto request is then attributed (see attribute).
func (rp *replayer) replay(ctx context.Context, tr *tracer, rq request) ([]byte, error) {
	root := tr.begin("api.request")
	out, pa, err := rp.compute(ctx, tr, rq)
	tr.end(root)
	if err == nil && pa.resp != nil && tr != nil {
		mark := len(tr.spans)
		err = rp.attribute(ctx, tr, pa.req, pa.resp)
		tr.adopt(mark, pa.span)
	}
	return out, err
}

// paretoCall is a pareto request's explorer call, kept for attribution.
type paretoCall struct {
	req  *api.ParetoRequest
	resp *api.ParetoResponse
	span int
}

// compute is the request's body; for pareto requests it also returns
// the explorer call to attribute.
func (rp *replayer) compute(ctx context.Context, tr *tracer, rq request) ([]byte, paretoCall, error) {
	s := tr.begin("api.decode")
	req, err := decodeRequest(rq)
	tr.end(s)
	if err != nil {
		return nil, paretoCall{}, err
	}
	s = tr.begin("api.key")
	key, err := rp.svc.Key(req)
	tr.end(s)
	if err != nil {
		return nil, paretoCall{}, err
	}
	var resp any
	var pa paretoCall
	switch r := req.(type) {
	case *api.RunScenarioRequest:
		resp, err = rp.run(ctx, tr, r, key)
	case *api.DSERequest:
		s = tr.begin("dse.compute")
		resp, err = rp.svc.DSE(ctx, r)
		tr.end(s)
	case *api.GridSweepRequest:
		s = tr.begin("sweep.grid")
		resp, err = rp.svc.GridSweep(ctx, r)
		tr.end(s)
	case *api.ParetoRequest:
		pa.req, pa.span = r, tr.begin("pareto.explore")
		pa.resp, err = rp.svc.Pareto(ctx, r)
		tr.end(pa.span)
		resp = pa.resp
	}
	if err != nil {
		return nil, paretoCall{}, err
	}
	e := tr.begin("api.encode")
	out, err := json.Marshal(resp)
	tr.end(e)
	return out, pa, err
}

func decodeRequest(rq request) (api.Request, error) {
	var req api.Request
	switch rq.kind() {
	case "run":
		req = new(api.RunScenarioRequest)
	case "sweep":
		req = new(api.GridSweepRequest)
	case "dse":
		req = new(api.DSERequest)
	case "pareto":
		req = new(api.ParetoRequest)
	default:
		return nil, fmt.Errorf("unknown endpoint %s", rq.path)
	}
	return req, api.Decode(rq.body, req)
}

// run replays Service.RunScenario layer by layer.
func (rp *replayer) run(ctx context.Context, tr *tracer, req *api.RunScenarioRequest, key string) (*api.RunScenarioResponse, error) {
	start := time.Now()
	results := make([]scenario.Result, 0, len(req.Scenarios))
	for _, name := range req.Scenarios {
		sp, err := scenario.Lookup(name)
		if err != nil {
			return nil, err
		}
		if req.Seed != 0 {
			sp.Seed = req.Seed
		}
		pr, err := rp.prepare(tr, sp)
		if err != nil {
			return nil, err
		}
		r, err := rp.runPrepared(ctx, tr, pr, scenario.RunOptions{Frames: req.Frames, WindowFrames: req.WindowFrames})
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	env := api.RunResult{Version: api.Version, Kind: req.Kind(), Key: key,
		Timings: api.Timings{ComputeMs: float64(time.Since(start).Microseconds()) / 1e3}}
	return &api.RunScenarioResponse{RunResult: env, Results: results}, nil
}

// attribute splits a pareto request's explorer call across layers:
// every candidate in the report is re-prepared against every scenario
// (the bound phase) and every simulated one re-streamed (the stream
// phase). The replayed numbers must equal the report's.
func (rp *replayer) attribute(ctx context.Context, tr *tracer, req *api.ParetoRequest, resp *api.ParetoResponse) error {
	specs := make([]scenario.Spec, len(resp.Report.Scenarios))
	for i, n := range resp.Report.Scenarios {
		var err error
		if specs[i], err = scenario.Lookup(n); err != nil {
			return err
		}
	}
	ropts := scenario.RunOptions{Frames: req.Frames, WindowFrames: req.WindowFrames}
	for _, e := range resp.Report.Evals {
		var lat, energy, p99, eJ float64
		var preps []*scenario.Prepared
		for _, sp := range specs {
			b := tr.begin("pareto.bound")
			pr, err := rp.prepare(tr, e.Candidate.Apply(sp))
			if err == nil {
				c := tr.begin("pipeline.compute")
				m := pipeline.Compute(pr.Schedule, pipeline.Layerwise)
				tr.end(c)
				lat, energy = max(lat, m.E2EMs), max(energy, m.EnergyJ)
				preps = append(preps, pr)
			}
			tr.end(b)
		}
		if e.Infeasible {
			continue
		}
		if lat != e.LBLatMs || energy != e.LBEnergyJ {
			return fmt.Errorf("replayed bound of %s is (%v ms, %v J), report says (%v ms, %v J)",
				e.Name, lat, energy, e.LBLatMs, e.LBEnergyJ)
		}
		if e.Pruned {
			continue
		}
		for _, pr := range preps {
			st := tr.begin("pareto.stream")
			r, err := rp.runPrepared(ctx, tr, pr, ropts)
			tr.end(st)
			if err != nil {
				return err
			}
			p99, eJ = max(p99, r.P99Ms), max(eJ, r.EnergyPerFrameJ)
		}
		if p99 != e.P99Ms || eJ != e.EnergyJ {
			return fmt.Errorf("replayed stream of %s is (%v ms, %v J), report says (%v ms, %v J)",
				e.Name, p99, eJ, e.P99Ms, e.EnergyJ)
		}
	}
	return nil
}
