package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"time"

	"mcmnpu/internal/api"
	"mcmnpu/internal/scenario"
)

// measures collects every metric a run can report, each with the
// number of samples behind it.
type measures struct{ vals map[string]measured }

type measured struct {
	value float64
	n     int
}

func newMeasures() *measures { return &measures{vals: map[string]measured{}} }

func (m *measures) set(name string, v float64, n int) { m.vals[name] = measured{v, n} }

// percentile is the nearest-rank percentile of xs (q in (0, 1]); 0 for
// an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func pct(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num / den
}

// work is what one computed (not replayed-from-cache) response did.
type work struct {
	frames     int // frames simulated
	candidates int // design candidates evaluated
	computeMs  float64
	pareto     *reportCounts
	gridWorkMs float64
}

// reportCounts is the part of a pareto report the metrics read.
type reportCounts struct {
	Evals      []json.RawMessage `json:"evals"`
	Scenarios  []string          `json:"scenarios"`
	Evaluated  int               `json:"evaluated"`
	Pruned     int               `json:"pruned"`
	Infeasible int               `json:"infeasible"`
}

// finalBody returns the response object of a body: the body itself, or
// a stream's done event.
func finalBody(rq request, body []byte) []byte {
	if !rq.stream {
		return body
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		last = sc.Bytes()
	}
	var e struct {
		Response json.RawMessage `json:"response"`
	}
	json.Unmarshal(last, &e)
	return e.Response
}

// workOf reads a verified response's work counters.
func workOf(rq request, body []byte) work {
	var r struct {
		Timings api.Timings `json:"timings"`
		Results []struct {
			Frames int     `json:"Frames"`
			WorkMs float64 `json:"work_ms"`
		} `json:"results"`
		Report *reportCounts `json:"report"`
	}
	json.Unmarshal(finalBody(rq, body), &r)
	wk := work{computeMs: r.Timings.ComputeMs, pareto: r.Report}
	switch rq.kind() {
	case "run":
		for _, x := range r.Results {
			wk.frames += x.Frames
			wk.candidates++
		}
	case "sweep":
		for _, x := range r.Results {
			wk.gridWorkMs += x.WorkMs
		}
	case "pareto":
		var req api.ParetoRequest
		json.Unmarshal(rq.body, &req)
		wk.candidates = len(r.Report.Evals)
		for _, n := range r.Report.Scenarios {
			f := req.Frames
			if f == 0 {
				sp, _ := scenario.Lookup(n)
				f = sp.WithDefaults().Frames
			}
			wk.frames += r.Report.Evaluated * f
		}
	}
	return wk
}

// served derives every metric of the timed window: the end-to-end set
// and the per-layer counters read off responses and /v1/stats.
func served(m *measures, w *workload, samples []sample, ok []bool, st0, st1 api.ServerStats, rssMB float64, setupS []float64) {
	var lat, hitLat, late, overhead, kb, dseMs, gridMs []float64
	var end time.Duration
	var window, inSLO, frames, cands, failed int
	var par struct{ cands, sim, pruned, infeasible int }
	for i := range samples {
		s := &samples[i]
		if !ok[i] {
			failed++
		}
		if s.probe {
			if ok[i] && s.hit {
				hitLat = append(hitLat, ms(s.done-s.sent))
			}
			continue
		}
		window++
		end = max(end, s.done)
		lat = append(lat, ms(s.latency()))
		late = append(late, ms(s.sent-s.due))
		if !ok[i] {
			continue
		}
		if ms(s.latency()) <= w.sloMs {
			inSLO++
		}
		kb = append(kb, float64(len(s.body))/1024)
		if s.hit {
			if w.open != nil {
				hitLat = append(hitLat, ms(s.done-s.sent))
			}
			continue
		}
		wk := workOf(s.rq, s.body)
		frames += wk.frames
		cands += wk.candidates
		overhead = append(overhead, ms(s.done-s.sent)-wk.computeMs)
		switch s.rq.kind() {
		case "dse":
			dseMs = append(dseMs, wk.computeMs)
		case "sweep":
			gridMs = append(gridMs, wk.gridWorkMs)
		case "pareto":
			p := wk.pareto
			par.cands += len(p.Evals)
			par.sim += p.Evaluated
			par.pruned += p.Pruned
			par.infeasible += p.Infeasible
		}
	}
	secs := end.Seconds()
	attempted := len(samples)

	m.set("setup_s", median(setupS), len(setupS))
	m.set("req_p50_ms", percentile(lat, 0.50), len(lat))
	m.set("req_p95_ms", percentile(lat, 0.95), len(lat))
	m.set("req_p99_ms", percentile(lat, 0.99), len(lat))
	m.set("req_per_s", float64(window)/secs, window)
	m.set("sim_frames_per_s", float64(frames)/secs, window)
	m.set("candidates_per_s", float64(cands)/secs, window)
	m.set("slo_pct", pct(float64(inSLO), float64(window)), window)
	m.set("api.hit_p50_ms", median(hitLat), len(hitLat))
	m.set("ok_pct", pct(float64(attempted-failed), float64(attempted)), attempted)
	m.set("peak_rss_mb", rssMB, 1)

	m.set("api.error_pct", pct(float64(failed), float64(attempted)), attempted)
	m.set("api.response_kb", mean(kb), len(kb))
	m.set("api.overhead_ms", mean(overhead), len(overhead))
	rc0, rc1 := st0.ResultCache, st1.ResultCache
	lookups := float64(rc1.Hits - rc0.Hits + rc1.Misses - rc0.Misses)
	m.set("api.result_cache_hit_pct", pct(float64(rc1.Hits-rc0.Hits), lookups), int(lookups))
	admits := float64(st1.Admitted - st0.Admitted + st1.Rejected - st0.Rejected)
	m.set("api.rejected_pct", pct(float64(st1.Rejected-st0.Rejected), admits), int(admits))
	m.set("api.dup_computes", float64(dupComputes(samples)), window)
	m.set("loadgen.late_p50_ms", percentile(late, 0.50), len(late))
	m.set("loadgen.late_p99_ms", percentile(late, 0.99), len(late))

	cc0, cc1 := st0.CostCache, st1.CostCache
	hits, misses := float64(cc1.Hits-cc0.Hits), float64(cc1.Misses-cc0.Misses)
	m.set("costmodel.hits", hits, 1)
	m.set("costmodel.misses", misses, 1)
	m.set("costmodel.entries", float64(cc1.Entries), 1)
	m.set("costmodel.hit_pct", pct(hits, hits+misses), 1)
	lpc := 0.0
	if cands > 0 {
		lpc = (hits + misses) / float64(cands)
	}
	m.set("costmodel.lookups_per_candidate", lpc, cands)

	m.set("pareto.candidates", float64(par.cands), 1)
	m.set("pareto.simulated", float64(par.sim), 1)
	m.set("pareto.pruned", float64(par.pruned), 1)
	m.set("pareto.infeasible", float64(par.infeasible), 1)
	m.set("pareto.prune_pct", pct(float64(par.pruned), float64(par.pruned+par.sim)), par.pruned+par.sim)
	m.set("sweep.grid_work_ms", mean(gridMs), len(gridMs))
	m.set("dse.compute_ms", mean(dseMs), len(dseMs))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// dupComputes counts computed responses whose identical body was
// already in flight when they were sent: work a single-flight server
// would have done once. Samples are in send order; streamed sweeps are
// never cached and do not count.
func dupComputes(samples []sample) int {
	busyUntil := map[string]time.Duration{}
	n := 0
	for _, s := range samples {
		if s.probe || s.rq.stream || s.err != nil || s.status != http.StatusOK {
			continue
		}
		k := bodyKey(s.rq)
		if !s.hit && s.sent < busyUntil[k] {
			n++
		}
		busyUntil[k] = max(busyUntil[k], s.done)
	}
	return n
}

// layers derives the per-layer times of the traced replay: self time
// per replayed request, by span name.
func layers(m *measures, tr *tracer, rp *replayer, n int, untraced time.Duration) {
	self := tr.selfTimes()
	incl := map[string]time.Duration{}
	var traced time.Duration
	for _, s := range tr.spans {
		d := time.Duration(s.End - s.Start)
		incl[s.Name] += d
		if s.Name == "api.request" {
			traced += d
		}
	}
	per := func(d time.Duration, unit time.Duration) float64 {
		return float64(d) / float64(unit) / float64(n)
	}
	m.set("api.decode_us", per(self["api.decode"], time.Microsecond), n)
	m.set("api.key_us", per(self["api.key"], time.Microsecond), n)
	m.set("api.encode_us", per(self["api.encode"], time.Microsecond), n)
	m.set("scenario.compile_us", per(self["scenario.compile"], time.Microsecond), n)
	m.set("sched.build_ms", per(self["sched.build"], time.Millisecond), n)
	m.set("sched.builds", float64(rp.builds)/float64(n), n)
	m.set("pipeline.compute_us", per(self["pipeline.compute"], time.Microsecond), n)
	m.set("sim.run_ms", per(self["sim.run"], time.Millisecond), n)
	nsPerFrame := 0.0
	if rp.frames > 0 {
		nsPerFrame = float64(incl["sim.run"]) / float64(rp.frames)
	}
	m.set("sim.ns_per_frame", nsPerFrame, rp.frames)
	m.set("pareto.bound_ms", per(incl["pareto.bound"], time.Millisecond), n)
	m.set("pareto.stream_ms", per(incl["pareto.stream"], time.Millisecond), n)
	m.set("pareto.explore_self_ms", per(self["pareto.explore"], time.Millisecond), n)
	m.set("trace.requests", float64(n), n)
	m.set("trace.request_ms", per(untraced, time.Millisecond), n)
	m.set("trace.overhead_pct", pct(float64(traced-untraced), float64(untraced)), n)
}
