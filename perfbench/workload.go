package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"mcmnpu/internal/api"
	"mcmnpu/internal/scenario"
)

// request is one generated POST: the endpoint, the exact body bytes
// the daemon receives, and how the benchmark classifies it.
type request struct {
	path   string
	body   []byte
	stream bool // NDJSON /v1/sweep progress stream (bypasses the result cache)
}

// kind is the request's api kind, derived from its endpoint.
func (r *request) kind() string { return r.path[len("/v1/"):] }

// rng is a splitmix64 stream. Every request the benchmark sends comes
// from one of these, seeded by -seed (request order and mix) or by a
// pool's fixed stream (request content).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// poolSeed derives the nonzero request seed of entry i of pool tag.
func poolSeed(tag uint64, i int) uint64 {
	r := rng{s: tag<<32 ^ uint64(i)}
	return r.next()>>1 | 1
}

// pool is an unbounded, deterministic sequence of request bodies. The
// first recorded entries have payload digests in digests.txt (recorded
// on the serial service); later entries are verified by a serial rerun.
// A run draws a seed-dependent permutation of the recorded range, then
// continues past it, so bodies never repeat within a run.
type pool struct {
	name     string
	recorded int
	gen      func(i int) request
}

// cursor walks one pool in a run's order.
type cursor struct {
	p     *pool
	order []int
	k     int
}

func newCursor(p *pool, r *rng) *cursor { return &cursor{p: p, order: r.perm(p.recorded)} }

func (c *cursor) next() request {
	i := c.k
	if i < len(c.order) {
		i = c.order[i]
	}
	c.k++
	return c.p.gen(i)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs of plain fields always marshal
	}
	return b
}

// Request-shape constants of the workloads.
const (
	longFrames = 4096 // run-long frame budget per request
	longWindow = 16   // run-long trace window
	mixRate    = 60   // serve-mix arrivals per second
	mixSLOMs   = 50   // serve-mix latency limit, from due time
	// paretoScenario is the scenario serve-mix's paretos explore.
	paretoScenario = "urban-8cam"
)

// The pools. Tags keep every pool's seeds disjoint; warm-up requests
// use the warm tag, so set-up never pre-fills a timed body.
const (
	tagLong = iota + 1
	tagCold
	tagWarm
)

func longRun(scen string, seed uint64) request {
	return request{path: "/v1/run", body: mustJSON(api.RunScenarioRequest{
		Scenarios: []string{scen}, Frames: longFrames, WindowFrames: longWindow, Seed: seed})}
}

// scenarioPools builds one pool per registry scenario.
func scenarioPools(name string, recorded int, gen func(scen string, s, i int) request) []*pool {
	names := scenario.Names()
	out := make([]*pool, len(names))
	for s, scen := range names {
		out[s] = &pool{name: name + "/" + scen, recorded: recorded, gen: func(i int) request { return gen(scen, s, i) }}
	}
	return out
}

// longPools hold run-long's requests, one pool per registry scenario.
var longPools = scenarioPools("run-long", 300, func(scen string, s, i int) request {
	return longRun(scen, poolSeed(tagLong<<8|uint64(s), i))
})

// coldPools hold serve-mix's small cold runs, one pool per registry
// scenario.
var coldPools = scenarioPools("serve-mix/run", 100, func(scen string, s, i int) request {
	r := rng{s: tagCold<<32 ^ uint64(s)<<24 ^ uint64(i)}
	frames := 8 + r.intn(9)
	return request{path: "/v1/run", body: mustJSON(api.RunScenarioRequest{
		Scenarios: []string{scen}, Frames: frames, Seed: r.next()>>1 | 1})}
})

// rotation cycles over per-scenario pools from a seeded offset, so a
// run sends every scenario equally often.
type rotation struct {
	curs []*cursor
	k    int
}

func newRotation(pools []*pool, r *rng) *rotation {
	ro := &rotation{k: r.intn(len(pools))}
	for _, p := range pools {
		ro.curs = append(ro.curs, newCursor(p, r))
	}
	return ro
}

func (ro *rotation) next() request {
	c := ro.curs[ro.k%len(ro.curs)]
	ro.k++
	return c.next()
}

// dsePool and paretoPool step their parameter by a unit coprime to the
// range, so entries are distinct across the whole recorded range.
var dsePool = &pool{name: "serve-mix/dse", recorded: 500, gen: func(i int) request {
	return request{path: "/v1/dse", body: mustJSON(api.DSERequest{LcstrMs: 60 + float64(i*7919%8000)/100})}
}}

var paretoPool = &pool{name: "serve-mix/pareto", recorded: 180, gen: func(i int) request {
	return request{path: "/v1/pareto", body: mustJSON(api.ParetoRequest{
		Scenarios: []string{paretoScenario}, LinkBWGBs: []float64{40 + float64(i*7919%16000)/100},
		Frames: 8, WindowFrames: 4})}
}}

var sweepPool = &pool{name: "serve-mix/sweep", recorded: 1, gen: func(int) request {
	return request{path: "/v1/sweep", stream: true, body: mustJSON(api.GridSweepRequest{
		Scenarios: []string{"tolerance"}, Stream: true})}
}}

// allPools lists every pool whose recorded range digests.txt covers.
func allPools() []*pool {
	out := append(append([]*pool{}, longPools...), coldPools...)
	return append(out, dsePool, paretoPool, sweepPool)
}

// workload is one traffic shape. Closed-loop workloads pull next()
// from clients that wait for each reply; the open-loop workload sends a
// fixed schedule.
type workload struct {
	sloMs   float64 // latency limit behind slo_pct
	clients int
	// warm lists the set-up requests: every scenario and grid point the
	// workload touches, with bodies outside every timed pool.
	warm func() []request
	// closed returns the closed-loop request source for one run.
	closed func(r *rng) func() request
	// open returns the open-loop schedule for a run of the given length.
	open func(r *rng, d time.Duration) []scheduled
}

// scheduled is one open-loop arrival.
type scheduled struct {
	due time.Duration // offset from the start of the timed window
	rq  request
}

func workloadTable(nproc int) map[string]*workload {
	clients := min(2, nproc)
	return map[string]*workload{
		"run-long":  {sloMs: 250, clients: clients, warm: warmLong, closed: closedLong},
		"serve-mix": {sloMs: mixSLOMs, clients: clients, warm: warmMix, open: openMix},
	}
}

func warmLong() []request {
	var out []request
	for round := 0; round < 2; round++ {
		for s, name := range scenario.Names() {
			out = append(out, longRun(name, poolSeed(tagWarm<<8|uint64(round), s)))
		}
	}
	return out
}

// closedLong rotates over every registry scenario from a seeded offset,
// each request a fresh seed from that scenario's pool.
func closedLong(r *rng) func() request {
	ro := newRotation(longPools, r)
	var mu sync.Mutex
	return func() request {
		mu.Lock()
		defer mu.Unlock()
		return ro.next()
	}
}

// warmMix touches every registry scenario at a small frame budget, the
// DSE space, the tolerance grid and the exhaustive pareto space, with
// parameters outside the timed pools.
func warmMix() []request {
	var out []request
	for s, name := range scenario.Names() {
		out = append(out, request{path: "/v1/run", body: mustJSON(api.RunScenarioRequest{
			Scenarios: []string{name}, Frames: 12, Seed: poolSeed(tagWarm, s)})})
	}
	out = append(out,
		request{path: "/v1/dse", body: mustJSON(api.DSERequest{LcstrMs: 150})},
		sweepPool.gen(0),
		request{path: "/v1/pareto", body: mustJSON(api.ParetoRequest{
			Scenarios: []string{paretoScenario}, LinkBWGBs: []float64{30}, Frames: 8, WindowFrames: 4})})
	return out
}

// mixBlock is serve-mix's deck of arrival kinds. Every block of 40
// arrivals holds exactly 18 replays of earlier cacheable bodies (R,
// 45%); 10 cold small runs rotating over the registry plus one cold
// pair due at the same instant (C and 2, 30%); 6 DSE points (D, 15%);
// 2 streamed tolerance sweeps and 2 exhaustive paretos (S and P, 10%).
// Each block is dealt in a seeded order. Exact shares keep the mix, and
// with it the run-to-run spread, the same for every seed.
var mixBlock = []byte(strings.Repeat("R", 18) + strings.Repeat("C", 10) + "2" +
	strings.Repeat("D", 6) + "SSPP")

// openMix lays out mixRate arrivals per second, evenly spaced, block by
// block from mixBlock.
func openMix(r *rng, d time.Duration) []scheduled {
	n := int(d.Seconds() * mixRate)
	step := time.Second / mixRate
	cold, dse, par := newRotation(coldPools, r), newCursor(dsePool, r), newCursor(paretoPool, r)
	var cacheable []request
	var deck []byte
	out := make([]scheduled, 0, n+1)
	for len(out) < n {
		if len(deck) == 0 {
			for _, j := range r.perm(len(mixBlock)) {
				deck = append(deck, mixBlock[j])
			}
		}
		k := deck[0]
		deck = deck[1:]
		due := time.Duration(len(out)) * step
		var rq request
		switch {
		case k == 'R' && len(cacheable) > 0:
			out = append(out, scheduled{due: due, rq: cacheable[r.intn(len(cacheable))]})
			continue
		case k == 'S':
			out = append(out, scheduled{due: due, rq: sweepPool.gen(0)})
			continue
		case k == 'D':
			rq = dse.next()
		case k == 'P':
			rq = par.next()
		case k == '2':
			rq = cold.next()
			out = append(out, scheduled{due: due, rq: rq})
		default: // 'C', or a replay before anything is cacheable
			rq = cold.next()
		}
		cacheable = append(cacheable, rq)
		out = append(out, scheduled{due: due, rq: rq})
	}
	return out
}

// lookupWorkload resolves a -workload name.
func lookupWorkload(name string, nproc int) (*workload, error) {
	ws := workloadTable(nproc)
	if w, ok := ws[name]; ok {
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have run-long, serve-mix)", name)
}
