// Command perfbench is the repository's request-level benchmark. It
// builds nothing itself: run.sh builds cmd/serve and this program, then
// runs
//
//	perfbench -serve <serve binary> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// from the checkout root. It starts the daemon as a child process with
// one engine worker per CPU, warms it, drives one workload over HTTP
// for the given time, checks every response against the serial
// service's recorded result, and prints the metrics BENCHMARK.json
// lists — end-to-end ones untraced, per-layer ones (--trace 1) from the
// served counters plus an in-process replay with spans at each layer
// seam. The last stdout line is the JSON result. NOTES.md explains the
// workloads and the metric → layer → workload map.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setups is how many times a run sets the daemon up; setup_s is the
// median.
const setups = 5

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: run-long or serve-mix")
	seed := fs.Uint64("seed", 1, "workload seed: request order, mix and pool draws")
	seconds := fs.Int("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from the traced replay")
	serve := fs.String("serve", ".bench_build/serve", "cmd/serve binary")
	rec := fs.Bool("record", false, "regenerate "+digestFile+" on the serial service and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *rec {
		if err := record(digestFile); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	res, err := bench(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *serve, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spec is the part of BENCHMARK.json that fixes which metrics a run
// prints and in what unit.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func bench(name string, seed uint64, window time.Duration, traced bool, serve string, log io.Writer) (*result, error) {
	var sp spec
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	nproc := runtime.NumCPU()
	w, err := lookupWorkload(name, nproc)
	if err != nil {
		return nil, err
	}
	recorded, err := loadDigests(digestFile)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(serve); err != nil {
		return nil, err
	}

	// Set-up: daemon start to first healthz, then the warm-up requests.
	// The last daemon set up serves the timed window.
	var setupS []float64
	var d *daemon
	for i := 0; i < setups; i++ {
		t := time.Now()
		if d, err = startDaemon(serve, nproc); err != nil {
			return nil, err
		}
		if err := d.warm(w.warm()); err != nil {
			d.stop()
			return nil, err
		}
		setupS = append(setupS, time.Since(t).Seconds())
		if i < setups-1 {
			d.stop()
		}
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()

	r := rng{s: seed}
	st0, err := d.stats()
	if err != nil {
		return nil, err
	}
	var samples []sample
	var t0 time.Time
	if w.open != nil {
		samples, t0 = openLoop(d.url, w.clients, w.open(&r, window))
	} else {
		samples, t0 = closedLoop(d.url, w.clients, window, w.closed(&r))
	}
	st1, err := d.stats()
	if err != nil {
		return nil, err
	}
	if w.open == nil {
		samples = append(samples, probeHits(d.url, samples, t0)...)
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	d.stop()
	d = nil
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].sent < samples[j].sent })

	ok, reruns, err := verify(samples, recorded)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: len(samples), Metrics: map[string]metric{}}
	for i, s := range samples {
		if s.probe && !s.hit {
			ok[i] = false // a replayed body must come from the result cache
		}
		if !ok[i] {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	m := newMeasures()
	served(m, w, samples, ok, st0, st1, rss, setupS)
	list := sp.EndToEnd
	if traced {
		mismatches, err := replayTraced(m, w, samples, ok, recorded, window/3, fmt.Sprintf(".bench_build/trace-%s-%d.json", name, seed))
		if err != nil {
			return nil, err
		}
		if mismatches > 0 {
			res.Correct = false
			fmt.Fprintf(log, "# %d replayed payloads differ from the served ones\n", mismatches)
		}
		list = sp.PerLayer
	}

	fmt.Fprintf(log, "# %s seed %d: %d attempted, %d failed, %d verified by serial rerun\n",
		name, seed, res.Attempted, res.Failed, reruns)
	for _, e := range list {
		v, have := m.vals[e.Name]
		if !have {
			return nil, fmt.Errorf("metric %s is not measured", e.Name)
		}
		fmt.Fprintf(log, "# %-30s %14.4f %-6s n=%d\n", e.Name, v.value, e.Unit, v.n)
		res.Metrics[e.Name] = metric{Value: v.value, Unit: e.Unit}
	}
	if !traced {
		// Latency percentiles of the open loop and sub-millisecond
		// replays move with the host's own stalls more than any bound
		// could absorb; they are shown, not compared.
		for _, k := range []string{"req_p50_ms", "req_p95_ms", "req_p99_ms", "api.hit_p50_ms", "loadgen.late_p50_ms", "loadgen.late_p99_ms"} {
			fmt.Fprintf(log, "# %-30s %14.4f %-6s n=%d (not compared)\n", k, m.vals[k].value, "ms", m.vals[k].n)
		}
	}
	return res, nil
}

// replayTraced reissues the window's distinct answered bodies in send
// order, each once untraced and once traced (alternating which goes
// first), until budget is spent, and derives the per-layer times. It
// returns how many replayed payloads differed from the recorded ones.
func replayTraced(m *measures, w *workload, samples []sample, ok []bool, recorded map[string]expect, budget time.Duration, spanPath string) (int, error) {
	ctx := context.Background()
	rp := newReplayer()
	for _, rq := range w.warm() {
		if _, err := rp.replay(ctx, nil, rq); err != nil {
			return 0, err
		}
	}
	var uniq []request
	seen := map[string]bool{}
	for i, s := range samples {
		if k := bodyKey(s.rq); ok[i] && !s.probe && !seen[k] {
			seen[k] = true
			uniq = append(uniq, s.rq)
		}
	}
	tr := &tracer{epoch: time.Now()}
	var untraced time.Duration
	mismatches := 0
	start := time.Now()
	n := 0
	for _, rq := range uniq {
		if n > 0 && time.Since(start) > budget {
			break
		}
		tr.req = n
		plain := func() error {
			t := time.Now()
			_, err := rp.replay(ctx, nil, rq)
			untraced += time.Since(t)
			return err
		}
		var errBefore, errAfter error
		if n%2 == 0 {
			errBefore = plain()
		}
		out, err := rp.replay(ctx, tr, rq)
		if n%2 == 1 {
			errAfter = plain()
		}
		if err := cmp.Or(errBefore, err, errAfter); err != nil {
			return 0, fmt.Errorf("replaying %s %s: %w", rq.path, rq.body, err)
		}
		plainRq := rq
		plainRq.stream = false
		if e, err := outcome(plainRq, out); err != nil || e != recorded[bodyKey(rq)] {
			mismatches++
		}
		n++
	}
	layers(m, tr, rp, n, untraced)
	return mismatches, tr.write(spanPath)
}
