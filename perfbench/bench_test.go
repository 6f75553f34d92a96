package main

import (
	"bytes"
	"testing"
	"time"
)

// Self times must sum to the root spans' durations, with adopted
// attribution spans charged to their adoptive parent.
func TestSelfTimesSumToRoots(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "api.request", Start: 0, End: 100, Parent: -1},
		{Name: "api.decode", Start: 0, End: 10, Parent: 0},
		{Name: "pareto.explore", Start: 10, End: 90, Parent: 0},
		{Name: "pareto.bound", Start: 200, End: 260, Parent: -1},
		{Name: "sched.build", Start: 200, End: 250, Parent: 3},
	}}
	tr.adopt(3, 2)
	self := tr.selfTimes()
	want := map[string]time.Duration{
		"api.request": 10, "api.decode": 10, "pareto.explore": 20, "pareto.bound": 10, "sched.build": 50,
	}
	var sum time.Duration
	for name, d := range self {
		if d != want[name] {
			t.Errorf("self[%s] = %d, want %d", name, d, want[name])
		}
		sum += d
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}

// Every block of serve-mix arrivals has the deck's exact shares, and
// a pair's two arrivals share one body and one due time.
func TestOpenMixDeck(t *testing.T) {
	r := rng{s: 3}
	sched := openMix(&r, 20*time.Second)
	if len(sched) != 20*mixRate {
		t.Fatalf("%d arrivals, want %d", len(sched), 20*mixRate)
	}
	kinds := map[string]int{} // first occurrences; replays repeat a body
	seen := map[string]bool{}
	pairs := 0
	for i, a := range sched {
		if k := bodyKey(a.rq); !seen[k] || a.rq.stream {
			seen[k] = true
			kinds[a.rq.kind()]++
		}
		if i > 0 && a.due == sched[i-1].due {
			pairs++
			if !bytes.Equal(a.rq.body, sched[i-1].rq.body) {
				t.Errorf("arrivals %d and %d share a due time but not a body", i-1, i)
			}
		}
	}
	blocks := len(sched) / len(mixBlock)
	if kinds["dse"] != 6*blocks || kinds["pareto"] != 2*blocks || kinds["sweep"] != 2*blocks || pairs != blocks {
		t.Errorf("kinds %v, %d pairs over %d blocks", kinds, pairs, blocks)
	}
}

// A streamed sweep reduces to the same payload as the batch response it
// carries, and a progress line that disagrees with it is rejected.
func TestStreamPayload(t *testing.T) {
	resp := `{"version":"v1","kind":"sweep","key":"k","timings":{"compute_ms":1},"cost_cache":{"hits":1,"misses":0,"entries":1},` +
		`"results":[{"scenario":"tolerance","table":{"rows":[["1%"]]},"work_ms":3}]}`
	batch := []byte(resp)
	stream := []byte(`{"type":"scenario","scenario":{"scenario":"tolerance","table":{"rows":[["1%"]]},"work_ms":2}}` + "\n" +
		`{"type":"done","response":` + resp + "}\n")
	sweep := request{path: "/v1/sweep"}
	want, err := payload(sweep, batch)
	if err != nil {
		t.Fatal(err)
	}
	sweep.stream = true
	got, err := payload(sweep, stream)
	if err != nil || !bytes.Equal(got, want) {
		t.Errorf("stream payload %s (%v), want %s", got, err, want)
	}
	bad := bytes.Replace(stream, []byte(`[["1%"]]},"work_ms":2`), []byte(`[["5%"]]},"work_ms":2`), 1)
	if _, err := payload(sweep, bad); err == nil {
		t.Error("a progress event disagreeing with the final response was accepted")
	}
}
