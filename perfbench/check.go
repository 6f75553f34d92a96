package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"

	"mcmnpu/internal/api"
	"mcmnpu/internal/pareto"
	"mcmnpu/internal/sweep"
)

// digestFile holds the recorded payload digests, relative to the
// checkout root.
const digestFile = "perfbench/digests.txt"

// envelopeKeys are the response fields that describe how a result was
// computed rather than what it is: contract version, kind, content
// address, timings, cost-cache counters and the DSE engine's worker
// count. Payload comparison ignores them.
var envelopeKeys = []string{"version", "kind", "key", "timings", "cost_cache", "workers"}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:6])
}

// bodyKey identifies a request body in digests.txt.
func bodyKey(rq request) string {
	sum := sha256.Sum256(append([]byte(rq.path+"\n"), rq.body...))
	return hex.EncodeToString(sum[:6])
}

// expect is a body's recorded outcome: the payload digest and, for
// pareto reports, the digest of pareto.FrontierSignature.
type expect struct {
	payload  string
	frontier string
}

// payload reduces a 200 response body to its result: the envelope is
// dropped, and a streamed sweep's progress lines must agree with the
// final response, whose per-scenario work_ms timings are dropped too.
// The bytes are canonical (sorted keys), so equal results give equal
// payloads whichever path produced them.
func payload(rq request, body []byte) ([]byte, error) {
	if rq.stream {
		return streamPayload(body)
	}
	return stripEnvelope(body, rq.kind() == "sweep")
}

func stripEnvelope(body []byte, sweep bool) ([]byte, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, err
	}
	for _, k := range envelopeKeys {
		delete(m, k)
	}
	if sweep {
		var rs []map[string]json.RawMessage
		if err := json.Unmarshal(m["results"], &rs); err != nil {
			return nil, err
		}
		for _, r := range rs {
			delete(r, "work_ms")
		}
		raw, err := json.Marshal(rs)
		if err != nil {
			return nil, err
		}
		m["results"] = raw
	}
	return json.Marshal(m)
}

func streamPayload(body []byte) ([]byte, error) {
	type event struct {
		Type     string                     `json:"type"`
		Scenario map[string]json.RawMessage `json:"scenario"`
		Response json.RawMessage            `json:"response"`
		Error    string                     `json:"error"`
	}
	var events []event
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var e event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, err
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(events) == 0 || events[len(events)-1].Type != "done" {
		return nil, errors.New("stream did not end with a done event")
	}
	done := events[len(events)-1].Response
	var resp struct {
		Results []map[string]json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(done, &resp); err != nil {
		return nil, err
	}
	progress := events[:len(events)-1]
	if len(progress) != len(resp.Results) {
		return nil, fmt.Errorf("stream sent %d progress events for %d results", len(progress), len(resp.Results))
	}
	for i, e := range progress {
		if e.Type != "scenario" || !bytes.Equal(e.Scenario["table"], resp.Results[i]["table"]) {
			return nil, fmt.Errorf("stream progress event %d disagrees with the final response", i)
		}
	}
	return stripEnvelope(done, true)
}

// frontierDigest digests the frontier signature of a pareto response.
func frontierDigest(body []byte) (string, error) {
	var r struct {
		Report pareto.Report `json:"report"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return "", err
	}
	return digest([]byte(pareto.FrontierSignature(r.Report))), nil
}

// outcome computes the expectation a response body fulfils.
func outcome(rq request, body []byte) (expect, error) {
	p, err := payload(rq, body)
	if err != nil {
		return expect{}, err
	}
	e := expect{payload: digest(p)}
	if rq.kind() == "pareto" {
		if e.frontier, err = frontierDigest(body); err != nil {
			return expect{}, err
		}
	}
	return e, nil
}

func loadDigests(path string) (map[string]expect, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]expect{}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		e := expect{payload: f[1]}
		if len(f) > 2 {
			e.frontier = f[2]
		}
		out[f[0]] = e
	}
	return out, nil
}

// execute runs one request on svc exactly as the daemon's dispatch
// does and returns the marshaled response the daemon would have sent.
func execute(ctx context.Context, svc *api.Service, rq request) ([]byte, error) {
	req, err := decodeRequest(rq)
	if err != nil {
		return nil, err
	}
	var resp any
	switch r := req.(type) {
	case *api.RunScenarioRequest:
		resp, err = svc.RunScenario(ctx, r)
	case *api.GridSweepRequest:
		resp, err = svc.GridSweep(ctx, r)
	case *api.DSERequest:
		resp, err = svc.DSE(ctx, r)
	case *api.ParetoRequest:
		resp, err = svc.Pareto(ctx, r)
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(resp)
}

// serialOutcomes computes the expectation of every request on the
// serial service (api.NewService(nil)), two requests at a time.
func serialOutcomes(rqs []request) (map[string]expect, error) {
	svc := api.NewService(nil)
	out := make([]expect, len(rqs))
	err := sweep.New(2).Each(context.Background(), len(rqs), func(i int) error {
		// A serial sweep answers in one body; the daemon's stream
		// carries the same response in its done event.
		rq := rqs[i]
		rq.stream = false
		body, err := execute(context.Background(), svc, rq)
		if err == nil {
			out[i], err = outcome(rq, body)
		}
		if err != nil {
			return fmt.Errorf("serial %s %s: %w", rq.path, rq.body, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m := make(map[string]expect, len(rqs))
	for i, rq := range rqs {
		m[bodyKey(rq)] = out[i]
	}
	return m, nil
}

// record regenerates digests.txt from the serial service.
func record(path string) error {
	var rqs []request
	for _, p := range allPools() {
		for i := 0; i < p.recorded; i++ {
			rqs = append(rqs, p.gen(i))
		}
	}
	m, err := serialOutcomes(rqs)
	if err != nil {
		return err
	}
	if len(m) != len(rqs) {
		// A repeated body would be a result-cache hit inside a run.
		return fmt.Errorf("pools repeat %d bodies", len(rqs)-len(m))
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# Payload digests of every recorded pool body (see NOTES.md), computed on\n")
	b.WriteString("# api.NewService(nil). Regenerate: bash perfbench/run.sh -record\n")
	for _, k := range keys {
		e := m[k]
		fmt.Fprintf(&b, "%s %s", k, e.payload)
		if e.frontier != "" {
			fmt.Fprintf(&b, " %s", e.frontier)
		}
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// verify checks every answered sample against its recorded outcome,
// computing on the serial service the bodies digests.txt lacks. It
// marks each sample ok or not and returns the number of serial reruns.
func verify(samples []sample, recorded map[string]expect) ([]bool, int, error) {
	ok := make([]bool, len(samples))
	got := make([]expect, len(samples))
	var missing []request
	seen := map[string]bool{}
	for i := range samples {
		s := &samples[i]
		if s.err != nil || s.status != 200 {
			continue
		}
		e, err := outcome(s.rq, s.body)
		if err != nil {
			continue
		}
		got[i] = e
		k := bodyKey(s.rq)
		if _, have := recorded[k]; !have && !seen[k] {
			seen[k] = true
			missing = append(missing, s.rq)
		}
	}
	if len(missing) > 0 {
		extra, err := serialOutcomes(missing)
		if err != nil {
			return nil, 0, err
		}
		for k, e := range extra {
			recorded[k] = e
		}
	}
	for i := range samples {
		if got[i].payload != "" {
			ok[i] = got[i] == recorded[bodyKey(samples[i].rq)]
		}
	}
	return ok, len(missing), nil
}
