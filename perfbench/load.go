package main

import (
	"bytes"
	"context"
	"net/http"
	"sync"
	"time"
)

// sample is one request's outcome. Times are offsets from the start of
// the timed window.
type sample struct {
	rq     request
	due    time.Duration // when the request should have been sent
	sent   time.Duration
	done   time.Duration
	status int
	hit    bool // answered from the result cache (X-Cache: hit)
	body   []byte
	err    error
	probe  bool // post-window cache-replay probe, not part of the workload's traffic
}

// latency is the request's time from its due time to its last byte.
func (s *sample) latency() time.Duration { return s.done - s.due }

// send issues one POST and fills in the outcome.
func send(ctx context.Context, c *http.Client, url string, t0 time.Time, s *sample) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+s.rq.path, bytes.NewReader(s.rq.body))
	if err != nil {
		s.err = err
		return
	}
	s.sent = time.Since(t0)
	s.status, s.hit, s.body, s.err = post(c, req)
	s.done = time.Since(t0)
}

// closedLoop runs `clients` clients, each sending its next request as
// soon as the previous one answers, until d elapses. Requests still in
// flight at the deadline are abandoned and not counted.
func closedLoop(url string, clients int, d time.Duration, next func() request) (samples []sample, t0 time.Time) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	t0 = time.Now()
	wg.Add(clients)
	for range clients {
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for ctx.Err() == nil {
				s := sample{rq: next()}
				send(ctx, c, url, t0, &s)
				s.due = s.sent
				if s.err != nil && ctx.Err() != nil {
					return // cut by the deadline
				}
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, t0
}

// openLoop sends a fixed arrival schedule over `conns` connections:
// each connection takes the next arrival in due order and sends it at
// its due time, or as soon as the connection frees up when it is
// already late. Latency is measured from the due time, so a stall
// charges the wait it imposes on every later arrival.
func openLoop(url string, conns int, sched []scheduled) (samples []sample, t0 time.Time) {
	samples = make([]sample, len(sched))
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	t0 = time.Now()
	wg.Add(conns)
	for range conns {
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(sched) {
					return
				}
				s := &samples[i]
				s.rq, s.due = sched[i].rq, sched[i].due
				if wait := s.due - time.Since(t0); wait > 0 {
					time.Sleep(wait)
				}
				send(context.Background(), c, url, t0, s)
			}
		}()
	}
	wg.Wait()
	return samples, t0
}

// probeHits re-sends bodies the daemon already answered, one at a
// time, to time result-cache replays on workloads whose own traffic
// never repeats a body. The most recent bodies are still cached. Hit
// latency is a fraction of a millisecond and drifts within a second, so
// the probe is spread over probeBatches batches with idle gaps between.
func probeHits(url string, served []sample, t0 time.Time) []sample {
	var bodies []request
	for i := len(served) - 1; i >= 0 && len(bodies) < probeBatch; i-- {
		if served[i].err == nil && served[i].status == http.StatusOK {
			bodies = append(bodies, served[i].rq)
		}
	}
	if len(bodies) == 0 {
		return nil
	}
	c := newClient()
	defer c.CloseIdleConnections()
	out := make([]sample, 0, probeBatches*probeBatch)
	for b := 0; b < probeBatches; b++ {
		if b > 0 {
			time.Sleep(probeGap)
		}
		for i := 0; i < probeBatch; i++ {
			s := sample{rq: bodies[i%len(bodies)], probe: true}
			send(context.Background(), c, url, t0, &s)
			s.due = s.sent
			out = append(out, s)
		}
	}
	return out
}

// Cache-probe shape: 8 batches of 25 replays, 250 ms apart.
const (
	probeBatches = 8
	probeBatch   = 25
	probeGap     = 250 * time.Millisecond
)
