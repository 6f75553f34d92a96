package sim_test

import (
	"reflect"
	"testing"

	"mcmnpu/internal/scenario"
	"mcmnpu/internal/sim"
	"mcmnpu/internal/trace"
)

// TestRegistryMatchesGreedy extends the engine-equivalence contract to
// every registry scenario's schedule — including ws-dataflow-8cam and
// mono-baseline-1x9216, whose contended chiplets make the event-driven
// engine re-key stale heap entries more than once per task — under the
// scenario's own arrivals and under jitter wider than the frame period,
// where frame sets arrive out of order and lazy admission must follow
// readiness rather than frame index. (An external test package: the
// scenario runner imports sim.)
func TestRegistryMatchesGreedy(t *testing.T) {
	for _, sp := range scenario.Registry() {
		p, err := scenario.Prepare(sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		shuffled := sp.Generator(5)
		shuffled.FPS, shuffled.JitterMs = 1000, 50
		if sets := shuffled.FrameSets(16); sorted(sets) {
			t.Fatalf("%s: jittered arrivals are in order; the out-of-order case is not exercised", sp.Name)
		}
		for _, frames := range []int{1, 3, 16, 48} {
			for _, tc := range []struct {
				name string
				gen  *trace.Generator
			}{{"scenario", sp.Generator(sp.Seed)}, {"out-of-order", shuffled}} {
				ev, err := sim.Run(p.Schedule, frames, tc.gen)
				if err != nil {
					t.Fatalf("%s/%s/%d: event-driven: %v", sp.Name, tc.name, frames, err)
				}
				gr, err := sim.RunGreedy(p.Schedule, frames, tc.gen)
				if err != nil {
					t.Fatalf("%s/%s/%d: greedy: %v", sp.Name, tc.name, frames, err)
				}
				if !reflect.DeepEqual(ev, gr) {
					t.Errorf("%s/%s/%d frames: engines diverged\nevent-driven: %+v\ngreedy:       %+v",
						sp.Name, tc.name, frames, ev, gr)
				}
			}
		}
	}
}

func sorted(sets []trace.SetArrival) bool {
	for i := 1; i < len(sets); i++ {
		if sets[i].ReadyMs < sets[i-1].ReadyMs {
			return false
		}
	}
	return true
}
