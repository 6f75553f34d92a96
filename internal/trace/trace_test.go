package trace

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestFramesDeterministic(t *testing.T) {
	a := NewGenerator(42).Frames(10)
	b := NewGenerator(42).Frames(10)
	if len(a) != len(b) || len(a) != 80 {
		t.Fatalf("lengths: %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("frame %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := NewGenerator(43).Frames(10)
	same := true
	for i := range a {
		if a[i].ArrivalMs != c[i].ArrivalMs {
			same = false
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

// Regression: generation used to mutate the seed, so two successive
// calls on one generator saw different arrivals — a reused generator
// made repeated sim.Run comparisons irreproducible.
func TestGeneratorReuseDeterministic(t *testing.T) {
	g := NewGenerator(11)
	fa, fb := g.Frames(6), g.Frames(6)
	if len(fa) != len(fb) {
		t.Fatalf("lengths differ: %d vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("frame %d differs on reuse: %v vs %v", i, fa[i], fb[i])
		}
	}
	sa, sb := g.FrameSets(6), g.FrameSets(6)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("set %d differs on reuse: %v vs %v", i, sa[i], sb[i])
		}
	}
	ta, tb := g.TelemetryStream(20, 50), g.TelemetryStream(20, 50)
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("telemetry %d differs on reuse: %v vs %v", i, ta[i], tb[i])
		}
	}
	// Interleaving calls must not perturb either stream.
	fc := g.Frames(6)
	for i := range fa {
		if fa[i] != fc[i] {
			t.Fatalf("frame %d differs after interleaved calls", i)
		}
	}
}

func TestFramesSortedAndNonNegative(t *testing.T) {
	fs := NewGenerator(7).Frames(30)
	for i := 1; i < len(fs); i++ {
		if fs[i].ArrivalMs < fs[i-1].ArrivalMs {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}
	for _, f := range fs {
		if f.ArrivalMs < 0 || f.Bytes <= 0 {
			t.Errorf("bad frame %v", f)
		}
	}
}

func TestFrameRate(t *testing.T) {
	g := NewGenerator(1)
	fs := g.Frames(31)
	// 30 FPS: last frame set near 1000 ms.
	var last float64
	for _, f := range fs {
		if f.Seq == 30 && f.ArrivalMs > last {
			last = f.ArrivalMs
		}
	}
	if last < 990 || last > 1010 {
		t.Errorf("frame 30 arrives at %.1f ms, want ~1000", last)
	}
}

func TestFrameSets(t *testing.T) {
	g := NewGenerator(3)
	sets := g.FrameSets(5)
	if len(sets) != 5 {
		t.Fatalf("sets = %d", len(sets))
	}
	for i, s := range sets {
		if s.Seq != i {
			t.Errorf("set %d has seq %d", i, s.Seq)
		}
	}
	// Set readiness = max camera arrival, so consecutive sets are
	// ~33 ms apart.
	gap := sets[1].ReadyMs - sets[0].ReadyMs
	if gap < 25 || gap > 42 {
		t.Errorf("set gap = %.1f ms, want ~33", gap)
	}
}

func TestTelemetryBounds(t *testing.T) {
	g := NewGenerator(5)
	ts := g.TelemetryStream(500, 100)
	if len(ts) != 500 {
		t.Fatalf("samples = %d", len(ts))
	}
	for _, s := range ts {
		if s.SpeedMS < 0 || s.SpeedMS > 35 {
			t.Errorf("speed out of bounds: %v", s.SpeedMS)
		}
		if s.YawRate < -0.5 || s.YawRate > 0.5 {
			t.Errorf("yaw out of bounds: %v", s.YawRate)
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	g := NewGenerator(1)
	if g.Frames(0) != nil || g.TelemetryStream(0, 10) != nil {
		t.Error("zero counts should return nil")
	}
}

// Property: every frame set contains exactly Cameras frames.
func TestSetCompletenessProperty(t *testing.T) {
	f := func(seed uint16, n uint8) bool {
		count := int(n)%20 + 1
		g := NewGenerator(uint64(seed))
		fs := g.Frames(count)
		perSeq := map[int]int{}
		for _, fr := range fs {
			perSeq[fr.Seq]++
		}
		for seq := 0; seq < count; seq++ {
			if perSeq[seq] != g.Cameras {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: FrameSets is the per-Seq max-reduction of Frames — the set
// is ready when its last camera arrives — across seeds, camera counts
// and jitters, including jitter wider than the frame period (sets
// arrive out of order), generators without cameras, and n = 0.
func TestFrameSetsMatchFramesProperty(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1 << 40} {
		for _, cams := range []int{0, 1, 5, 8, 12} {
			for _, jitter := range []float64{0, 1.5, 80, 1000} {
				for _, n := range []int{0, 1, 9, 40} {
					g := NewGenerator(seed)
					g.Cameras, g.JitterMs = cams, jitter
					want := make([]SetArrival, n)
					for seq := range want {
						want[seq].Seq = seq
					}
					for _, f := range g.Frames(n) {
						if f.ArrivalMs > want[f.Seq].ReadyMs {
							want[f.Seq].ReadyMs = f.ArrivalMs
						}
					}
					got := g.FrameSets(n)
					if got == nil || !reflect.DeepEqual(got, want) {
						t.Errorf("seed %d cams %d jitter %v n %d: FrameSets %v, max over Frames %v",
							seed, cams, jitter, n, got, want)
					}
				}
			}
		}
	}
}
