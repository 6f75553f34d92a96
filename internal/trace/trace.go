// Package trace generates synthetic sensor streams standing in for the
// vehicle's camera rig: 8 cameras at 30 FPS with bounded arrival jitter,
// plus telemetry ticks. The simulator is data-value agnostic — only
// shapes, sizes and timing matter — so a deterministic seeded generator
// exercises exactly the code paths real captures would.
package trace

import "fmt"

// Frame is one camera capture event.
type Frame struct {
	Seq       int     // frame sequence number (shared across cameras)
	Camera    int     // camera index, 0-based
	ArrivalMs float64 // arrival at the NPU ingress
	Bytes     int64   // encoded size entering the ISP
}

// Generator produces deterministic frame streams. Generation is
// stateless: every call derives its random stream from the stored seed
// without mutating it, so repeated Frames/FrameSets/TelemetryStream
// calls on one generator return identical sequences (a generator can be
// shared across sim.Run invocations and comparisons reproduce exactly).
type Generator struct {
	Cameras   int
	FPS       float64
	JitterMs  float64 // max absolute per-frame arrival jitter
	FrameSize int64   // bytes per frame (720p YUV420 by default)
	seed      uint64
}

// NewGenerator builds a generator with the paper's sensor setup
// (8 cameras, 720p @ 30 FPS).
func NewGenerator(seed uint64) *Generator {
	return &Generator{
		Cameras:   8,
		FPS:       30,
		JitterMs:  1.5,
		FrameSize: 720 * 1280 * 3 / 2,
		seed:      seed,
	}
}

// rng is a SplitMix64 stream — tiny, deterministic, stdlib-free. Each
// Generator method runs its own rng copied from the seed, leaving the
// generator untouched.
type rng struct{ state uint64 }

// telemetryDomain decorrelates the telemetry stream from the frame
// stream of the same seed (arbitrary odd constant).
const telemetryDomain = 0xd1342543de82ef95

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// uniform returns a deterministic float in [-1, 1).
func (r *rng) uniform() float64 {
	return float64(int64(r.next()>>11))/float64(1<<52) - 1
}

// Frames produces n frame sets (n * Cameras events) ordered by arrival.
func (g *Generator) Frames(n int) []Frame {
	if n <= 0 || g.Cameras <= 0 || g.FPS <= 0 {
		return nil
	}
	r := rng{state: g.seed}
	period := 1e3 / g.FPS
	out := make([]Frame, 0, n*g.Cameras)
	for seq := 0; seq < n; seq++ {
		base := float64(seq) * period
		for cam := 0; cam < g.Cameras; cam++ {
			out = append(out, Frame{Seq: seq, Camera: cam, ArrivalMs: g.arrival(&r, base), Bytes: g.FrameSize})
		}
	}
	// Arrival order within a frame set can interleave; sort stably.
	sortFrames(out)
	return out
}

// arrival draws one camera's arrival for a set due at base: bounded
// jitter, clamped at zero.
func (g *Generator) arrival(r *rng, base float64) float64 {
	arr := base + r.uniform()*g.JitterMs
	if arr < 0 {
		arr = 0
	}
	return arr
}

func sortFrames(fs []Frame) {
	// Insertion sort: streams are nearly sorted already.
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].ArrivalMs < fs[j-1].ArrivalMs; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

// SetArrival describes when a full 8-camera frame set is ready (the
// pipeline consumes complete sets).
type SetArrival struct {
	Seq     int
	ReadyMs float64
}

// FrameSets reduces the stream to per-set readiness times (last camera's
// arrival gates the set). It draws the same arrivals as Frames, in the
// same order, and keeps each set's running max — the max does not
// depend on order, so the sets equal the per-Seq max over Frames(n)
// without materializing it. A generator without cameras or frame rate
// yields n sets ready at 0.
func (g *Generator) FrameSets(n int) []SetArrival {
	if n <= 0 {
		return []SetArrival{}
	}
	out := make([]SetArrival, n)
	for seq := range out {
		out[seq].Seq = seq
	}
	if g.Cameras <= 0 || g.FPS <= 0 {
		return out
	}
	r := rng{state: g.seed}
	period := 1e3 / g.FPS
	for seq := range out {
		base := float64(seq) * period
		var ready float64
		for cam := 0; cam < g.Cameras; cam++ {
			if arr := g.arrival(&r, base); arr > ready {
				ready = arr
			}
		}
		out[seq].ReadyMs = ready
	}
	return out
}

// Telemetry is one ego-kinematics sample.
type Telemetry struct {
	TimeMs  float64
	SpeedMS float64 // m/s
	YawRate float64 // rad/s
}

// TelemetryStream produces n samples at the given rate with a smooth
// deterministic drive profile (accelerate, cruise, turn).
func (g *Generator) TelemetryStream(n int, hz float64) []Telemetry {
	if n <= 0 || hz <= 0 {
		return nil
	}
	r := rng{state: g.seed ^ telemetryDomain}
	out := make([]Telemetry, 0, n)
	speed, yaw := 8.0, 0.0
	for i := 0; i < n; i++ {
		speed += r.uniform() * 0.3
		if speed < 0 {
			speed = 0
		}
		if speed > 35 {
			speed = 35
		}
		yaw += r.uniform() * 0.02
		if yaw > 0.5 {
			yaw = 0.5
		}
		if yaw < -0.5 {
			yaw = -0.5
		}
		out = append(out, Telemetry{TimeMs: float64(i) * 1e3 / hz, SpeedMS: speed, YawRate: yaw})
	}
	return out
}

func (f Frame) String() string {
	return fmt.Sprintf("frame{seq=%d cam=%d t=%.2fms %dB}", f.Seq, f.Camera, f.ArrivalMs, f.Bytes)
}
