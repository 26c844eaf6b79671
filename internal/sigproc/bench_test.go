package sigproc

import (
	"testing"

	"repro/internal/sim"
)

// synthWindow returns one analysis window of a clean 72-bpm, 97% pleth.
func synthWindow(n int) []PlethSample {
	synth := NewSynth(DefaultSynth(), sim.NewRNG(1))
	dt := synth.SampleInterval()
	win := make([]PlethSample, n)
	for i := range win {
		win[i] = synth.Next(sim.Time(i+1)*dt, dt, 72, 97)
	}
	return win
}

// A full window of Push calls, the analysis included, must not allocate:
// the sample buffer, the AC series and the lag scores are all scratch
// sized at construction.
func TestAllocsEstimatorWindow(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation gates are meaningless under -race")
	}
	est := NewEstimator(DefaultEstimator())
	win := synthWindow(est.WindowSamples())
	analyzed := 0
	if got := testing.AllocsPerRun(100, func() {
		for _, s := range win {
			if _, ok := est.Push(s); ok {
				analyzed++
			}
		}
	}); got != 0 {
		t.Fatalf("one estimator window allocates %v, want 0", got)
	}
	if analyzed < 100 {
		t.Fatalf("only %d windows analyzed", analyzed)
	}
}

// BenchmarkEstimatorWindow measures one analysis window through the public
// API: WindowSamples Push calls, the last of which runs the analysis.
func BenchmarkEstimatorWindow(b *testing.B) {
	est := NewEstimator(DefaultEstimator())
	win := synthWindow(est.WindowSamples())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range win {
			est.Push(s)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "us/window")
}

// BenchmarkSynthWindow measures synthesizing one analysis window of
// samples, the other half of the oximeter's per-window cost.
func BenchmarkSynthWindow(b *testing.B) {
	synth := NewSynth(DefaultSynth(), sim.NewRNG(1))
	n := NewEstimator(DefaultEstimator()).WindowSamples()
	dt := synth.SampleInterval()
	var t sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < n; j++ {
			t += dt
			benchSample = synth.Next(t, dt, 72, 97)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "us/window")
}

var benchSample PlethSample
