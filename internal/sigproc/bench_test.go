package sigproc

import (
	"testing"

	"repro/internal/sim"
)

// synthWindow returns one analysis window of a 97% pleth at bpm from a
// fresh synthesizer, corrupted by inject when it is non-nil.
func synthWindow(n int, bpm float64, inject func(*Synth)) []PlethSample {
	synth := NewSynth(DefaultSynth(), sim.NewRNG(1))
	if inject != nil {
		inject(synth)
	}
	dt := synth.SampleInterval()
	win := make([]PlethSample, n)
	for i := range win {
		win[i] = synth.Next(sim.Time(i+1)*dt, dt, bpm, 97)
	}
	return win
}

type namedWindow struct {
	name string
	win  []PlethSample
}

// windowMix is one window of each kind a cell's oximeter analyzes: clean
// pulses at both ends of the clinical range and between, motion artifact,
// which keeps the lag scan running to maxLag, and a probe dropout, which
// ends the analysis before the scan.
func windowMix(n int) []namedWindow {
	return []namedWindow{
		{"clean40", synthWindow(n, 40, nil)},
		{"clean72", synthWindow(n, 72, nil)},
		{"clean150", synthWindow(n, 150, nil)},
		{"motion", synthWindow(n, 72, func(s *Synth) { s.InjectMotion(0, sim.Minute, 6) })},
		{"dropout", synthWindow(n, 72, func(s *Synth) { s.InjectDropout(0, sim.Minute) })},
	}
}

// A full window of Push calls, the analysis included, must not allocate:
// the sample buffer, the AC series and the lag scan's scores and sums of
// squares are all scratch sized at construction.
func TestAllocsEstimatorWindow(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation gates are meaningless under -race")
	}
	est := NewEstimator(DefaultEstimator())
	win := synthWindow(est.WindowSamples(), 72, nil)
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

// BenchmarkEstimatorWindow measures one clean 72-bpm analysis window
// through Push: WindowSamples calls, the last of which runs the analysis.
// That window is the scan's early exit at its best; BenchmarkEstimatorMix
// covers the rest.
func BenchmarkEstimatorWindow(b *testing.B) {
	est := NewEstimator(DefaultEstimator())
	win := synthWindow(est.WindowSamples(), 72, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range win {
			est.Push(s)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "us/window")
}

// BenchmarkEstimatorMix measures Analyze, the oximeter's call, on each
// window of windowMix.
func BenchmarkEstimatorMix(b *testing.B) {
	est := NewEstimator(DefaultEstimator())
	for _, w := range windowMix(est.WindowSamples()) {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchEstimate = est.Analyze(w.win)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "us/window")
		})
	}
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

var (
	benchSample   PlethSample
	benchEstimate Estimate
)
