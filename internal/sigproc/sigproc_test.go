package sigproc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestMovingAverage(t *testing.T) {
	f := NewMovingAverage(3)
	if got := f.Push(3); got != 3 {
		t.Fatalf("first = %f", got)
	}
	if got := f.Push(6); got != 4.5 {
		t.Fatalf("second = %f", got)
	}
	f.Push(9)
	if !f.Full() {
		t.Fatal("window should be full")
	}
	if got := f.Push(12); got != 9 { // (6+9+12)/3
		t.Fatalf("rolled = %f, want 9", got)
	}
	f.Reset()
	if f.Full() || f.Value() != 0 {
		t.Fatal("reset failed")
	}
}

// Property: the moving average always equals the mean of the last n pushes.
func TestMovingAverageProperty(t *testing.T) {
	f := func(vals []float64, winSeed uint8) bool {
		win := int(winSeed%16) + 1
		ma := NewMovingAverage(win)
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			// Constrain to signal-like magnitudes; the running-sum
			// implementation is not meant for 1e308-scale inputs where
			// catastrophic cancellation dominates.
			v = math.Mod(v, 1e6)
			vals[i] = v
			got := ma.Push(v)
			lo := i - win + 1
			if lo < 0 {
				lo = 0
			}
			var sum float64
			for _, w := range vals[lo : i+1] {
				sum += w
			}
			want := sum / float64(i+1-lo)
			if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMedianRejectsSpike(t *testing.T) {
	f := NewMedian(5)
	for _, v := range []float64{10, 10, 10, 1000, 10} {
		f.Push(v)
	}
	if got := f.Value(); got != 10 {
		t.Fatalf("median = %f, want 10 (spike not rejected)", got)
	}
}

func TestMedianEvenPartialWindow(t *testing.T) {
	f := NewMedian(4)
	f.Push(1)
	f.Push(3)
	if got := f.Value(); got != 2 {
		t.Fatalf("median of {1,3} = %f, want 2", got)
	}
}

func TestSinglePolePrimesAndConverges(t *testing.T) {
	f := NewSinglePole(0.2)
	if got := f.Push(10); got != 10 {
		t.Fatalf("first sample should prime: %f", got)
	}
	for i := 0; i < 100; i++ {
		f.Push(20)
	}
	if math.Abs(f.Value()-20) > 0.01 {
		t.Fatalf("did not converge: %f", f.Value())
	}
}

func TestRateOfChangeLinear(t *testing.T) {
	f := NewRateOfChange(10)
	for i := 0; i < 10; i++ {
		f.Push(float64(i), 5+2*float64(i)) // slope 2
	}
	if got := f.Slope(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("slope = %f, want 2", got)
	}
}

func TestRateOfChangeDegenerate(t *testing.T) {
	f := NewRateOfChange(4)
	if f.Slope() != 0 {
		t.Fatal("empty slope should be 0")
	}
	f.Push(1, 5)
	if f.Slope() != 0 {
		t.Fatal("single-sample slope should be 0")
	}
	f.Push(1, 7) // same timestamp: zero denominator
	if got := f.Slope(); got != 0 {
		t.Fatalf("degenerate slope = %f, want 0", got)
	}
}

func TestCalibrationRoundTrip(t *testing.T) {
	for _, s := range []float64{100, 97, 90, 85, 70, 60} {
		if got := SpO2ForRatio(RatioForSpO2(s)); math.Abs(got-s) > 1e-9 {
			t.Fatalf("round trip %f -> %f", s, got)
		}
	}
}

// End-to-end: synthesize a clean pleth at known vitals, estimate, and
// verify HR and SpO2 are recovered within clinical accuracy (±3% SpO2,
// ±5 bpm — the accuracy class of real pulse oximeters).
func TestSynthEstimateRoundTrip(t *testing.T) {
	cases := []struct{ hr, spo2 float64 }{
		{60, 98}, {75, 97}, {110, 92}, {55, 85}, {140, 75},
	}
	for _, c := range cases {
		synth := NewSynth(DefaultSynth(), sim.NewRNG(11))
		est := NewEstimator(DefaultEstimator())
		dt := synth.SampleInterval()
		var got Estimate
		n := 0
		for ts := sim.Time(0); n < 3; ts += dt { // use the 3rd window (warm)
			s := synth.Next(ts, dt, c.hr, c.spo2)
			if e, ok := est.Push(s); ok {
				got = e
				n++
			}
		}
		if !got.Valid {
			t.Fatalf("hr=%f spo2=%f: estimate invalid (quality %f)", c.hr, c.spo2, got.Quality)
		}
		if math.Abs(got.HeartRate-c.hr) > 5 {
			t.Fatalf("hr=%f: estimated %f", c.hr, got.HeartRate)
		}
		if math.Abs(got.SpO2-c.spo2) > 3 {
			t.Fatalf("spo2=%f: estimated %f", c.spo2, got.SpO2)
		}
	}
}

func TestEstimatorFlagsDropout(t *testing.T) {
	synth := NewSynth(DefaultSynth(), sim.NewRNG(12))
	est := NewEstimator(DefaultEstimator())
	dt := synth.SampleInterval()
	synth.InjectDropout(0, 30*sim.Second)
	var last Estimate
	seen := 0
	for ts := sim.Time(0); seen < 2; ts += dt {
		s := synth.Next(ts, dt, 70, 97)
		if e, ok := est.Push(s); ok {
			last = e
			seen++
		}
	}
	if last.Valid {
		t.Fatalf("dropout window produced a valid estimate: %+v", last)
	}
}

func TestEstimatorMotionDegradesQuality(t *testing.T) {
	clean := windowQuality(t, 0)
	noisy := windowQuality(t, 8)
	if noisy >= clean {
		t.Fatalf("motion artifact did not degrade quality: clean=%f noisy=%f", clean, noisy)
	}
}

func windowQuality(t *testing.T, motionGain float64) float64 {
	t.Helper()
	synth := NewSynth(DefaultSynth(), sim.NewRNG(13))
	est := NewEstimator(DefaultEstimator())
	dt := synth.SampleInterval()
	if motionGain > 0 {
		synth.InjectMotion(0, sim.Minute, motionGain)
	}
	for ts := sim.Time(0); ; ts += dt {
		s := synth.Next(ts, dt, 70, 97)
		if e, ok := est.Push(s); ok {
			return e.Quality
		}
	}
}

func TestProcessingDelayMatchesWindow(t *testing.T) {
	p := DefaultEstimator()
	est := NewEstimator(p)
	if est.ProcessingDelay() != p.Window {
		t.Fatalf("delay = %v, want %v", est.ProcessingDelay(), p.Window)
	}
	if est.WindowSamples() != 200 { // 4 s * 50 Hz
		t.Fatalf("window samples = %d, want 200", est.WindowSamples())
	}
}

// Property: the estimator never emits Valid estimates with non-physiologic
// values, whatever junk the waveform contains.
func TestEstimatorPlausibilityGateProperty(t *testing.T) {
	f := func(seed int64, hrRaw, spo2Raw uint8) bool {
		hr := 20 + float64(hrRaw%230)
		spo2 := 40 + float64(spo2Raw%61)
		synth := NewSynth(DefaultSynth(), sim.NewRNG(seed))
		est := NewEstimator(DefaultEstimator())
		dt := synth.SampleInterval()
		if seed%3 == 0 {
			synth.InjectMotion(0, 20*sim.Second, 10)
		}
		count := 0
		for ts := sim.Time(0); count < 2; ts += dt {
			s := synth.Next(ts, dt, hr, spo2)
			if e, ok := est.Push(s); ok {
				count++
				if e.Valid {
					if e.HeartRate < 25 || e.HeartRate > 240 || e.SpO2 < 40 || e.SpO2 > 100 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPulseShapeBounded(t *testing.T) {
	for ph := 0.0; ph < 1; ph += 0.001 {
		v := pulseShape(ph)
		if v < 0 || v > 1.2 {
			t.Fatalf("pulseShape(%f) = %f out of bounds", ph, v)
		}
	}
}

// refAutocorrHR is the one-lag-at-a-time scan the blocked kernel replaced,
// kept as the equivalence oracle: it sums r0 itself and recomputes every
// lag, the subharmonic's included, in the textbook x[i]*x[i-lag] order.
func refAutocorrHR(x []float64, fs, minHR, maxHR float64) (hr, periodicity float64) {
	n := len(x)
	var r0 float64
	for _, v := range x {
		r0 += v * v
	}
	if r0 == 0 {
		return 0, 0
	}
	corr := func(lag int) float64 {
		var r float64
		for i := lag; i < n; i++ {
			r += x[i] * x[i-lag]
		}
		return r
	}
	minLag := int(fs * 60 / maxHR)
	maxLag := int(fs * 60 / minHR)
	if maxLag >= n {
		maxLag = n - 1
	}
	if minLag < 1 {
		minLag = 1
	}
	bestLag, bestR := 0, 0.0
	for lag := minLag; lag <= maxLag; lag++ {
		r := corr(lag) / r0
		if r > bestR {
			bestR = r
			bestLag = lag
		}
	}
	if bestLag == 0 {
		return 0, 0
	}
	if half := bestLag / 2; half >= minLag {
		if r := corr(half) / r0; r > 0.85*bestR {
			bestLag = half
			bestR = r
		}
	}
	return 60 * fs / float64(bestLag), clamp01(bestR)
}

// refEstimate is the estimator's analysis of one full window as it was
// before the blocked scan, built on refAutocorrHR.
func refEstimate(win []PlethSample, p EstimatorParams) Estimate {
	n := len(win)
	endT := win[n-1].T
	var dcR, dcI float64
	for _, s := range win {
		dcR += s.Red
		dcI += s.IR
	}
	dcR /= float64(n)
	dcI /= float64(n)
	if dcR < 0.1 || dcI < 0.1 {
		return Estimate{T: endT}
	}
	acI := make([]float64, n)
	var rmsR, rmsI float64
	for i, s := range win {
		ar := s.Red - dcR
		ai := s.IR - dcI
		acI[i] = ai
		rmsR += ar * ar
		rmsI += ai * ai
	}
	rmsR = math.Sqrt(rmsR / float64(n))
	rmsI = math.Sqrt(rmsI / float64(n))
	if rmsI == 0 {
		return Estimate{T: endT}
	}
	spo2 := SpO2ForRatio((rmsR / dcR) / (rmsI / dcI))
	hr, quality := refAutocorrHR(acI, p.SampleRate, p.MinHeartRate, p.MaxHeartRate)
	valid := quality >= p.MinQuality && hr >= p.MinHeartRate && hr <= p.MaxHeartRate &&
		spo2 >= 40 && spo2 <= 100
	return Estimate{T: endT, HeartRate: hr, SpO2: spo2, Valid: valid, Quality: quality}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// randomWindow returns a test window of one of three kinds: white noise,
// a noisy sinusoid, or small integers, whose lag sums tie exactly and so
// exercise the first-maximum-wins rule.
func randomWindow(rng *rand.Rand, n int, fs float64) []float64 {
	x := make([]float64, n)
	switch rng.Intn(3) {
	case 0:
		for i := range x {
			x[i] = rng.NormFloat64()
		}
	case 1:
		period := fs * 60 / (20 + 240*rng.Float64())
		for i := range x {
			x[i] = math.Sin(2*math.Pi*float64(i)/period) + 0.3*rng.NormFloat64()
		}
	default:
		for i := range x {
			x[i] = float64(rng.Intn(5) - 2)
		}
		x[0] = 1 // never an all-zero window
	}
	return x
}

// The blocked lag scan must return the reference's heart rate and
// periodicity bit for bit at every window length from 8 to 300 (lag counts
// that are not multiples of 4, maxLag clamped to n-1), at four sample
// rates, under the default gate and under a gate of fewer than 4 lags.
func TestLagScanMatchesReference(t *testing.T) {
	rates := []float64{10, 30, 50, 100}
	gates := []struct{ minHR, maxHR float64 }{{25, 240}, {73, 75}}
	for _, fs := range rates {
		if lags := int(fs*60/gates[1].minHR) - int(fs*60/gates[1].maxHR) + 1; lags >= 4 {
			t.Fatalf("narrow gate spans %d lags at fs %v", lags, fs)
		}
	}
	rng := rand.New(rand.NewSource(1))
	scores := make([]float64, 300)
	for n := 8; n <= 300; n++ {
		for _, fs := range rates {
			for _, g := range gates {
				x := randomWindow(rng, n, fs)
				var r0 float64
				for _, v := range x {
					r0 += v * v
				}
				wantHR, wantQ := refAutocorrHR(x, fs, g.minHR, g.maxHR)
				gotHR, gotQ := autocorrHR(x, scores[:n], r0, fs, g.minHR, g.maxHR)
				if !sameBits(gotHR, wantHR) || !sameBits(gotQ, wantQ) {
					t.Fatalf("n=%d fs=%v gate=%v: got (%v, %v), want (%v, %v)",
						n, fs, g, gotHR, gotQ, wantHR, wantQ)
				}
			}
		}
	}
}

// An alternating-amplitude pulse train repeats best at two beats, so the
// raw scan peaks at lag 50; one beat (lag 25) scores within 15% of it and
// the subharmonic refinement must report 120 bpm, as the reference does.
func TestLagScanSubharmonicRefinement(t *testing.T) {
	const n, fs, beat = 200, 50.0, 25
	x := make([]float64, n)
	var mean float64
	for i := range x {
		amp := 1.0
		if (i/beat)%2 == 1 {
			amp = 0.6
		}
		ph := float64(i%beat)/beat - 0.3
		x[i] = amp * math.Exp(-ph*ph/0.0064)
		mean += x[i]
	}
	mean /= n
	var r0 float64
	for i := range x {
		x[i] -= mean
		r0 += x[i] * x[i]
	}
	p := DefaultEstimator()
	scores := make([]float64, n)
	hr, q := autocorrHR(x, scores, r0, fs, p.MinHeartRate, p.MaxHeartRate)
	minLag, maxLag := int(fs*60/p.MaxHeartRate), int(fs*60/p.MinHeartRate)
	rawBest := minLag
	for lag := minLag; lag <= maxLag; lag++ {
		if scores[lag] > scores[rawBest] {
			rawBest = lag
		}
	}
	if rawBest != 2*beat || hr != 60*fs/beat {
		t.Fatalf("raw peak at lag %d, hr %v: want raw lag %d refined to %v bpm", rawBest, hr, 2*beat, 60*fs/beat)
	}
	if wantHR, wantQ := refAutocorrHR(x, fs, p.MinHeartRate, p.MaxHeartRate); !sameBits(hr, wantHR) || !sameBits(q, wantQ) {
		t.Fatalf("got (%v, %v), reference (%v, %v)", hr, q, wantHR, wantQ)
	}
}

// Through the public API, every estimate over synthesized windows with
// motion, dropout and bias injected must match the reference analysis of
// the same samples field for field, floats bit for bit.
func TestEstimatorMatchesReference(t *testing.T) {
	p := DefaultEstimator()
	valid, invalid := 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		synth := NewSynth(DefaultSynth(), sim.NewRNG(seed))
		est := NewEstimator(p)
		dt := synth.SampleInterval()
		win := make([]PlethSample, 0, est.WindowSamples())
		windows := 0
		for ts := sim.Time(0); windows < 40; ts += dt {
			if len(win) == 0 {
				switch windows {
				case 5:
					synth.InjectMotion(ts, 10*sim.Second, 6)
				case 15:
					synth.InjectDropout(ts, 8*sim.Second)
				case 25:
					synth.InjectBias(ts, 20*sim.Second, 10)
				}
			}
			hr := 40 + 15*float64(windows%12)
			spo2 := 99 - 4*float64(windows%7)
			s := synth.Next(ts, dt, hr, spo2)
			win = append(win, s)
			got, ok := est.Push(s)
			if !ok {
				continue
			}
			want := refEstimate(win, p)
			if got.T != want.T || got.Valid != want.Valid || !sameBits(got.HeartRate, want.HeartRate) ||
				!sameBits(got.SpO2, want.SpO2) || !sameBits(got.Quality, want.Quality) {
				t.Fatalf("seed %d window %d: got %+v, want %+v", seed, windows, got, want)
			}
			if got.Valid {
				valid++
			} else {
				invalid++
			}
			win = win[:0]
			windows++
		}
	}
	if valid == 0 || invalid == 0 {
		t.Fatalf("windows not varied: %d valid, %d invalid", valid, invalid)
	}
}

// A heart-rate gate that is empty, unbounded or inverted has no lag range
// to scan; NewEstimator rejects it like a non-positive rate or window.
func TestNewEstimatorRejectsDegenerateHeartRateGate(t *testing.T) {
	for _, c := range []struct {
		name         string
		minHR, maxHR float64
	}{
		{"zero min", 0, 240},
		{"zero max", 25, 0},
		{"inverted", 240, 25},
		{"equal", 72, 72},
		{"NaN min", math.NaN(), 240},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := DefaultEstimator()
			p.MinHeartRate, p.MaxHeartRate = c.minHR, c.maxHR
			defer func() {
				if recover() == nil {
					t.Fatalf("NewEstimator accepted MinHeartRate %v, MaxHeartRate %v", c.minHR, c.maxHR)
				}
			}()
			NewEstimator(p)
		})
	}
}
