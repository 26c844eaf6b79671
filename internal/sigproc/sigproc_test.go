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
	minLag, maxLag := gateLags(n, fs, minHR, maxHR)
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

// gateLags is the lag range autocorrHR scans for a window of n samples.
func gateLags(n int, fs, minHR, maxHR float64) (minLag, maxLag int) {
	minLag, maxLag = int(fs*60/maxHR), int(fs*60/minHR)
	if maxLag >= n {
		maxLag = n - 1
	}
	if minLag < 1 {
		minLag = 1
	}
	return minLag, maxLag
}

// rawPeak is the lag of the scan's maximum before the subharmonic
// refinement, found by lagCorr over the whole range: the first lag whose
// normalized score is greatest, or 0 if none is positive.
func rawPeak(x []float64, minLag, maxLag int) int {
	var r0 float64
	for _, v := range x {
		r0 += v * v
	}
	best, bestR := 0, 0.0
	for lag := minLag; lag <= maxLag; lag++ {
		if r := lagCorr(x, lag) / r0; r > bestR {
			best, bestR = lag, r
		}
	}
	return best
}

// nanScratch returns scan scratch for n samples with every score NaN, so
// a score the scan did not write reads as NaN.
func nanScratch(n int) *lagScratch {
	sc := newLagScratch(n)
	for i := range sc.scores {
		sc.scores[i] = math.NaN()
	}
	return &sc
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

// sameEstimate compares two estimates field for field, floats bit for bit.
func sameEstimate(a, b Estimate) bool {
	return a.T == b.T && a.Valid == b.Valid && sameBits(a.HeartRate, b.HeartRate) &&
		sameBits(a.SpO2, b.SpO2) && sameBits(a.Quality, b.Quality)
}

// randomWindow returns a test window of one of four kinds for the gate
// [minLag, maxLag]: white noise; a noisy sinusoid; small integers, whose
// lag sums tie exactly and so exercise the first-maximum-wins rule; or a
// small-integer pattern repeated exactly with a period p inside the gate.
// In the last, lag p's score equals its Cauchy–Schwarz bound
// sqrt(P[n−p]·S[p]) exactly, so the scan's early exit has no room to err.
func randomWindow(rng *rand.Rand, n int, fs float64, minLag, maxLag int) []float64 {
	x := make([]float64, n)
	switch rng.Intn(4) {
	case 0:
		for i := range x {
			x[i] = rng.NormFloat64()
		}
	case 1:
		period := fs * 60 / (20 + 240*rng.Float64())
		for i := range x {
			x[i] = math.Sin(2*math.Pi*float64(i)/period) + 0.3*rng.NormFloat64()
		}
	case 2:
		for i := range x {
			x[i] = float64(rng.Intn(5) - 2)
		}
		x[0] = 1 // never an all-zero window
	default:
		p := 1 + rng.Intn(n-1)
		if minLag <= maxLag {
			p = minLag + rng.Intn(maxLag-minLag+1)
		}
		for i := range x[:p] {
			x[i] = float64(rng.Intn(5) - 2)
		}
		x[0] = 1
		for i := p; i < n; i++ {
			x[i] = x[i-p]
		}
	}
	return x
}

// The bounded lag scan must return the reference's heart rate and
// periodicity bit for bit at every window length from 8 to 300 (lag counts
// that are not multiples of 4, maxLag clamped to n-1), at four sample
// rates, under the default gate and under a gate of fewer than 4 lags.
// Wherever the refinement reads the raw peak's half lag, the scan must
// have scored it: the scores start as NaN, so a read ahead of the scan
// shows.
func TestLagScanMatchesReference(t *testing.T) {
	rates := []float64{10, 30, 50, 100}
	gates := []struct{ minHR, maxHR float64 }{{25, 240}, {73, 75}}
	for _, fs := range rates {
		if lags := int(fs*60/gates[1].minHR) - int(fs*60/gates[1].maxHR) + 1; lags >= 4 {
			t.Fatalf("narrow gate spans %d lags at fs %v", lags, fs)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for n := 8; n <= 300; n++ {
		for _, fs := range rates {
			for _, g := range gates {
				minLag, maxLag := gateLags(n, fs, g.minHR, g.maxHR)
				x := randomWindow(rng, n, fs, minLag, maxLag)
				sc := nanScratch(n)
				wantHR, wantQ := refAutocorrHR(x, fs, g.minHR, g.maxHR)
				gotHR, gotQ := autocorrHR(x, sc, fs, g.minHR, g.maxHR)
				if !sameBits(gotHR, wantHR) || !sameBits(gotQ, wantQ) {
					t.Fatalf("n=%d fs=%v gate=%v: got (%v, %v), want (%v, %v)",
						n, fs, g, gotHR, gotQ, wantHR, wantQ)
				}
				if half := rawPeak(x, minLag, maxLag) / 2; half >= minLag && math.IsNaN(sc.scores[half]) {
					t.Fatalf("n=%d fs=%v gate=%v: the refinement's lag %d was never scored", n, fs, g, half)
				}
			}
		}
	}
}

// The early exit must hold at any scale. Windows scaled far down, where
// the sums of squares underflow and rounding errors turn absolute, and
// far up, where they overflow, must still match the reference bit for
// bit; so must windows whose head alone is scaled down, where the squares
// of the head vanish but its products with the tail do not.
func TestLagScanMatchesReferenceAtExtremeScales(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, exp := range []int{-600, -540, -520, -500, -480, 480, 505} {
		for _, whole := range []bool{true, false} {
			for n := 8; n <= 300; n += 7 {
				for _, fs := range []float64{10, 50} {
					minLag, maxLag := gateLags(n, fs, 25, 240)
					x := randomWindow(rng, n, fs, minLag, maxLag)
					head := x
					if !whole {
						head = x[:n-3]
					}
					for i := range head {
						head[i] = math.Ldexp(head[i], exp)
					}
					wantHR, wantQ := refAutocorrHR(x, fs, 25, 240)
					gotHR, gotQ := autocorrHR(x, nanScratch(n), fs, 25, 240)
					if !sameBits(gotHR, wantHR) || !sameBits(gotQ, wantQ) {
						t.Fatalf("scale 2^%d (whole %v) n=%d fs=%v: got (%v, %v), want (%v, %v)",
							exp, whole, n, fs, gotHR, gotQ, wantHR, wantQ)
					}
				}
			}
		}
	}
}

// Near ties at the stop. Each window repeats a 12-sample pattern exactly,
// so lag 12's score equals its bound, and the pattern is a period-4 one
// with one sample moved by d, so lag 8's score crosses lag 12's as d
// grows. For the few thousand d after the crossing, the two scores, the
// bound at lag 12 and bestR·r0 agree to within rounding, and the scan
// must still pick the reference's lag for each; a stop test without the
// rounding slack stops at lag 12 too early for some of them. The bases
// are ones where it does. The gate spans lags 8–24, so neither lag's
// half is refined.
func TestLagScanNearTieAtTheStop(t *testing.T) {
	const n, fs, minHR, maxHR = 48, 10.0, 25.0, 75.0
	bases := [][4]float64{
		{-1.170653315761526, -0.6474057055250384, -1.2583964701992116, 0.1372945739105974},
		{1.1653094009454363, -1.1456042193416267, 1.911371608859263, 0.179686726312996},
		{-0.6946199731683498, -0.4820509651890248, 0.8203815923992245, -0.7747888176972985},
	}
	window := func(base [4]float64, d float64) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = base[i%4]
			if i%12 == 5 {
				x[i] += d
			}
		}
		return x
	}
	for _, base := range bases {
		gap := func(d float64) float64 {
			x := window(base, d)
			return lagCorr(x, 8) - lagCorr(x, 12)
		}
		lo, hi := 0.0, 4.0
		if gap(lo) <= 0 || gap(hi) >= 0 {
			t.Fatalf("base %v: lag 8 does not cross lag 12 on d in [0, 4]", base)
		}
		for mid := (lo + hi) / 2; mid != lo && mid != hi; mid = (lo + hi) / 2 {
			if gap(mid) > 0 {
				lo = mid
			} else {
				hi = mid
			}
		}
		lags := map[float64]bool{}
		for d, i := lo, 0; i < 4000; d, i = math.Nextafter(d, 5), i+1 {
			x := window(base, d)
			wantHR, wantQ := refAutocorrHR(x, fs, minHR, maxHR)
			gotHR, gotQ := autocorrHR(x, nanScratch(n), fs, minHR, maxHR)
			if !sameBits(gotHR, wantHR) || !sameBits(gotQ, wantQ) {
				t.Fatalf("base %v d=%v: got (%v, %v), want (%v, %v)", base, d, gotHR, gotQ, wantHR, wantQ)
			}
			lags[60*fs/wantHR] = true
		}
		if !lags[8] || !lags[12] {
			t.Fatalf("base %v: the reference's lag never changed across the crossing: %v", base, lags)
		}
	}
}

// Analyze's scratch is sized to one window, so it refuses any other
// length.
func TestAnalyzeRejectsPartialWindow(t *testing.T) {
	est := NewEstimator(DefaultEstimator())
	win := synthWindow(est.WindowSamples()+1, 72, nil)
	for _, n := range []int{0, est.WindowSamples() - 1, est.WindowSamples() + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Analyze accepted %d samples, want exactly %d", n, est.WindowSamples())
				}
			}()
			est.Analyze(win[:n])
		}()
	}
}

// On clean pulses the scan stops a few lags past the period, far short of
// maxLag (120 at the default gate): the lags it skipped keep the NaN the
// scores started with, and they form a suffix of the range.
func TestLagScanStopsPastThePeak(t *testing.T) {
	p := DefaultEstimator()
	n := NewEstimator(p).WindowSamples()
	minLag, maxLag := gateLags(n, p.SampleRate, p.MinHeartRate, p.MaxHeartRate)
	for _, bpm := range []float64{40, 72, 150} {
		x := irAC(synthWindow(n, bpm, nil))
		sc := nanScratch(n)
		hr, _ := autocorrHR(x, sc, p.SampleRate, p.MinHeartRate, p.MaxHeartRate)
		lag := int(math.Round(60 * p.SampleRate / hr))
		stop := minLag
		for stop <= maxLag && !math.IsNaN(sc.scores[stop]) {
			stop++
		}
		for l := stop; l <= maxLag; l++ {
			if !math.IsNaN(sc.scores[l]) {
				t.Fatalf("%v bpm: lag %d scored after the scan stopped at lag %d", bpm, l, stop)
			}
		}
		if stop <= lag || stop > lag+12 {
			t.Fatalf("%v bpm: scan stopped at lag %d, want within 12 lags past the detected lag %d (maxLag %d)",
				bpm, stop, lag, maxLag)
		}
		if half := lag / 2; half >= minLag && math.IsNaN(sc.scores[half]) {
			t.Fatalf("%v bpm: the refinement's lag %d was never scored", bpm, half)
		}
	}
}

// irAC returns the zero-mean IR series of a window, as Analyze forms it.
func irAC(win []PlethSample) []float64 {
	var dc float64
	for _, s := range win {
		dc += s.IR
	}
	dc /= float64(len(win))
	x := make([]float64, len(win))
	for i, s := range win {
		x[i] = s.IR - dc
	}
	return x
}

// An alternating-amplitude pulse train repeats best at two beats, so the
// raw scan peaks at lag 50; one beat (lag 25) scores within 15% of it and
// the subharmonic refinement must report 120 bpm, as the reference does.
// The raw peak comes from lagCorr: the scan's scores are stale past its
// stop.
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
	for i := range x {
		x[i] -= mean
	}
	p := DefaultEstimator()
	hr, q := autocorrHR(x, nanScratch(n), fs, p.MinHeartRate, p.MaxHeartRate)
	minLag, maxLag := gateLags(n, fs, p.MinHeartRate, p.MaxHeartRate)
	if rawBest := rawPeak(x, minLag, maxLag); rawBest != 2*beat || hr != 60*fs/beat {
		t.Fatalf("raw peak at lag %d, hr %v: want raw lag %d refined to %v bpm", rawBest, hr, 2*beat, 60*fs/beat)
	}
	if wantHR, wantQ := refAutocorrHR(x, fs, p.MinHeartRate, p.MaxHeartRate); !sameBits(hr, wantHR) || !sameBits(q, wantQ) {
		t.Fatalf("got (%v, %v), reference (%v, %v)", hr, q, wantHR, wantQ)
	}
}

// Through the public API, every estimate over synthesized windows with
// motion, dropout and bias injected must match the reference analysis of
// the same samples field for field, floats bit for bit, and Analyze of a
// completed window must return what Push did.
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
			if !sameEstimate(got, want) {
				t.Fatalf("seed %d window %d: got %+v, want %+v", seed, windows, got, want)
			}
			if a := est.Analyze(win); !sameEstimate(a, got) {
				t.Fatalf("seed %d window %d: Analyze %+v, Push %+v", seed, windows, a, got)
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
