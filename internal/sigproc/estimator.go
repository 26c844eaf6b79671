package sigproc

import (
	"math"

	"repro/internal/sim"
)

// Estimate is the oximeter's output: processed heart rate and SpO2 with a
// validity flag. Invalid estimates correspond to windows the signal-quality
// check rejected (artifact, dropout, non-physiologic ratio).
type Estimate struct {
	T         sim.Time // time of the window end
	HeartRate float64  // beats/min
	SpO2      float64  // percent
	Valid     bool
	Quality   float64 // [0,1] signal-quality index
}

// EstimatorParams size the processing window. The window length is the
// dominant component of the "signal processing time" delay in Figure 1:
// an estimate describes the patient as of half a window ago at best.
type EstimatorParams struct {
	SampleRate   float64  // Hz, must match the synthesizer
	Window       sim.Time // analysis window length (typ. 4 s)
	MinQuality   float64  // below this, the estimate is flagged invalid
	MaxHeartRate float64  // plausibility gate, beats/min
	MinHeartRate float64
}

// DefaultEstimator returns clinically typical processing parameters.
func DefaultEstimator() EstimatorParams {
	return EstimatorParams{
		SampleRate:   50,
		Window:       4 * sim.Second,
		MinQuality:   0.25,
		MaxHeartRate: 240,
		MinHeartRate: 25,
	}
}

// Estimator consumes pleth samples and emits one Estimate per window.
type Estimator struct {
	p       EstimatorParams
	samples []PlethSample
	perWin  int
	ac      []float64  // zero-mean IR scratch, reused across windows
	scan    lagScratch // heart-rate scan scratch, reused across windows
}

// NewEstimator returns an estimator sized for the given parameters.
func NewEstimator(p EstimatorParams) *Estimator {
	if p.SampleRate <= 0 || p.Window <= 0 {
		panic("sigproc: estimator needs positive rate and window")
	}
	if !(p.MinHeartRate > 0 && p.MaxHeartRate > p.MinHeartRate) {
		panic("sigproc: estimator needs 0 < MinHeartRate < MaxHeartRate")
	}
	perWin := int(p.Window.Seconds() * p.SampleRate)
	if perWin < 8 {
		panic("sigproc: window too short for analysis")
	}
	return &Estimator{
		p:       p,
		samples: make([]PlethSample, 0, perWin),
		perWin:  perWin,
		ac:      make([]float64, perWin),
		scan:    newLagScratch(perWin),
	}
}

// WindowSamples reports how many samples form one analysis window.
func (e *Estimator) WindowSamples() int { return e.perWin }

// ProcessingDelay reports the intrinsic latency of the estimator: a full
// window must elapse before the first estimate describing its contents.
func (e *Estimator) ProcessingDelay() sim.Time { return e.p.Window }

// Push adds one sample. When a full window has accumulated it is analyzed
// by Analyze, the buffer resets, and the estimate is returned with ok=true.
func (e *Estimator) Push(s PlethSample) (Estimate, bool) {
	e.samples = append(e.samples, s)
	if len(e.samples) < e.perWin {
		return Estimate{}, false
	}
	est := e.Analyze(e.samples)
	e.samples = e.samples[:0]
	return est, true
}

// Analyze runs ratio-of-ratios SpO2 estimation and autocorrelation-based
// heart-rate detection over one full window, the analysis Push runs when
// its buffer fills. Samples buffered by Push are left alone. It panics
// unless len(win) == WindowSamples(): its scratch is sized to one window.
func (e *Estimator) Analyze(win []PlethSample) Estimate {
	n := len(win)
	if n != e.perWin {
		panic("sigproc: Analyze needs exactly WindowSamples samples")
	}
	endT := win[n-1].T

	// Channel means (DC) and zero-mean AC series.
	var dcR, dcI float64
	for _, s := range win {
		dcR += s.Red
		dcI += s.IR
	}
	dcR /= float64(n)
	dcI /= float64(n)
	if dcR < 0.1 || dcI < 0.1 {
		// Probe off: no light path.
		return Estimate{T: endT, Valid: false, Quality: 0}
	}
	// The red channel's AC series is only ever reduced to its RMS, so it
	// is accumulated scalar-wise; the IR series feeds the autocorrelation
	// and lands in a reused scratch slice. Both changes preserve the
	// original floating-point operation order bit for bit.
	acI := e.ac[:n]
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
		return Estimate{T: endT, Valid: false, Quality: 0}
	}

	ratio := (rmsR / dcR) / (rmsI / dcI)
	spo2 := SpO2ForRatio(ratio)

	// Heart rate by autocorrelation peak of the IR AC component.
	hr, periodicity := autocorrHR(acI, &e.scan, e.p.SampleRate, e.p.MinHeartRate, e.p.MaxHeartRate)

	quality := periodicity
	valid := quality >= e.p.MinQuality && hr >= e.p.MinHeartRate && hr <= e.p.MaxHeartRate &&
		spo2 >= 40 && spo2 <= 100
	return Estimate{T: endT, HeartRate: hr, SpO2: spo2, Valid: valid, Quality: quality}
}

// lagScratch is autocorrHR's scratch for windows of up to n samples.
type lagScratch struct {
	scores []float64 // lag-indexed autocorrelation sums, n
	pre    []float64 // pre[k] is the sum of squares of x[:k], n+1
	suf    []float64 // suf[k] is the sum of squares of x[k:], n+1
}

func newLagScratch(n int) lagScratch {
	return lagScratch{
		scores: make([]float64, n),
		pre:    make([]float64, n+1),
		suf:    make([]float64, n+1),
	}
}

// autocorrHR finds the dominant periodicity in x and converts it to
// beats/min. The returned periodicity in [0,1] is the normalized
// autocorrelation at the detected lag — a natural signal-quality index
// that collapses under uncorrelated artifact noise. sc is scratch for at
// least len(x) samples.
//
// The scan scores lags in increasing order, four per block, and stops at
// the first block whose first lag L cannot beat the best score so far.
// By Cauchy–Schwarz the score at L, |Σ x[i+L]·x[i]|, is at most
// sqrt(P[n−L]·S[L]), where P[k] = Σ x[:k]² and S[k] = Σ x[k:]². Neither
// factor grows with L, so once the bound is below bestR·r0 no later
// lag can pass the strict r > bestR test: bestLag and bestR are the full
// scan's. The argument survives rounding:
//   - P and S are running sums of non-negative terms and rounding is
//     monotone, so the computed bound, too, never increases with L, with
//     or without fused multiply-adds.
//   - A computed m-term score exceeds the exact one by at most
//     γ_m·Σ|x[i+L]·x[i]| ≤ γ_m·sqrt(P·S), γ_m ≈ m·2⁻⁵³; the computed P and
//     S are within γ_n of the exact ones, and the bound, bestR·r0 and the
//     division by r0 each round a few times more: under (2n+8)·2⁻⁵³ in all.
//   - Below 2⁻¹⁰²² the errors turn absolute, at most 2⁻¹⁰⁷⁵ a product;
//     over a window of under 2³⁰ samples they stay below 2⁻⁵²²·(1+r0).
//
// So the stop test (sqrt(P)·sqrt(S) + 2⁻⁵²⁰·(1+r0))·(1+δ) < bestR·r0·(1−δ),
// with δ = 8n·2⁻⁵³ (1.8e-13 at n = 200), leaves every skipped lag's r
// at or below bestR, however x is scaled. On return sc.scores[lag] is
// lagCorr(x, lag) for every lag from minLag through the last block
// scored; entries past the stop are stale.
func autocorrHR(x []float64, sc *lagScratch, fs, minHR, maxHR float64) (hr, periodicity float64) {
	n := len(x)
	minLag := int(fs * 60 / maxHR)
	maxLag := int(fs * 60 / minHR)
	if maxLag >= n {
		maxLag = n - 1
	}
	if minLag < 1 {
		minLag = 1
	}
	// P and S in one pass: two independent add chains that overlap. P's
	// chain adds the squares in x's order from zero, the products and
	// order of the IR sum of squares, so r0 is that sum bit for bit.
	scores, pre, suf := sc.scores[:n], sc.pre[:n+1], sc.suf[:n+1]
	var p, s float64
	for i, v := range x {
		pre[i] = p
		p += v * v
		j := n - 1 - i
		suf[j+1] = s
		s += x[j] * x[j]
	}
	pre[n], suf[0] = p, s
	r0 := p
	slack := 8 * float64(n) * 0x1p-53
	floor := 0x1p-520 * (1 + r0)

	bestLag, bestR := 0, 0.0
	for lag := minLag; lag <= maxLag; {
		if (math.Sqrt(pre[n-lag])*math.Sqrt(suf[lag])+floor)*(1+slack) < bestR*r0*(1-slack) {
			break
		}
		last := min(lag+3, maxLag)
		lagScores(x, scores, lag, last)
		for ; lag <= last; lag++ {
			if r := scores[lag] / r0; r > bestR {
				bestR = r
				bestLag = lag
			}
		}
	}
	if bestLag == 0 {
		return 0, 0
	}
	// Refine: if lag/2 also scores nearly as high, the true period is the
	// half (we latched onto a subharmonic). half < bestLag, and the scan
	// scored every lag from minLag through bestLag before it could stop,
	// so scores[half] is this window's.
	if half := bestLag / 2; half >= minLag {
		if r := scores[half] / r0; r > 0.85*bestR {
			bestLag = half
			bestR = r
		}
	}
	return 60 * fs / float64(bestLag), clamp01(bestR)
}

// lagScores sets scores[lag] = lagCorr(x, lag) for every lag in
// [minLag, maxLag], bit for bit. It scores four consecutive lags per pass
// over x, each in its own accumulator: the four add chains are
// independent, so they overlap instead of each waiting out the FP-add
// latency of a single chain. Every accumulator still adds exactly
// lagCorr's products in lagCorr's order — the common prefix first, then
// its own remaining terms in increasing i — so no sum is reassociated.
func lagScores(x, scores []float64, minLag, maxLag int) {
	n := len(x)
	lag := minLag
	for ; lag+3 <= maxLag; lag += 4 {
		// Lag lag+k has n-lag-k terms; the first m are common to all four.
		m := n - lag - 3
		head := x[:m]
		t0 := x[lag:][:m]
		t1 := x[lag+1:][:m]
		t2 := x[lag+2:][:m]
		t3 := x[lag+3:][:m]
		var r0, r1, r2, r3 float64
		for i, v := range head {
			r0 += t0[i] * v
			r1 += t1[i] * v
			r2 += t2[i] * v
			r3 += t3[i] * v
		}
		// Lag lag+k has 3-k terms left, at i = m, m+1, ...
		for i := m; i < m+3; i++ {
			r0 += x[lag+i] * x[i]
		}
		for i := m; i < m+2; i++ {
			r1 += x[lag+1+i] * x[i]
		}
		r2 += x[lag+2+m] * x[m]
		scores[lag], scores[lag+1], scores[lag+2], scores[lag+3] = r0, r1, r2, r3
	}
	for ; lag <= maxLag; lag++ {
		scores[lag] = lagCorr(x, lag)
	}
}

// lagCorr is the raw autocorrelation sum at one lag: the products
// x[lag+i]*x[i] added to a zero start in increasing i, the order every
// scan must keep for its scores to stay bit-identical (Go never
// reassociates floating-point adds). Slicing the tail drops both bounds
// checks from the loop. Each add keeps the r += a*b shape, which arm64
// fuses into one multiply-add; lagScores' accumulators keep it too, so
// both fuse alike there.
func lagCorr(x []float64, lag int) float64 {
	var r float64
	tail := x[lag:]
	for i, v := range tail {
		r += v * x[i]
	}
	return r
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
