package physio

import (
	"math"

	"repro/internal/sim"
)

// Vitals is a snapshot of the patient's true physiological state. Devices
// observe these through sensors that add their own noise and artifacts;
// the values here are ground truth used for scoring experiments.
type Vitals struct {
	HeartRate   float64 // beats/min
	SpO2        float64 // percent, [0,100]
	RespRate    float64 // breaths/min
	MAP         float64 // mean arterial pressure, mmHg
	Pain        float64 // pain score [0,10]
	DrugPlasma  float64 // central plasma concentration, mg/L
	DrugEffect  float64 // effect-site concentration, mg/L
	Depression  float64 // fractional respiratory depression [0,1]
	Ventilation float64 // fraction of baseline minute ventilation [0,1+]
}

// Traits are the per-patient baseline characteristics that population
// sampling varies and the EHR records.
type Traits struct {
	ID          string
	BaselineHR  float64 // resting heart rate (beats/min)
	BaselineRR  float64 // resting respiratory rate (breaths/min)
	BaselineMAP float64 // resting mean arterial pressure (mmHg)
	SpO2Tau     float64 // oxygen-store time constant (seconds)
	InitialPain float64 // post-operative pain score [0,10]
	PainRebound float64 // pain regeneration rate (score/hour)
	Athlete     bool    // trained athlete: low resting HR is normal
	WeightKg    float64
}

// DefaultTraits returns an average post-surgical adult.
func DefaultTraits() Traits {
	return Traits{
		ID:          "patient-0",
		BaselineHR:  72,
		BaselineRR:  14,
		BaselineMAP: 88,
		SpO2Tau:     45,
		InitialPain: 7,
		PainRebound: 1.2,
		WeightKg:    70,
	}
}

// Patient composes the PK, PD and vital-sign models into the plant of the
// paper's Figure 1: drug in (infusion + boluses), physiological signals out.
type Patient struct {
	Traits Traits
	pk     *PK
	pd     *PD
	rng    *sim.RNG

	pain  float64
	spo2  float64
	hr    float64
	rr    float64
	mapBP float64

	apneic       bool
	deadband     float64 // slow physiological wander state
	analgesiaE50 float64 // effect-site conc for half-maximal analgesia
	extVent      float64 // mechanical ventilation scale (1 = normal support)
	mapOffset    float64 // hemodynamic insult offset (mmHg), for validation scenarios
}

// NewPatient builds a patient from traits and drug models. rng drives
// physiological wander; it must not be shared with other consumers.
func NewPatient(tr Traits, pk *PK, pd *PD, rng *sim.RNG) *Patient {
	p := &Patient{
		Traits:       tr,
		pk:           pk,
		pd:           pd,
		rng:          rng,
		pain:         tr.InitialPain,
		spo2:         98,
		hr:           tr.BaselineHR,
		rr:           tr.BaselineRR,
		mapBP:        tr.BaselineMAP,
		analgesiaE50: pd.Params().EC50 * 0.2, // analgesia precedes depression
		extVent:      1,
	}
	return p
}

// SetExternalVentilation scales the patient's effective ventilation by an
// external factor: 1 for normal (spontaneous or full mechanical support),
// 0 when a paused ventilator leaves an anesthetized patient unventilated —
// the hazard in the paper's X-ray/ventilator scenario. Clamped to [0,1.5].
func (p *Patient) SetExternalVentilation(scale float64) {
	if scale < 0 {
		scale = 0
	}
	if scale > 1.5 {
		scale = 1.5
	}
	p.extVent = scale
}

// ExternalVentilation reports the current mechanical support scale.
func (p *Patient) ExternalVentilation() float64 { return p.extVent }

// InduceHemodynamicShift applies a persistent MAP offset (mmHg, negative
// for hypotension) — a validation hook for injecting true hemodynamic
// events into monitoring scenarios (challenge (h): simulators for testing
// and validation of MCPS). Pass 0 to clear.
func (p *Patient) InduceHemodynamicShift(deltaMmHg float64) {
	p.mapOffset = deltaMmHg
}

// DefaultPatient returns an average patient with nominal morphine models.
func DefaultPatient(rng *sim.RNG) *Patient {
	return NewPatient(DefaultTraits(), MustPK(DefaultMorphinePK()), MustPD(DefaultMorphinePD()), rng)
}

// Bolus delivers an instantaneous IV dose (mg), e.g. a PCA demand dose.
func (p *Patient) Bolus(mg float64) { p.pk.Bolus(mg) }

// PK exposes the underlying compartment model (read-mostly; used by
// experiment scoring).
func (p *Patient) PK() *PK { return p.pk }

// PD exposes the underlying effect-site model.
func (p *Patient) PD() *PD { return p.pd }

// satTarget maps the ventilation fraction r to the steady-state SpO2 the
// lungs would reach if r were held: ~98% when ventilating normally,
// falling quadratically toward a floor in deep hypoventilation.
func satTarget(r float64) float64 {
	if r > 1 {
		r = 1
	}
	if r < 0 {
		r = 0
	}
	t := 98 - 45*(1-r)*(1-r)
	if t < 55 {
		t = 55
	}
	return t
}

// Step advances the whole patient by dt of virtual time under a constant
// infusion rate (mg/min). Typical callers step at 1 s resolution.
func (p *Patient) Step(dt sim.Time, infusionMgPerMin float64) {
	dtMin := dt.Seconds() / 60
	if dtMin <= 0 {
		return
	}
	p.pk.Step(dtMin, infusionMgPerMin)
	p.pd.Step(dtMin, p.pk.Concentration())

	dep := p.pd.Depression()
	vent := (1 - dep) * p.extVent
	if vent < 0 {
		vent = 0
	}

	// Respiratory rate tracks drive with a short lag; apnea below 4/min.
	targetRR := p.Traits.BaselineRR * vent
	p.rr += (targetRR - p.rr) * math.Min(1, dt.Seconds()/20)
	p.apneic = p.rr < 4

	// SpO2: first-order pursuit of the ventilation-determined target.
	tau := p.Traits.SpO2Tau
	if tau < 5 {
		tau = 5
	}
	target := satTarget(vent)
	p.spo2 += (target - p.spo2) * (1 - math.Exp(-dt.Seconds()/tau))

	// Pain: relieved by effect-site drug, regenerates slowly.
	relief := p.pd.EffectSite() / (p.pd.EffectSite() + p.analgesiaE50)
	targetPain := p.Traits.InitialPain * (1 - relief)
	p.pain += (targetPain - p.pain) * math.Min(1, dt.Seconds()/120)
	p.pain += p.Traits.PainRebound * dt.Seconds() / 3600 * relief
	if p.pain < 0 {
		p.pain = 0
	}
	if p.pain > 10 {
		p.pain = 10
	}

	// Slow physiological wander shared by HR/MAP (Ornstein-Uhlenbeck-ish).
	p.deadband += (-p.deadband*0.1 + p.rng.Normal(0, 0.4)) * math.Min(1, dt.Seconds()/10)

	// Heart rate: pain raises it, opioid calms it, hypoxemia provokes
	// compensatory tachycardia until profound desaturation.
	hr := p.Traits.BaselineHR + 2.2*p.pain - 6*dep + 2*p.deadband
	if p.spo2 < 90 {
		hr += (90 - p.spo2) * 1.4
	}
	if p.spo2 < 65 { // decompensation: bradycardia sets in
		hr -= (65 - p.spo2) * 3
	}
	if hr < 20 {
		hr = 20
	}
	p.hr += (hr - p.hr) * math.Min(1, dt.Seconds()/15)

	// MAP: mildly lowered by the opioid, raised by pain, plus wander and
	// any injected hemodynamic insult.
	m := p.Traits.BaselineMAP - 10*dep + 1.5*p.pain + 1.5*p.deadband + p.mapOffset
	p.mapBP += (m - p.mapBP) * math.Min(1, dt.Seconds()/30)
}

// Vitals returns the current ground-truth snapshot.
func (p *Patient) Vitals() Vitals {
	dep := p.pd.Depression()
	vent := (1 - dep) * p.extVent
	if vent < 0 {
		vent = 0
	}
	return Vitals{
		HeartRate:   p.hr,
		SpO2:        p.spo2,
		RespRate:    p.rr,
		MAP:         p.mapBP,
		Pain:        p.pain,
		DrugPlasma:  p.pk.Concentration(),
		DrugEffect:  p.pd.EffectSite(),
		Depression:  dep,
		Ventilation: vent,
	}
}

// Apneic reports whether respiration has effectively ceased.
func (p *Patient) Apneic() bool { return p.apneic }

// InDistress reports whether the patient is in the danger zone the PCA
// supervisor must prevent: profound desaturation or apnea.
func (p *Patient) InDistress() bool {
	return p.spo2 < 85 || p.apneic
}

// WantsBolus models the patient's demand behaviour: the probability of
// pressing the PCA button in an interval dt grows with pain and vanishes
// when sedated. Returns true if the (simulated) patient presses now.
func (p *Patient) WantsBolus(dt sim.Time) bool {
	if p.pain < 2 || p.pd.Depression() > 0.5 {
		return false // comfortable, or too sedated to press
	}
	// Mean press interval shrinks from ~20 min at pain 3 to ~5 min at pain 9.
	meanIntervalSec := 3600 / (1 + p.pain*0.8)
	rate := dt.Seconds() / meanIntervalSec
	return p.rng.Bernoulli(rate)
}
