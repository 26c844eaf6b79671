package device

import (
	"repro/internal/core"
	"repro/internal/mednet"
	"repro/internal/physio"
	"repro/internal/sigproc"
	"repro/internal/sim"
)

// Oximeter is the pulse oximeter of Figure 1. Rather than reading the
// patient's ground truth directly, it synthesizes a photoplethysmogram
// from the true vitals and runs the sigproc estimator over it — so its
// published values carry realistic estimation error, artifact-induced
// dropouts, and the full "signal processing time" latency of the paper's
// control-loop delay budget (one analysis window per estimate).
//
// Capabilities:
//
//	sensor spo2        (%)   — one estimate per analysis window
//	sensor heart-rate  (bpm)
type Oximeter struct {
	conn    *core.DeviceConn
	k       *sim.Kernel
	patient *physio.Patient
	synth   *sigproc.Synth
	est     *sigproc.Estimator
	win     []sigproc.PlethSample // one analysis window, reused

	// Counters for experiments.
	Estimates        uint64
	InvalidEstimates uint64
}

// OximeterDescriptor returns the ICE descriptor an oximeter announces.
func OximeterDescriptor(id string) core.Descriptor {
	return core.Descriptor{
		ID: id, Kind: core.KindPulseOximeter,
		Manufacturer: "Repro Medical", Model: "OXI-50", Version: "1.0",
		Capabilities: []core.Capability{
			{Name: "spo2", Class: core.ClassSensor, Unit: "%", Criticality: 3},
			{Name: "heart-rate", Class: core.ClassSensor, Unit: "bpm", Criticality: 3},
		},
	}
}

// NewOximeter connects an oximeter observing the given patient. For event-
// queue economy the waveform is synthesized in one batch per analysis
// window: the estimator sees the same samples it would have accumulated
// at the device's sampling rate, and the estimate is published at the
// window's end — the same observable timing at a fraction of the events.
func NewOximeter(k *sim.Kernel, net *mednet.Network, id string, patient *physio.Patient, rng *sim.RNG, cfg core.ConnectConfig) (*Oximeter, error) {
	conn, err := core.Connect(k, net, OximeterDescriptor(id), cfg)
	if err != nil {
		return nil, err
	}
	o := &Oximeter{
		conn:    conn,
		k:       k,
		patient: patient,
		synth:   sigproc.NewSynth(sigproc.DefaultSynth(), rng),
		est:     sigproc.NewEstimator(sigproc.DefaultEstimator()),
	}
	o.win = make([]sigproc.PlethSample, o.est.WindowSamples())
	window := o.est.ProcessingDelay()
	k.Every(window.Duration(), func(now sim.Time) { o.processWindow(now, window) })
	return o, nil
}

// MustNewOximeter is NewOximeter, panicking on error.
func MustNewOximeter(k *sim.Kernel, net *mednet.Network, id string, patient *physio.Patient, rng *sim.RNG, cfg core.ConnectConfig) *Oximeter {
	o, err := NewOximeter(k, net, id, patient, rng, cfg)
	if err != nil {
		panic(err)
	}
	return o
}

// Conn exposes the ICE connection.
func (o *Oximeter) Conn() *core.DeviceConn { return o.conn }

// InjectMotion corrupts the probe signal with motion artifact for d.
func (o *Oximeter) InjectMotion(d sim.Time, gain float64) {
	o.synth.InjectMotion(o.k.Now(), d, gain)
}

// InjectDropout simulates probe disconnection for d. During the dropout
// the estimator flags its windows invalid — the supervisor must treat this
// as missing data, not as a healthy reading.
func (o *Oximeter) InjectDropout(d sim.Time) {
	o.synth.InjectDropout(o.k.Now(), d)
}

// InjectBias simulates a mispositioned probe for d: readings stay valid
// (clean waveform) but run delta points low — the single-sensor artifact
// the paper's smart-alarm discussion targets.
func (o *Oximeter) InjectBias(d sim.Time, delta float64) {
	o.synth.InjectBias(o.k.Now(), d, delta)
}

func (o *Oximeter) processWindow(now sim.Time, window sim.Time) {
	if !o.conn.Connected() {
		return
	}
	v := o.patient.Vitals()
	dt := o.synth.SampleInterval()
	start := now - window
	for i := range o.win {
		o.win[i] = o.synth.Next(start+sim.Time(i)*dt, dt, v.HeartRate, v.SpO2)
	}
	e := o.est.Analyze(o.win)
	o.Estimates++
	if !e.Valid {
		o.InvalidEstimates++
	}
	o.conn.Publish("spo2", e.SpO2, e.Valid, e.Quality, start)
	o.conn.Publish("heart-rate", e.HeartRate, e.Valid, e.Quality, start)
}
