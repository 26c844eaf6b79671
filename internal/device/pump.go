package device

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mednet"
	"repro/internal/sim"
)

// PumpSettings program a PCA infusion pump. These are the safeguards the
// paper notes are "not sufficient to protect all patients": lockout and
// hourly limits bound what the button can deliver, but misprogramming and
// PCA-by-proxy defeat them — which is why the closed-loop supervisor exists.
type PumpSettings struct {
	BasalRateMgPerHour float64       // continuous background infusion
	BolusMg            float64       // demand-dose size
	BolusDuration      time.Duration // time over which a demand dose infuses
	LockoutInterval    time.Duration // min spacing between demand doses
	HourlyLimitMg      float64       // total-delivery cap per sliding hour
	StopDelay          time.Duration // mechanical latency of the stop path
	// ConcentrationFactor models drug-loading errors: the pump believes it
	// delivers X mg but actually delivers X*ConcentrationFactor. 1 = correct.
	ConcentrationFactor float64
}

// DefaultPumpSettings returns a typical post-operative morphine program.
func DefaultPumpSettings() PumpSettings {
	return PumpSettings{
		BasalRateMgPerHour:  0.5,
		BolusMg:             1.0,
		BolusDuration:       2 * time.Minute,
		LockoutInterval:     8 * time.Minute,
		HourlyLimitMg:       6,
		StopDelay:           2 * time.Second,
		ConcentrationFactor: 1,
	}
}

// Validate reports an error for clinically meaningless settings.
func (s PumpSettings) Validate() error {
	if s.BasalRateMgPerHour < 0 || s.BolusMg < 0 {
		return errors.New("device: negative pump dose")
	}
	if s.LockoutInterval < 0 || s.StopDelay < 0 {
		return errors.New("device: negative pump interval")
	}
	if s.BolusDuration <= 0 {
		return errors.New("device: bolus duration must be positive")
	}
	if s.HourlyLimitMg <= 0 {
		return errors.New("device: hourly limit must be positive")
	}
	if s.ConcentrationFactor <= 0 {
		return errors.New("device: concentration factor must be positive")
	}
	return nil
}

// PumpState enumerates the pump's operational state.
type PumpState int

const (
	PumpRunning  PumpState = iota
	PumpStopping           // stop commanded, mechanical delay running
	PumpStopped
)

// String names the state.
func (s PumpState) String() string {
	switch s {
	case PumpRunning:
		return "running"
	case PumpStopping:
		return "stopping"
	case PumpStopped:
		return "stopped"
	default:
		return "unknown"
	}
}

// Pump is the PCA infusion pump. It exposes ICE capabilities:
//
//	sensor   infusion-rate (mg/min)  — published every second
//	event    bolus                   — published on each demand dose
//	actuator stop, resume            — supervisor commands
//	setting  set-basal               — programming
type Pump struct {
	conn     *core.DeviceConn
	k        *sim.Kernel
	settings PumpSettings
	state    PumpState

	lastBolusAt sim.Time
	everBolused bool
	window      []dose // deliveries in the sliding hour
	bolusEnd    sim.Time
	bolusRate   float64 // mg/min while a demand dose is infusing

	// Counters for experiments.
	BolusesDelivered uint64
	BolusesDenied    uint64
	StopsReceived    uint64
}

type dose struct {
	at sim.Time
	mg float64
}

// PumpDescriptor returns the ICE descriptor a pump announces.
func PumpDescriptor(id string) core.Descriptor {
	return core.Descriptor{
		ID: id, Kind: core.KindInfusionPump,
		Manufacturer: "Repro Medical", Model: "PCA-100", Version: "1.0",
		Capabilities: []core.Capability{
			{Name: "infusion-rate", Class: core.ClassSensor, Unit: "mg/min", Criticality: 3},
			{Name: "bolus", Class: core.ClassEvent, Unit: "mg", Criticality: 3},
			{Name: "stop", Class: core.ClassActuator, Criticality: 3},
			{Name: "resume", Class: core.ClassActuator, Criticality: 3},
			{Name: "set-basal", Class: core.ClassSetting, Unit: "mg/h", Criticality: 3},
		},
	}
}

// NewPump connects a pump to the ICE and starts its telemetry.
func NewPump(k *sim.Kernel, net *mednet.Network, id string, s PumpSettings, cfg core.ConnectConfig) (*Pump, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	conn, err := core.Connect(k, net, PumpDescriptor(id), cfg)
	if err != nil {
		return nil, err
	}
	p := &Pump{conn: conn, k: k, settings: s, state: PumpRunning}
	conn.Handle("stop", func(map[string]float64) error {
		p.Stop()
		return nil
	})
	conn.Handle("resume", func(map[string]float64) error {
		p.Resume()
		return nil
	})
	conn.Handle("set-basal", func(args map[string]float64) error {
		rate, ok := args["rate"]
		if !ok || rate < 0 {
			return fmt.Errorf("set-basal requires nonnegative rate, got %v", args)
		}
		p.settings.BasalRateMgPerHour = rate
		return nil
	})
	k.Every(time.Second, func(now sim.Time) {
		if conn.Connected() {
			conn.Publish("infusion-rate", p.CurrentRateMgPerMin(), true, 1, now)
		}
	})
	return p, nil
}

// MustNewPump is NewPump for known-good settings.
func MustNewPump(k *sim.Kernel, net *mednet.Network, id string, s PumpSettings, cfg core.ConnectConfig) *Pump {
	p, err := NewPump(k, net, id, s, cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Conn exposes the ICE connection (for crash injection in experiments).
func (p *Pump) Conn() *core.DeviceConn { return p.conn }

// State reports the operational state.
func (p *Pump) State() PumpState { return p.state }

// Settings returns the active program.
func (p *Pump) Settings() PumpSettings { return p.settings }

// Stop begins the stop sequence; the infusion actually ceases after the
// mechanical StopDelay (Figure 1's "pump stop delay").
func (p *Pump) Stop() {
	p.StopsReceived++
	if p.state != PumpRunning {
		return
	}
	p.state = PumpStopping
	p.k.After(p.settings.StopDelay, func() {
		if p.state == PumpStopping {
			p.state = PumpStopped
		}
	})
}

// Resume restarts the infusion immediately.
func (p *Pump) Resume() { p.state = PumpRunning }

// PressButton handles a demand-dose request (the patient's button, or —
// in the PCA-by-proxy failure mode — anyone else's finger). It delivers a
// bolus when the lockout has elapsed, the sliding-hour limit permits, and
// the pump is running. Reports whether the dose was delivered.
func (p *Pump) PressButton() bool {
	now := p.k.Now()
	if p.state != PumpRunning {
		p.BolusesDenied++
		return false
	}
	if p.everBolused && now-p.lastBolusAt < sim.Time(p.settings.LockoutInterval) {
		p.BolusesDenied++
		return false
	}
	if p.deliveredLastHour(now)+p.settings.BolusMg > p.settings.HourlyLimitMg {
		p.BolusesDenied++
		return false
	}
	p.lastBolusAt = now
	p.everBolused = true
	actual := p.settings.BolusMg * p.settings.ConcentrationFactor
	p.window = append(p.window, dose{at: now, mg: p.settings.BolusMg}) // pump believes nominal
	// The demand dose infuses at a high rate over BolusDuration rather
	// than instantaneously; a supervisor stop cancels the remainder.
	p.bolusRate = actual / p.settings.BolusDuration.Minutes()
	p.bolusEnd = now + sim.Time(p.settings.BolusDuration)
	p.BolusesDelivered++
	if p.conn.Connected() {
		p.conn.Publish("bolus", p.settings.BolusMg, true, 1, now)
	}
	return true
}

func (p *Pump) deliveredLastHour(now sim.Time) float64 {
	cutoff := now - sim.Hour
	total := 0.0
	keep := p.window[:0]
	for _, d := range p.window {
		if d.at >= cutoff {
			keep = append(keep, d)
			total += d.mg
		}
	}
	p.window = keep
	return total
}

// CurrentRateMgPerMin implements DrugSource: the actual (possibly
// misprogrammed) continuous delivery rate, including any demand dose
// still infusing.
func (p *Pump) CurrentRateMgPerMin() float64 {
	if p.state == PumpStopped {
		return 0
	}
	rate := p.settings.BasalRateMgPerHour / 60 * p.settings.ConcentrationFactor
	if p.k.Now() < p.bolusEnd {
		rate += p.bolusRate
	}
	return rate
}

// TakePendingBolusMg implements DrugSource. The pump delivers demand doses
// through the rate path, so there is never an instantaneous pending mass.
func (p *Pump) TakePendingBolusMg() float64 { return 0 }
