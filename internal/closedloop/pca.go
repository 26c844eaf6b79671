// Package closedloop implements the clinical applications the paper
// builds its case on: the PCA safety supervisor of Figure 1 and the
// X-ray/ventilator synchronizer of Section II.b. Both are ICE apps: they
// see the patient only through published sensor data and act only through
// acknowledged device commands, across the lossy simulated network.
package closedloop

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// PCAConfig tunes the PCA safety supervisor.
type PCAConfig struct {
	PumpID     string
	OximeterID string

	// StopSpO2 is the desaturation threshold that triggers a pump stop.
	StopSpO2 float64
	// ResumeSpO2 is the recovery threshold for automatic resumption.
	ResumeSpO2 float64
	// RecoveryHold is how long SpO2 must stay above ResumeSpO2 before the
	// supervisor resumes the infusion.
	RecoveryHold time.Duration
	// HRLow/HRHigh corroborate desaturation with heart-rate derangement;
	// either bound breached together with low SpO2 escalates the alarm.
	HRLow, HRHigh float64

	// DataTimeout is the maximum silence (no valid oximeter estimate)
	// before the supervisor acts on missing data.
	DataTimeout time.Duration
	// FailSafe selects the design decision D1: on data timeout, true
	// stops the pump (fail-safe), false keeps it running (fail-operational).
	FailSafe bool

	// AlgorithmDelay models the supervisor's own decision latency
	// (Figure 1's "algorithm processing time").
	AlgorithmDelay time.Duration
	// CommandTimeout bounds how long to wait for a pump acknowledgement
	// before retrying.
	CommandTimeout time.Duration
	// AutoResume enables automatic resumption after recovery; when false
	// a caregiver must resume the pump out-of-band.
	AutoResume bool
}

// DefaultPCAConfig returns the supervisor settings used by experiment F1.
func DefaultPCAConfig(pumpID, oximeterID string) PCAConfig {
	return PCAConfig{
		PumpID:         pumpID,
		OximeterID:     oximeterID,
		StopSpO2:       93,
		ResumeSpO2:     96,
		RecoveryHold:   2 * time.Minute,
		HRLow:          40,
		HRHigh:         130,
		DataTimeout:    15 * time.Second,
		FailSafe:       true,
		AlgorithmDelay: 100 * time.Millisecond,
		CommandTimeout: 2 * time.Second,
		AutoResume:     true,
	}
}

// Validate reports an error for unusable configurations.
func (c PCAConfig) Validate() error {
	if c.PumpID == "" || c.OximeterID == "" {
		return errors.New("closedloop: PCA supervisor needs pump and oximeter IDs")
	}
	if c.StopSpO2 <= 0 || c.StopSpO2 >= 100 {
		return errors.New("closedloop: StopSpO2 outside (0,100)")
	}
	if c.ResumeSpO2 < c.StopSpO2 {
		return errors.New("closedloop: ResumeSpO2 below StopSpO2 would chatter")
	}
	if c.DataTimeout <= 0 || c.CommandTimeout <= 0 {
		return errors.New("closedloop: timeouts must be positive")
	}
	if c.AlgorithmDelay < 0 || c.RecoveryHold < 0 {
		return errors.New("closedloop: negative delays")
	}
	return nil
}

// PCAState is the supervisor's commanded pump state.
type PCAState int

const (
	PCAInfusing PCAState = iota
	PCASuspended
)

// String names the state.
func (s PCAState) String() string {
	if s == PCASuspended {
		return "suspended"
	}
	return "infusing"
}

// Alarm is one supervisor alarm emission.
type Alarm struct {
	At   sim.Time
	Kind string // "desat", "desat+hr", "data-timeout", "command-failed"
	Msg  string
}

// PCASupervisor is the control box of Figure 1: it consumes oximeter
// estimates off the ICE bus, decides, and commands the pump — tolerant of
// lost data, lost commands and dead devices.
type PCASupervisor struct {
	cfg PCAConfig
	mgr *core.Manager
	k   *sim.Kernel

	state         PCAState
	lastValidData sim.Time
	lastSpO2      float64
	lastHR        float64
	recoveredAt   sim.Time // first instant of sustained recovery; 0 = none
	timeoutFired  bool

	alarms   []Alarm
	onAlarm  []func(Alarm)
	watchdog *sim.Ticker

	// decidePool recycles the argument slots of in-flight decide events,
	// so the per-estimate algorithm-delay hop schedules allocation-free.
	decidePool []*decideCtx

	// Counters for experiments.
	StopsIssued    uint64
	ResumesIssued  uint64
	DataTimeouts   uint64
	CommandRetries uint64
	StopLatencySum sim.Time // decision-to-ack, summed for averaging
	StopAcks       uint64
}

// NewPCASupervisor attaches the supervisor to the manager's bus.
func NewPCASupervisor(k *sim.Kernel, mgr *core.Manager, cfg PCAConfig) (*PCASupervisor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &PCASupervisor{cfg: cfg, mgr: mgr, k: k, state: PCAInfusing}
	mgr.Subscribe(core.Topic(cfg.OximeterID, "spo2"), func(_ string, d core.Datum) { s.onSpO2(d) })
	mgr.Subscribe(core.Topic(cfg.OximeterID, "heart-rate"), func(_ string, d core.Datum) { s.onHR(d) })
	s.lastValidData = k.Now()
	s.watchdog = k.Every(time.Second, func(now sim.Time) { s.checkTimeout(now) })
	return s, nil
}

// MustNewPCASupervisor is NewPCASupervisor, panicking on error.
func MustNewPCASupervisor(k *sim.Kernel, mgr *core.Manager, cfg PCAConfig) *PCASupervisor {
	s, err := NewPCASupervisor(k, mgr, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// State reports the commanded pump state.
func (s *PCASupervisor) State() PCAState { return s.state }

// Alarms returns all alarms raised so far.
func (s *PCASupervisor) Alarms() []Alarm { return s.alarms }

// OnAlarm registers an alarm listener.
func (s *PCASupervisor) OnAlarm(fn func(Alarm)) { s.onAlarm = append(s.onAlarm, fn) }

// Stop detaches the watchdog (end of scenario).
func (s *PCASupervisor) Stop() { s.watchdog.Stop() }

func (s *PCASupervisor) raise(kind, format string, args ...any) {
	a := Alarm{At: s.k.Now(), Kind: kind, Msg: fmt.Sprintf(format, args...)}
	s.alarms = append(s.alarms, a)
	for _, fn := range s.onAlarm {
		fn(a)
	}
}

func (s *PCASupervisor) onHR(d core.Datum) {
	if d.Valid {
		s.lastHR = d.Value
	}
}

func (s *PCASupervisor) onSpO2(d core.Datum) {
	if !d.Valid {
		return // invalid estimates do not reset the data watchdog
	}
	s.lastValidData = s.k.Now()
	s.timeoutFired = false
	s.lastSpO2 = d.Value

	// Decision logic runs after the algorithm processing delay. This is
	// the supervisor's per-estimate hot path, so the hop is scheduled
	// closure-free with a pooled argument slot.
	var dc *decideCtx
	if last := len(s.decidePool) - 1; last >= 0 {
		dc = s.decidePool[last]
		s.decidePool = s.decidePool[:last]
	} else {
		dc = &decideCtx{s: s}
	}
	dc.spo2 = d.Value
	s.k.AfterFunc(s.cfg.AlgorithmDelay, runDecide, dc)
}

// decideCtx carries one delayed decision's input.
type decideCtx struct {
	s    *PCASupervisor
	spo2 float64
}

// runDecide executes a delayed decision; package-level so scheduling it
// never allocates a closure. The slot is returned to the pool before the
// decision runs, since decide may schedule further work.
func runDecide(arg any) {
	dc := arg.(*decideCtx)
	s, v := dc.s, dc.spo2
	s.decidePool = append(s.decidePool, dc)
	s.decide(v)
}

func (s *PCASupervisor) decide(spo2 float64) {
	switch s.state {
	case PCAInfusing:
		if spo2 < s.cfg.StopSpO2 {
			kind := "desat"
			if s.lastHR > 0 && (s.lastHR < s.cfg.HRLow || s.lastHR > s.cfg.HRHigh) {
				kind = "desat+hr"
			}
			s.raise(kind, "SpO2 %.1f below %.1f; stopping PCA pump", spo2, s.cfg.StopSpO2)
			s.commandStop("desaturation")
		}
	case PCASuspended:
		if !s.cfg.AutoResume {
			return
		}
		now := s.k.Now()
		if spo2 >= s.cfg.ResumeSpO2 {
			if s.recoveredAt == 0 {
				s.recoveredAt = now
			}
			if now-s.recoveredAt >= sim.Time(s.cfg.RecoveryHold) {
				s.commandResume()
			}
		} else {
			s.recoveredAt = 0
		}
	}
}

func (s *PCASupervisor) checkTimeout(now sim.Time) {
	if s.timeoutFired || now-s.lastValidData < sim.Time(s.cfg.DataTimeout) {
		return
	}
	s.timeoutFired = true
	s.DataTimeouts++
	if s.cfg.FailSafe {
		s.raise("data-timeout", "no valid oximeter data for %v; fail-safe stop", s.cfg.DataTimeout)
		if s.state == PCAInfusing {
			s.commandStop("data timeout")
		}
	} else {
		s.raise("data-timeout", "no valid oximeter data for %v; continuing (fail-operational)", s.cfg.DataTimeout)
	}
}

// commandStop sends the stop with retry-until-acked semantics: a lost stop
// command must not leave the pump running.
func (s *PCASupervisor) commandStop(reason string) {
	if s.state == PCASuspended {
		return
	}
	s.state = PCASuspended
	s.recoveredAt = 0
	s.StopsIssued++
	s.sendWithRetry("stop", 5, s.k.Now())
	_ = reason
}

func (s *PCASupervisor) commandResume() {
	if s.state == PCAInfusing {
		return
	}
	s.state = PCAInfusing
	s.recoveredAt = 0
	s.ResumesIssued++
	s.mgr.SendCommand(s.cfg.PumpID, "resume", nil, s.cfg.CommandTimeout, nil)
}

func (s *PCASupervisor) sendWithRetry(name string, retries int, issuedAt sim.Time) {
	s.mgr.SendCommand(s.cfg.PumpID, name, nil, s.cfg.CommandTimeout, func(ack core.CommandAck, err error) {
		if err == nil && ack.OK {
			s.StopLatencySum += s.k.Now() - issuedAt
			s.StopAcks++
			return
		}
		if retries <= 0 {
			s.raise("command-failed", "pump %s command failed permanently: ack=%+v err=%v", name, ack, err)
			return
		}
		s.CommandRetries++
		s.sendWithRetry(name, retries-1, issuedAt)
	})
}

// MeanStopLatency reports the average decision-to-acknowledgement latency
// of stop commands (Figure 1's "pump stop delay" as seen end-to-end).
func (s *PCASupervisor) MeanStopLatency() sim.Time {
	if s.StopAcks == 0 {
		return 0
	}
	return s.StopLatencySum / sim.Time(s.StopAcks)
}
