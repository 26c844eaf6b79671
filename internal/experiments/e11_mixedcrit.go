package experiments

import (
	"fmt"
	"time"

	"repro/internal/alarm"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/mednet"
	"repro/internal/physio"
	"repro/internal/sim"
)

// E11Options scale the mixed-criticality context study. A zero size
// picks its default; a negative one is an error.
type E11Options struct {
	Seed     int64
	Duration sim.Time // 0 = 8 h
	BedMoves int      // 0 = 12
}

func e11Run(opt E11Options, withContext bool) (alarm.Metrics, error) {
	k := sim.NewKernel()
	rng := sim.NewRNG(opt.Seed)
	net := mednet.MustNew(k, rng.Fork("net"), mednet.DefaultLink())
	mgr := core.MustNewManager(k, net, core.DefaultManagerConfig())
	patient := physio.DefaultPatient(rng.Fork("patient"))

	bed := device.MustNewBed(k, net, "bed1", core.ConnectConfig{})
	device.MustNewMonitor(k, net, "mon1", patient, bed, 2*time.Second, rng.Fork("mon"), core.ConnectConfig{})
	ward := device.NewWard(k, patient, sim.Second)
	tr := sim.NewTrace()
	ward.Trace = tr

	eng := alarm.NewEngine()
	eng.MustAddRule(alarm.ThresholdRule{
		Name: "map-low", Signal: "map", Low: 62, High: 115,
		Sustain: 20 * sim.Second, Priority: alarm.Warning, Refractory: 5 * sim.Minute,
	})
	if withContext {
		if err := eng.AddContextSuppression(alarm.ContextSuppression{
			Rule: "map-low", Event: "bed-moved", Window: 2 * sim.Minute,
		}); err != nil {
			return alarm.Metrics{}, err
		}
		mgr.Subscribe("bed1/height", func(string, core.Datum) {
			eng.ObserveContext(k.Now(), "bed-moved")
		})
	}
	mgr.Subscribe("mon1/map", func(_ string, dd core.Datum) {
		eng.Observe(k.Now(), "map", dd.Value, dd.Valid)
		tr.Record("obs/map", k.Now(), dd.Value)
	})

	// Bed care routine: raise for a while, then lower, BedMoves times.
	// A 0.6 m raise shifts the transducer reading ~45 mmHg down — well
	// below the alarm limit — although the patient is fine.
	spacing := opt.Duration / sim.Time(opt.BedMoves+1)
	for i := 0; i < opt.BedMoves; i++ {
		at := spacing * sim.Time(i+1)
		k.At(at, func() { _ = bed.SetHeight(0.6) })
		k.At(at+90*sim.Second, func() { _ = bed.SetHeight(0) })
	}
	// One genuine hypotension episode (hemorrhage) mid-run, scheduled
	// away from any bed move.
	trueStart := opt.Duration*2/3 + spacing/2
	k.At(trueStart, func() { patient.InduceHemodynamicShift(-45) })
	k.At(trueStart+10*sim.Minute, func() { patient.InduceHemodynamicShift(0) })

	if err := k.Run(opt.Duration); err != nil {
		return alarm.Metrics{}, err
	}
	truth := []alarm.Episode{{Start: trueStart, End: trueStart + 12*sim.Minute}}
	return alarm.Score(eng.Events(), truth, 3*sim.Minute, opt.Duration), nil
}

// E11MixedCriticality reproduces the paper's Class I bed vs Class III
// monitor interference scenario: bed raises corrupt the MAP reading; the
// context event channel lets the monitoring system suppress exactly those
// artifacts while still catching a genuine hemorrhage.
func E11MixedCriticality(opt E11Options) (Table, error) {
	switch {
	case opt.BedMoves < 0:
		return Table{}, fmt.Errorf("negative BedMoves %d", opt.BedMoves)
	case opt.Duration < 0:
		return Table{}, fmt.Errorf("negative Duration %v", opt.Duration.Duration())
	}
	if opt.Duration == 0 {
		opt.Duration = 8 * sim.Hour
	}
	if opt.BedMoves == 0 {
		opt.BedMoves = 12
	}
	t := Table{
		ID: "E11",
		Title: fmt.Sprintf("Mixed criticality: %d bed raises + 1 true hypotension over %v",
			opt.BedMoves, opt.Duration.Duration()),
		Header: []string{"monitoring system", "alarms", "true+", "false+", "missed"},
	}
	for _, withCtx := range []bool{false, true} {
		name := "MAP threshold only"
		if withCtx {
			name = "with bed context events"
		}
		m, err := e11Run(opt, withCtx)
		if err != nil {
			return t, fmt.Errorf("E11 ctx=%v: %w", withCtx, err)
		}
		t.AddRow(name, d(m.TotalAlarms), d(m.TruePositives), d(m.FalsePositives),
			fmt.Sprintf("%d/%d", m.MissedEpisodes, m.TotalEpisodes))
	}
	t.AddNote("expected shape: without context every bed raise pages the nurse; with the Class I bed's " +
		"height events on the bus, only the genuine hypotension alarms")
	return t, nil
}
