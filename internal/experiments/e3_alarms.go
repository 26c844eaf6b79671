package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/alarm"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/mednet"
	"repro/internal/physio"
	"repro/internal/sim"
)

// E3Options scale the smart-alarm ward study. A zero size picks its
// default; a negative one is an error.
type E3Options struct {
	Seed     int64
	Patients int      // 0 = 6
	Duration sim.Time // 0 = 6 h
}

// alarmEngineKind selects the ablation level (design decision D3).
type alarmEngineKind int

const (
	engineThreshold    alarmEngineKind = iota // baseline: per-signal thresholds
	engineMultivariate                        // + corroboration between signals
	engineFull                                // + context-event suppression
)

func (k alarmEngineKind) String() string {
	switch k {
	case engineThreshold:
		return "threshold-only"
	case engineMultivariate:
		return "multivariate"
	default:
		return "multivariate+context"
	}
}

// buildAlarmEngine wires an engine at the requested ablation level.
func buildAlarmEngine(kind alarmEngineKind) *alarm.Engine {
	e := alarm.NewEngine()
	e.MustAddRule(alarm.ThresholdRule{
		Name: "spo2-low", Signal: "spo2", Low: 90, High: 101,
		Sustain: 15 * sim.Second, Priority: alarm.Crisis, Refractory: 5 * sim.Minute,
	})
	e.MustAddRule(alarm.ThresholdRule{
		Name: "map-low", Signal: "map", Low: 62, High: 115,
		Sustain: 20 * sim.Second, Priority: alarm.Warning, Refractory: 5 * sim.Minute,
	})
	e.MustAddRule(alarm.ThresholdRule{
		Name: "hr-range", Signal: "hr", Low: 45, High: 130,
		Sustain: 20 * sim.Second, Priority: alarm.Warning, Refractory: 5 * sim.Minute,
	})
	if kind >= engineMultivariate {
		// A real desaturation from hypoventilation derails respiration:
		// EtCO2 climbs or respiratory rate collapses or the heart reacts.
		// A probe artifact leaves them all normal.
		if err := e.AddCorroboration(alarm.Corroboration{
			Rule: "spo2-low", MaxAge: 45 * sim.Second,
			Conditions: []alarm.Condition{
				{Signal: "etco2", Low: 30, High: 50},
				{Signal: "rr", Low: 9, High: 24},
				{Signal: "hr", Low: 50, High: 115},
			},
		}); err != nil {
			panic(err)
		}
	}
	if kind >= engineFull {
		if err := e.AddContextSuppression(alarm.ContextSuppression{
			Rule: "map-low", Event: "bed-moved", Window: 3 * sim.Minute,
		}); err != nil {
			panic(err)
		}
	}
	return e
}

// e3Patient runs one patient-day with one engine per kind on the bus and
// returns each engine's alarms with the desaturation truth they are
// scored against. The engines only observe: they draw no random number
// and schedule no event, so every kind sees the simulation it would see
// alone.
func e3Patient(opt E3Options, idx int, kinds []alarmEngineKind) ([][]alarm.Event, []alarm.Episode, error) {
	k := sim.NewKernel()
	rng := sim.NewRNG(opt.Seed + int64(idx)*1000)
	net := mednet.MustNew(k, rng.Fork("net"), mednet.DefaultLink())
	mgr := core.MustNewManager(k, net, core.DefaultManagerConfig())

	spec := physio.DefaultPopulation()
	patient := spec.Sample(idx, rng.Fork("population"))

	ox := device.MustNewOximeter(k, net, "ox1", patient, rng.Fork("ox"), core.ConnectConfig{})
	bed := device.MustNewBed(k, net, "bed1", core.ConnectConfig{})
	device.MustNewMonitor(k, net, "mon1", patient, bed, 2*time.Second, rng.Fork("mon"), core.ConnectConfig{})
	device.MustNewCapnograph(k, net, "cap1", patient, 2*time.Second, rng.Fork("cap"), core.ConnectConfig{})

	ward := device.NewWard(k, patient, sim.Second)
	tr := sim.NewTrace()
	ward.Trace = tr

	engs := make([]*alarm.Engine, len(kinds))
	for i, kind := range kinds {
		engs[i] = buildAlarmEngine(kind)
	}
	for _, topic := range []string{"ox1/spo2", "mon1/map", "mon1/hr", "mon1/rr", "cap1/etco2"} {
		_, signal, _ := strings.Cut(topic, "/")
		mgr.Subscribe(topic, func(_ string, dd core.Datum) {
			for _, eng := range engs {
				eng.Observe(k.Now(), signal, dd.Value, dd.Valid)
			}
		})
	}
	mgr.Subscribe("bed1/height", func(string, core.Datum) {
		for _, eng := range engs {
			eng.ObserveContext(k.Now(), "bed-moved")
		}
	})

	// Disturbance schedule, deterministic per patient:
	//  - probe-misposition bias episodes (valid but false low SpO2);
	//  - bed moves (hydrostatic MAP artifact);
	//  - for a third of patients, a genuine opioid-driven deterioration.
	dur := opt.Duration
	genuine := idx%3 == 0
	for at := 40 * sim.Minute; at < dur; at += 75 * sim.Minute {
		at := at
		k.At(at, func() { ox.InjectBias(4*sim.Minute, rng.Uniform(12, 20)) })
	}
	for at := 25 * sim.Minute; at < dur; at += 50 * sim.Minute {
		at := at
		// Raise for care, lower a couple of minutes later: each raise
		// drops the MAP transducer reading ~60 mmHg below the limit.
		k.At(at, func() { _ = bed.SetHeight(0.8) })
		k.At(at+2*sim.Minute, func() { _ = bed.SetHeight(0) })
	}
	if genuine {
		k.At(dur/3, func() { patient.Bolus(22) }) // true hypoventilation episode
	}

	if err := k.Run(dur); err != nil {
		return nil, nil, fmt.Errorf("E3 patient %d: %w", idx, err)
	}

	alarms := make([][]alarm.Event, len(engs))
	for i, eng := range engs {
		alarms[i] = eng.Events()
	}
	return alarms, alarm.EpisodesFromTrace(tr, "true/spo2", 90, 30*sim.Second), nil
}

// E3SmartAlarms compares the three alarm-engine ablations across a small
// ward of simulated patients.
func E3SmartAlarms(opt E3Options) (Table, error) {
	switch {
	case opt.Patients < 0:
		return Table{}, fmt.Errorf("negative Patients %d", opt.Patients)
	case opt.Duration < 0:
		return Table{}, fmt.Errorf("negative Duration %v", opt.Duration.Duration())
	}
	if opt.Patients == 0 {
		opt.Patients = 6
	}
	if opt.Duration == 0 {
		opt.Duration = 6 * sim.Hour
	}
	t := Table{
		ID: "E3",
		Title: fmt.Sprintf("Smart alarms: %d patients x %v, probe artifacts + bed moves + genuine deteriorations",
			opt.Patients, opt.Duration.Duration()),
		Header: []string{"engine", "alarms", "true+", "false+", "missed",
			"sensitivity", "precision", "false/patient-day"},
	}
	kinds := []alarmEngineKind{engineThreshold, engineMultivariate, engineFull}
	aggs := make([]alarm.Metrics, len(kinds))
	for i := 0; i < opt.Patients; i++ {
		alarms, truth, err := e3Patient(opt, i, kinds)
		if err != nil {
			return t, err
		}
		// Only spo2-low alarms are scored against the desaturation truth;
		// map/hr alarms with no corresponding derangement count as false.
		for j, events := range alarms {
			m := alarm.Score(events, truth, 2*sim.Minute, opt.Duration)
			aggs[j].TotalAlarms += m.TotalAlarms
			aggs[j].TruePositives += m.TruePositives
			aggs[j].FalsePositives += m.FalsePositives
			aggs[j].MissedEpisodes += m.MissedEpisodes
			aggs[j].TotalEpisodes += m.TotalEpisodes
		}
	}
	for j, agg := range aggs {
		sens := 1.0
		if agg.TotalEpisodes > 0 {
			sens = float64(agg.TotalEpisodes-agg.MissedEpisodes) / float64(agg.TotalEpisodes)
		}
		prec := 1.0
		if agg.TotalAlarms > 0 {
			prec = float64(agg.TruePositives) / float64(agg.TotalAlarms)
		}
		perDay := float64(agg.FalsePositives) / (float64(opt.Patients) * opt.Duration.Seconds() / 86400)
		t.AddRow(kinds[j].String(), d(agg.TotalAlarms), d(agg.TruePositives),
			d(agg.FalsePositives), fmt.Sprintf("%d/%d", agg.MissedEpisodes, agg.TotalEpisodes),
			f("%.2f", sens), f("%.2f", prec), f("%.1f", perDay))
	}
	t.AddNote("expected shape: each layer removes a class of false alarms (probe artifacts, then bed-move " +
		"MAP artifacts) while genuine deteriorations stay detected")
	return t, nil
}
