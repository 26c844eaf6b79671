package experiments

import (
	"fmt"

	"repro/internal/alarm"
	"repro/internal/ehr"
	"repro/internal/fleet"
	"repro/internal/icescope"
	"repro/internal/sim"
)

// E7Options scale the adaptive-threshold study. A zero size picks its
// default; a negative one is an error.
type E7Options struct {
	Seed     int64
	Athletes int      // 0 = 10
	Average  int      // 0 = 10
	Duration sim.Time // 0 = 12 h
	Workers  int      // fleet worker pool width; 0 = serial

	// Trace/Obs are observability passthroughs (see Options); never part
	// of result identity.
	Trace icescope.Span
	Obs   *fleet.Obs
}

// e7Series synthesizes a heart-rate series for one patient: baseline plus
// wander, with one genuine bradycardia episode (drop to ~28 bpm for 5 min)
// injected for a third of patients.
func e7Series(rng *sim.RNG, baseline float64, dur sim.Time, genuineAt sim.Time) ([]sim.Sample, []alarm.Episode) {
	var out []sim.Sample
	var truth []alarm.Episode
	wander := 0.0
	for at := sim.Time(0); at < dur; at += 10 * sim.Second {
		wander += (-wander*0.05 + rng.Normal(0, 0.6))
		v := baseline + wander + rng.Normal(0, 1.2)
		if genuineAt > 0 && at >= genuineAt && at < genuineAt+5*sim.Minute {
			v = 28 + rng.Normal(0, 1)
		}
		out = append(out, sim.Sample{T: at, V: v})
	}
	if genuineAt > 0 {
		truth = append(truth, alarm.Episode{Start: genuineAt, End: genuineAt + 5*sim.Minute})
	}
	return out, truth
}

// e7Patient monitors one patient for the configured duration and scores
// the alarm stream against ground truth — the body of one fleet cell.
// prng is the cell's own stream, derived by the fleet runner as a pure
// function of (seed, spec name, cell index), so the ensemble scores
// identically however many workers run it, and identically for the
// population and personalized passes (the two passes share a spec name
// and seed, keeping the comparison paired).
func e7Patient(opt E7Options, personalized bool, i int, prng *sim.RNG) alarm.Metrics {
	isAthlete := i < opt.Athletes
	baseline := prng.Uniform(62, 80)
	rec := ehr.NewRecord(fmt.Sprintf("p%d", i))
	if isAthlete {
		baseline = prng.Uniform(41, 48)
		rec.ExerciseHoursPerWeek = prng.Uniform(7, 14)
	} else {
		rec.ExerciseHoursPerWeek = prng.Uniform(0, 3)
	}
	// History: two weeks of daily resting heart rates on the chart.
	for j := 0; j < 14; j++ {
		rec.AddObservation(ehr.Observation{Signal: "hr", Value: baseline + prng.Normal(0, 2)})
	}
	th := ehr.PopulationThresholds()
	if personalized {
		th = ehr.Personalize(rec, th)
	}

	genuineAt := sim.Time(0)
	if i%3 == 0 {
		genuineAt = opt.Duration / 2
	}
	series, truth := e7Series(prng, baseline, opt.Duration, genuineAt)

	eng := alarm.NewEngine()
	eng.MustAddRule(alarm.ThresholdRule{
		Name: "hr-low", Signal: "hr", Low: th.HRLow, High: th.HRHigh,
		Sustain: 30 * sim.Second, Priority: alarm.Crisis, Refractory: 10 * sim.Minute,
	})
	for _, s := range series {
		eng.Observe(s.T, "hr", s.V, true)
	}
	return alarm.Score(eng.Events(), truth, 2*sim.Minute, opt.Duration)
}

func e7Score(opt E7Options, personalized bool) (alarm.Metrics, error) {
	spec := fleet.Spec{
		Name:  "e7-threshold-ward",
		Seed:  opt.Seed,
		Cells: opt.Athletes + opt.Average,
		Run: func(c fleet.Cell) (fleet.Metrics, error) {
			m := e7Patient(opt, personalized, c.Index, c.RNG())
			return fleet.Metrics{
				"alarms":    float64(m.TotalAlarms),
				"true_pos":  float64(m.TruePositives),
				"false_pos": float64(m.FalsePositives),
				"missed":    float64(m.MissedEpisodes),
				"episodes":  float64(m.TotalEpisodes),
			}, nil
		},
	}
	results, err := fleet.Runner{Workers: opt.Workers, Span: opt.Trace, Obs: opt.Obs}.Run(spec)
	if err != nil {
		return alarm.Metrics{}, err
	}
	sum := fleet.Reduce(results)
	return alarm.Metrics{
		TotalAlarms:    int(sum.Sum("alarms")),
		TruePositives:  int(sum.Sum("true_pos")),
		FalsePositives: int(sum.Sum("false_pos")),
		MissedEpisodes: int(sum.Sum("missed")),
		TotalEpisodes:  int(sum.Sum("episodes")),
	}, nil
}

// E7AdaptiveThresholds compares population alarm limits against EHR-
// personalized limits on a ward mixing athletes (resting HR ~45) with
// average patients — the paper's own example of challenge (i).
func E7AdaptiveThresholds(opt E7Options) (Table, error) {
	switch {
	case opt.Athletes < 0:
		return Table{}, fmt.Errorf("negative Athletes %d", opt.Athletes)
	case opt.Average < 0:
		return Table{}, fmt.Errorf("negative Average %d", opt.Average)
	case opt.Duration < 0:
		return Table{}, fmt.Errorf("negative Duration %v", opt.Duration.Duration())
	}
	if opt.Athletes == 0 && opt.Average == 0 {
		opt.Athletes, opt.Average = 10, 10
	}
	if opt.Duration == 0 {
		opt.Duration = 12 * sim.Hour
	}
	t := Table{
		ID: "E7",
		Title: fmt.Sprintf("Adaptive thresholds: %d athletes + %d average patients, %v of HR monitoring",
			opt.Athletes, opt.Average, opt.Duration.Duration()),
		Header: []string{"thresholds", "alarms", "true+", "false+", "missed", "false/patient-day"},
	}
	for _, personalized := range []bool{false, true} {
		name := "population (one-size-fits-all)"
		if personalized {
			name = "EHR-personalized"
		}
		m, err := e7Score(opt, personalized)
		if err != nil {
			return t, err
		}
		perDay := float64(m.FalsePositives) /
			(float64(opt.Athletes+opt.Average) * opt.Duration.Seconds() / 86400)
		t.AddRow(name, d(m.TotalAlarms), d(m.TruePositives), d(m.FalsePositives),
			fmt.Sprintf("%d/%d", m.MissedEpisodes, m.TotalEpisodes), f("%.1f", perDay))
	}
	t.AddNote("expected shape: population thresholds page continuously on every athlete (HR < 50); " +
		"personalization silences them while true bradycardia (HR ~28) still alarms for both")
	return t, nil
}
