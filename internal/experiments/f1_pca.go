package experiments

import (
	"fmt"
	"time"

	"repro/internal/closedloop"
	"repro/internal/fleet"
	"repro/internal/sim"
)

// F1Options scale the Figure 1 reproduction.
type F1Options struct {
	Seed     int64
	Duration sim.Time // 0 = 2 h
	Trials   int      // independent patient sessions per configuration; 0 = 1

	// Fleet runs the trial ensembles (see Options.Fleet); tables are
	// byte-identical however it is set. The zero value runs serially.
	Fleet fleet.Runner
}

// F1PCAControlLoop reproduces Figure 1 of the paper: the closed-loop PCA
// system. It runs the adverse-event scenario (misprogrammed pump +
// PCA-by-proxy) with and without the network supervisor and reports the
// patient-safety outcome of each, plus the control-loop delay budget the
// figure annotates (signal processing time, algorithm processing time,
// pump stop delay).
//
// Both configurations run as fleet ensembles: Trials independent patient
// rooms per configuration, executed on opt.Fleet. Trial 0
// replays the base seed, so the default single-trial table is identical
// to the historical serial run; with Trials > 1 each row reports ensemble
// means and the distress column becomes a count.
func F1PCAControlLoop(opt F1Options) (Table, error) {
	trials := opt.Trials
	if trials <= 0 {
		trials = 1
	}
	title := "PCA control loop (paper Fig. 1): misprogrammed pump + PCA-by-proxy, 2 h session"
	if trials > 1 {
		title = fmt.Sprintf("%s (%d trials/config, ensemble means)", title, trials)
	}
	t := Table{
		ID:    "F1",
		Title: title,
		Header: []string{"configuration", "min SpO2 (%)", "s<90", "s<85", "distress",
			"drug (mg)", "boluses", "denied", "stops", "alarms"},
	}

	params := fleet.Params{Seed: opt.Seed, Cells: trials, Duration: opt.Duration}
	specs := make([]fleet.Spec, 0, 2)
	for _, name := range []string{fleet.ScenarioPCAUnsupervised, fleet.ScenarioPCASupervised} {
		spec, err := fleet.Build(name, params)
		if err != nil {
			return t, fmt.Errorf("F1: %w", err)
		}
		specs = append(specs, spec)
	}
	groups, err := opt.Fleet.RunAll(specs)
	if err != nil {
		return t, fmt.Errorf("F1: %w", err)
	}

	var supSum *fleet.Summary // supervised-group summary, reused by the notes
	rowNames := []string{"unsupervised (stand-alone devices)", "ICE supervisor (Fig. 1 loop)"}
	for i, name := range rowNames {
		if trials == 1 {
			m := groups[i][0].Metrics
			t.AddRow(name, f("%.1f", m[closedloop.MetricMinSpO2]),
				f("%.0f", m[closedloop.MetricSecondsBelow90]),
				f("%.0f", m[closedloop.MetricSecondsBelow85]),
				boolCell(m[closedloop.MetricDistressed] != 0),
				f("%.1f", m[closedloop.MetricDrugMg]),
				u(uint64(m[closedloop.MetricBoluses])),
				u(uint64(m[closedloop.MetricBolusesDenied])),
				u(uint64(m[closedloop.MetricPumpStops])),
				d(int(m[closedloop.MetricAlarms])))
			continue
		}
		sum := fleet.Reduce(groups[i])
		if i == 1 {
			supSum = sum
		}
		t.AddRow(name, f("%.1f", sum.Mean(closedloop.MetricMinSpO2)),
			f("%.0f", sum.Mean(closedloop.MetricSecondsBelow90)),
			f("%.0f", sum.Mean(closedloop.MetricSecondsBelow85)),
			fmt.Sprintf("%d/%d", sum.CountAbove(closedloop.MetricDistressed, 0.5), sum.Cells),
			f("%.1f", sum.Mean(closedloop.MetricDrugMg)),
			f("%.1f", sum.Mean(closedloop.MetricBoluses)),
			f("%.1f", sum.Mean(closedloop.MetricBolusesDenied)),
			f("%.1f", sum.Mean(closedloop.MetricPumpStops)),
			f("%.1f", sum.Mean(closedloop.MetricAlarms)))
	}

	// The delay budget Figure 1 annotates, measured on the base-seed
	// supervised session (trial 0 replays the legacy serial run exactly).
	supervised := groups[1][0].Metrics
	t.AddNote("loop delay budget: signal processing = 4 s analysis window; "+
		"algorithm processing = 100 ms; network+ack+pump stop delay (measured) = %v",
		time.Duration(int64(supervised[closedloop.MetricStopLatencyNs])))
	t.AddNote("supervisor data timeouts: %d; expected shape: supervision eliminates the distress episode",
		uint64(supervised[closedloop.MetricDataTimeouts]))
	if trials > 1 {
		t.AddNote("supervised min SpO2 across %d trials: mean %.1f, p5 %.1f, worst %.1f",
			supSum.Cells, supSum.Mean(closedloop.MetricMinSpO2),
			supSum.Percentile(closedloop.MetricMinSpO2, 5), supSum.Min(closedloop.MetricMinSpO2))
	}
	return t, nil
}

// F1Trace renders the ground-truth time series of the supervised run —
// the waveform view of Figure 1 — sampled every step.
func F1Trace(opt F1Options, step sim.Time) (string, error) {
	if opt.Duration == 0 {
		opt.Duration = 2 * sim.Hour
	}
	if step == 0 {
		step = 5 * sim.Minute
	}
	cfg := closedloop.DefaultPCAScenario(opt.Seed)
	cfg.Duration = opt.Duration
	_, sc, err := closedloop.RunPCAScenario(cfg)
	if err != nil {
		return "", err
	}
	names := []string{"true/spo2", "true/hr", "true/rr", "true/drug-plasma", "true/infusion-rate"}
	out := sc.Trace.Render(names, step, opt.Duration)
	for _, ev := range sc.Trace.Events("alarm") {
		out += fmt.Sprintf("alarm @ %-10v %s\n", ev.T.Duration(), ev.Msg)
	}
	return out, nil
}
