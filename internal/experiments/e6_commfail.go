package experiments

import (
	"fmt"

	"repro/internal/closedloop"
	"repro/internal/fleet"
	"repro/internal/sim"
)

// E6Options scale the communication-failure sweep.
type E6Options struct {
	Seed     int64
	Duration sim.Time  // 0 = 2 h
	Losses   []float64 // packet-loss probabilities to sweep

	// Fleet runs the sweep's cells (see Options.Fleet); tables are
	// byte-identical however it is set. The zero value runs serially.
	Fleet fleet.Runner
}

// DefaultE6 returns the sweep in DESIGN.md.
func DefaultE6() E6Options {
	return E6Options{
		Seed:     7,
		Duration: 2 * sim.Hour,
		Losses:   []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5},
	}
}

// E6CommFailure sweeps packet loss over the Figure 1 loop and contrasts
// the fail-safe supervisor (design decision D1) with a fail-operational
// ablation. On top of random loss, every run suffers a 35-minute total
// outage of the oximeter->supervisor path mid-session (a network
// partition) — the communication failure the paper says the supervisor
// must tolerate. What does each design cost the patient?
//
// Every sweep point is one fleet cell of the registered "pca-commfault"
// scenario, all pinned to the base seed so the (mode, loss) axis is the
// only thing that varies; the cells run concurrently on opt.Fleet and
// reduce back into rows in sweep order.
func E6CommFailure(opt E6Options) (Table, error) {
	if len(opt.Losses) == 0 {
		opt.Losses = DefaultE6().Losses
	}
	if opt.Duration == 0 {
		opt.Duration = 2 * sim.Hour
	}
	t := Table{
		ID:    "E6",
		Title: "PCA loop under packet loss + a 35-min oximeter outage: fail-safe vs fail-operational",
		Header: []string{"mode", "loss", "min SpO2", "s<85", "distress",
			"stops", "timeouts", "drug (mg)"},
	}

	type combo struct {
		mode     string
		failSafe bool
		loss     float64
	}
	var combos []combo
	for _, failSafe := range []bool{true, false} {
		mode := "fail-safe"
		if !failSafe {
			mode = "fail-operational"
		}
		for _, loss := range opt.Losses {
			combos = append(combos, combo{mode: mode, failSafe: failSafe, loss: loss})
		}
	}

	specs := make([]fleet.Spec, 0, len(combos))
	for _, c := range combos {
		failsafe := 0.0
		if c.failSafe {
			failsafe = 1
		}
		spec, err := fleet.Build(fleet.ScenarioPCACommFault, fleet.Params{
			Seed:     opt.Seed,
			Cells:    1,
			Duration: opt.Duration,
			Knobs:    map[string]float64{"loss": c.loss, "failsafe": failsafe},
		})
		if err != nil {
			return t, fmt.Errorf("E6: %w", err)
		}
		// Name the spec after the sweep point so a failing cell's error
		// identifies its (mode, loss) configuration. The seed is pinned by
		// the factory, so the name never feeds seed derivation here.
		spec.Name = fmt.Sprintf("E6 %s loss %.2f", c.mode, c.loss)
		specs = append(specs, spec)
	}
	groups, err := opt.Fleet.RunAll(specs)
	if err != nil {
		return t, fmt.Errorf("E6: %w", err)
	}

	for i, c := range combos {
		m := groups[i][0].Metrics
		t.AddRow(c.mode, f("%.0f%%", c.loss*100), f("%.1f", m[closedloop.MetricMinSpO2]),
			f("%.0f", m[closedloop.MetricSecondsBelow85]),
			boolCell(m[closedloop.MetricDistressed] != 0),
			u(uint64(m[closedloop.MetricPumpStops])),
			u(uint64(m[closedloop.MetricDataTimeouts])),
			f("%.1f", m[closedloop.MetricDrugMg]))
	}
	t.AddNote("expected shape: fail-safe holds the distress line at every loss rate by trading availability " +
		"(stops during the blind window); fail-operational keeps infusing blind through the outage and " +
		"harms the patient")
	return t, nil
}
