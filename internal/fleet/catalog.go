package fleet

import (
	"math"
	"time"

	"repro/internal/closedloop"
	"repro/internal/mednet"
	"repro/internal/sim"
)

// The built-in catalog: patient-room scenarios assembled from the
// closedloop factories. Experiments and cmd/icerun build their fleets
// from these names instead of hand-rolling loops.
func init() {
	Register(ScenarioPCASupervised, pcaFactory(true))
	Register(ScenarioPCAUnsupervised, pcaFactory(false))
	Register(ScenarioPCACommFault, commFaultFactory)
	Register(ScenarioXRayVentSync, xraySyncFactory)
	Register(ScenarioTeleICUProbe, teleProbeFactory)
}

// Built-in scenario names.
const (
	// ScenarioPCASupervised is the paper's Figure 1 adverse-event rig
	// (misprogrammed pump + PCA-by-proxy) with the ICE supervisor closing
	// the loop. One cell = one 2-hour patient session.
	ScenarioPCASupervised = "pca-supervised"
	// ScenarioPCAUnsupervised is the same rig with stand-alone devices.
	ScenarioPCAUnsupervised = "pca-unsupervised"
	// ScenarioPCACommFault is the supervised rig under packet loss
	// (knob "loss") plus a 35-minute oximeter partition, with knob
	// "failsafe" (default 1) selecting design D1 vs the fail-operational
	// ablation. Every cell pins the base seed, so the knobs are the only
	// thing that varies across a sweep.
	ScenarioPCACommFault = "pca-commfault"
	// ScenarioXRayVentSync is the Section II.b imaging rig: one ventilated
	// patient, an X-ray, and the synchronizer app. Knob "protocol" picks
	// the coordination design (0 manual, 1 pause-restart, 2 state-sync;
	// default 2), "delay_ms" (default 10) and "loss" (default 0.02) set the
	// network point, and "requests" (default 24) sizes the session (a
	// requested duration converts to one image request per 20 s). One
	// cell = one imaging session; trials beyond cell 0 draw substreams.
	ScenarioXRayVentSync = "xray-ventsync"
	// ScenarioTeleICUProbe models a tele-ICU check: a short supervised
	// PCA session (default 2 sim-minutes) whose wall time is dominated by
	// the round trips to the remote bedside — knob "rtt_ms" (default 0 =
	// no pacing) adds a deterministic per-cell wall-clock wait, spread by
	// knob "jitter" (fraction of rtt_ms, default 0.5, derived from the
	// cell seed so it is identical at any worker or node count). The wait
	// never touches metrics: tables are byte-identical with pacing on or
	// off. It exists for two real workload shapes: latency-bound fleets
	// (cells gated on external devices, not CPU), and mesh scaling
	// benchmarks on a single host, where in-process "nodes" share the
	// machine's cores and only a latency-bound cell can measure the
	// assignment pipeline rather than the core count.
	ScenarioTeleICUProbe = "tele-icu-probe"
)

// scenarioKnobs declares the knob names each built-in scenario consumes.
// The serving layer validates submissions against this, so a mistyped
// knob is a 400 instead of a silently-nominal simulation cached under
// the mistyped key.
var scenarioKnobs = map[string][]string{
	ScenarioPCASupervised:   {},
	ScenarioPCAUnsupervised: {},
	ScenarioPCACommFault:    {"loss", "failsafe"},
	ScenarioXRayVentSync:    {"protocol", "delay_ms", "loss", "requests"},
	ScenarioTeleICUProbe:    {"rtt_ms", "jitter"},
}

// KnownKnobs returns the knob names the named scenario consumes and
// whether the scenario declares them at all. Scenarios registered
// outside the built-in catalog make no declaration (ok = false); callers
// should skip validation for those.
func KnownKnobs(name string) (knobs []string, ok bool) {
	knobs, ok = scenarioKnobs[name]
	return knobs, ok
}

func pcaConfig(seed int64, d sim.Time) closedloop.PCAScenarioConfig {
	cfg := closedloop.DefaultPCAScenario(seed)
	if d > 0 {
		cfg.Duration = d
	}
	return cfg
}

func pcaFactory(supervised bool) Factory {
	name := ScenarioPCAUnsupervised
	if supervised {
		name = ScenarioPCASupervised
	}
	return func(p Params) Spec {
		return Spec{
			Name:   name,
			Seed:   p.Seed,
			Cells:  p.Cells,
			SeedFn: EnsembleSeeds(p.Seed, name+"/trial"),
			Run: func(c Cell) (Metrics, error) {
				cfg := pcaConfig(c.Seed, p.Duration)
				cfg.SupervisorEnabled = supervised
				cfg.Trace = c.Trace()
				return closedloop.RunPCACell(cfg)
			},
		}
	}
}

func xraySyncFactory(p Params) Spec {
	return Spec{
		Name:   ScenarioXRayVentSync,
		Seed:   p.Seed,
		Cells:  p.Cells,
		SeedFn: EnsembleSeeds(p.Seed, ScenarioXRayVentSync+"/trial"),
		Run: func(c Cell) (Metrics, error) {
			proto := closedloop.SyncProtocol(int(p.Knob("protocol", float64(closedloop.ProtocolStateSync))))
			cfg := closedloop.DefaultXRaySyncScenario(c.Seed, proto)
			// The session's length is its request schedule: a requested
			// duration converts to one image request per spacing interval,
			// so Duration is honored rather than silently dropped.
			if p.Duration > 0 {
				if n := int(p.Duration / cfg.Spacing); n > 0 {
					cfg.Requests = n
				} else {
					cfg.Requests = 1
				}
			}
			if n := int(p.Knob("requests", 0)); n > 0 {
				cfg.Requests = n
			}
			delay := time.Duration(p.Knob("delay_ms", 10) * float64(time.Millisecond))
			cfg.Link = mednet.LinkParams{
				Latency:  delay,
				Jitter:   delay / 4,
				LossProb: p.Knob("loss", 0.02),
			}
			cfg.Trace = c.Trace()
			return closedloop.RunXRaySyncCell(cfg)
		},
	}
}

// probeWait derives one cell's remote round-trip wall wait: rtt_ms
// scaled by a seed-derived factor in [1-jitter, 1+jitter]. Pure function
// of (seed, knobs), so pacing is identical wherever the cell runs.
func probeWait(seed int64, p Params) time.Duration {
	rtt := p.Knob("rtt_ms", 0)
	if rtt <= 0 {
		return 0
	}
	jit := p.Knob("jitter", 0.5)
	jit = math.Min(math.Max(jit, 0), 1)
	u := float64(uint64(sim.SubSeed(seed, "tele-icu-probe/rtt", 0))>>11) / float64(1<<53)
	return time.Duration(rtt * (1 + jit*(2*u-1)) * float64(time.Millisecond))
}

func teleProbeFactory(p Params) Spec {
	if p.Duration <= 0 {
		p.Duration = 2 * sim.Minute // short session: the RTT dominates, by design
	}
	return Spec{
		Name:   ScenarioTeleICUProbe,
		Seed:   p.Seed,
		Cells:  p.Cells,
		SeedFn: EnsembleSeeds(p.Seed, ScenarioTeleICUProbe+"/trial"),
		Run: func(c Cell) (Metrics, error) {
			cfg := pcaConfig(c.Seed, p.Duration)
			cfg.SupervisorEnabled = true
			cfg.Trace = c.Trace()
			m, err := closedloop.RunPCACell(cfg)
			// The wait follows the metrics, so pacing never touches them.
			if d := probeWait(c.Seed, p); d > 0 {
				time.Sleep(d)
			}
			return m, err
		},
	}
}

func commFaultFactory(p Params) Spec {
	return Spec{
		Name:  ScenarioPCACommFault,
		Seed:  p.Seed,
		Cells: p.Cells,
		// A sweep point, not a trial ensemble: every cell replays the base
		// seed so sweeps stay paired across knob settings.
		SeedFn: func(int) int64 { return p.Seed },
		Run: func(c Cell) (Metrics, error) {
			cfg := pcaConfig(c.Seed, p.Duration)
			cfg.Link = mednet.LinkParams{
				Latency:  5 * time.Millisecond,
				Jitter:   2 * time.Millisecond,
				LossProb: p.Knob("loss", 0),
			}
			cfg.Supervisor.FailSafe = p.Knob("failsafe", 1) != 0
			cfg.OximeterOutageStart = cfg.Duration / 4
			cfg.OximeterOutageEnd = cfg.Duration/4 + 35*sim.Minute
			cfg.Trace = c.Trace()
			return closedloop.RunPCACell(cfg)
		},
	}
}
