package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// Each experiment runs end-to-end at reduced scale and must produce a
// table whose shape matches the claims in DESIGN.md. These are the
// integration tests of the whole repository: every substrate participates.

func TestF1SupervisorPreventsDistress(t *testing.T) {
	tab, err := F1PCAControlLoop(F1Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	unsup, sup := tab.Rows[0], tab.Rows[1]
	if unsup[4] != "yes" {
		t.Fatalf("unsupervised run not distressed: %v", unsup)
	}
	if sup[4] != "no" {
		t.Fatalf("supervised run distressed: %v", sup)
	}
	if sup[8] == "0" {
		t.Fatalf("no stops issued: %v", sup)
	}
	if !strings.Contains(tab.String(), "F1") {
		t.Fatal("table rendering broken")
	}
}

func TestF1TraceRenders(t *testing.T) {
	out, err := F1Trace(F1Options{Seed: 42, Duration: 30 * sim.Minute}, 5*sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "true/spo2") {
		t.Fatalf("trace missing series header:\n%s", out)
	}
}

func TestE2ProtocolShape(t *testing.T) {
	opt := E2Options{
		Seed: 1, Requests: 10,
		Delays:   []time.Duration{2 * time.Millisecond, time.Second},
		LossProb: 0,
	}
	tab, err := E2XrayVentSync(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Rows: 3 protocols x 2 delays.
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	cell := func(proto, delay string, col int) string {
		for _, r := range tab.Rows {
			if r[0] == proto && r[1] == delay {
				return r[col]
			}
		}
		t.Fatalf("row %s/%s missing", proto, delay)
		return ""
	}
	// Manual blurs at fast network; state-sync does not.
	if cell("manual", "2ms", 3) == "0" {
		t.Fatalf("manual protocol never blurred:\n%s", tab)
	}
	if cell("state-sync", "2ms", 3) != "0" {
		t.Fatalf("state-sync blurred at 2ms:\n%s", tab)
	}
	if cell("state-sync", "2ms", 2) == "0" {
		t.Fatalf("state-sync took no images at 2ms:\n%s", tab)
	}
	// State-sync degrades (defers or blurs) past its 50 ms design bound.
	if cell("state-sync", "1s", 3) == "0" && cell("state-sync", "1s", 4) == "0" {
		t.Fatalf("state-sync unaffected by 1s delay:\n%s", tab)
	}
	// Pause-restart never blurs but suspends ventilation.
	if cell("pause-restart", "2ms", 3) != "0" {
		t.Fatalf("pause-restart blurred:\n%s", tab)
	}
	if cell("pause-restart", "2ms", 6) == "0" {
		t.Fatalf("pause-restart shows no unventilated time:\n%s", tab)
	}
	if cell("state-sync", "2ms", 6) != "0" {
		t.Fatalf("state-sync interrupted ventilation:\n%s", tab)
	}
}

func TestE3LayersReduceFalseAlarms(t *testing.T) {
	tab, err := E3SmartAlarms(E3Options{Seed: 3, Patients: 3, Duration: 3 * sim.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	fp := func(i int) string { return tab.Rows[i][3] }
	if fp(0) <= fp(2) && fp(0) != fp(2) {
		// String compare is fine only same width; parse instead.
	}
	var fps [3]int
	for i := range fps {
		if _, err := fmtSscan(tab.Rows[i][3], &fps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !(fps[0] > fps[1] || fps[1] > fps[2]) || fps[2] > fps[0] {
		t.Fatalf("false alarms not reduced by layers: %v\n%s", fps, tab)
	}
	// Sensitivity must not collapse.
	for i := range tab.Rows {
		var sens float64
		if _, err := fmtSscan(tab.Rows[i][5], &sens); err != nil {
			t.Fatal(err)
		}
		if sens < 0.99 {
			t.Fatalf("engine %s lost sensitivity %.2f:\n%s", tab.Rows[i][0], sens, tab)
		}
	}
}

func TestE4AdaptiveImprovesTracking(t *testing.T) {
	tab, err := E4SupervisoryControl(E4Options{Seed: 4, Patients: 20, Duration: 3 * sim.Hour})
	if err != nil {
		t.Fatal(err)
	}
	var fixedErr, adaptErr float64
	if _, err := fmtSscan(tab.Rows[0][1], &fixedErr); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscan(tab.Rows[1][1], &adaptErr); err != nil {
		t.Fatal(err)
	}
	// The supervisor's whole point: better steady tracking across the
	// sensitivity spread.
	if adaptErr >= fixedErr {
		t.Fatalf("supervisor tracking (%f) not better than fixed PID (%f):\n%s", adaptErr, fixedErr, tab)
	}
	// Switching transients are tolerated but must stay bounded: danger
	// count within +2 of fixed and overshoot below 0.75.
	var fixedDanger, adaptDanger int
	if _, err := fmtSscan(tab.Rows[0][3], &fixedDanger); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscan(tab.Rows[1][3], &adaptDanger); err != nil {
		t.Fatal(err)
	}
	if adaptDanger > fixedDanger+2 {
		t.Fatalf("supervisor endangered far more patients than fixed PID:\n%s", tab)
	}
	var adaptOver float64
	if _, err := fmtSscan(tab.Rows[1][2], &adaptOver); err != nil {
		t.Fatal(err)
	}
	if adaptOver > 0.75 {
		t.Fatalf("supervisor overshoot unbounded:\n%s", tab)
	}
}

func TestE5FindsInjectedHazards(t *testing.T) {
	tab, err := E5WorkflowVerify()
	if err != nil {
		t.Fatal(err)
	}
	nominalViolations, faultFindings := 0, 0
	for _, r := range tab.Rows {
		if r[1] == "none" && (r[4] == "VIOLATED" || r[6] == "VIOLATED" || r[5] == "no") {
			nominalViolations++
		}
		if r[1] == "user-error" && (r[4] == "VIOLATED" || r[6] == "VIOLATED") {
			faultFindings++
		}
	}
	if nominalViolations != 0 {
		t.Fatalf("nominal workflows unsafe:\n%s", tab)
	}
	if faultFindings < 3 {
		t.Fatalf("fault injection found only %d hazards:\n%s", faultFindings, tab)
	}
}

func TestE6FailSafeHoldsTheLine(t *testing.T) {
	opt := E6Options{Seed: 7, Duration: sim.Hour, Losses: []float64{0, 0.3}}
	tab, err := E6CommFailure(opt)
	if err != nil {
		t.Fatal(err)
	}
	// fail-safe rows come first; none may show distress.
	for _, r := range tab.Rows[:2] {
		if r[4] != "no" {
			t.Fatalf("fail-safe distressed at loss %s:\n%s", r[1], tab)
		}
	}
}

func TestE7PersonalizationSilencesAthletes(t *testing.T) {
	tab, err := E7AdaptiveThresholds(E7Options{Seed: 5, Athletes: 4, Average: 4, Duration: 6 * sim.Hour})
	if err != nil {
		t.Fatal(err)
	}
	var popFP, persFP int
	if _, err := fmtSscan(tab.Rows[0][3], &popFP); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscan(tab.Rows[1][3], &persFP); err != nil {
		t.Fatal(err)
	}
	if persFP >= popFP {
		t.Fatalf("personalization did not reduce false alarms (%d -> %d):\n%s", popFP, persFP, tab)
	}
	// No missed episodes either way.
	for _, r := range tab.Rows {
		if !strings.HasPrefix(r[4], "0/") {
			t.Fatalf("missed true bradycardia: %v", r)
		}
	}
}

func TestE8SavingsPositive(t *testing.T) {
	tab, err := E8IncrementalCert()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if r[5] == "0%" {
			t.Fatalf("no saving for %s:\n%s", r[0], tab)
		}
	}
}

func TestE9AuthStopsInjection(t *testing.T) {
	tab, err := E9Security(E9Options{Seed: 9, ForgedCommands: 50})
	if err != nil {
		t.Fatal(err)
	}
	open, authed := tab.Rows[0], tab.Rows[1]
	if open[1] == "0" {
		t.Fatalf("open network executed nothing:\n%s", tab)
	}
	if authed[1] != "0" {
		t.Fatalf("authenticated network executed forged commands:\n%s", tab)
	}
	if authed[2] == "0" {
		t.Fatalf("no rejections counted:\n%s", tab)
	}
}

func TestE10StreamingFastest(t *testing.T) {
	tab, err := E10Telemetry(E10Options{Seed: 10, Patients: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Last row is streaming; its latency must parse smaller than the
	// first (15 min store-and-forward).
	slow, err := time.ParseDuration(tab.Rows[0][2])
	if err != nil {
		t.Fatal(err)
	}
	fast, err := time.ParseDuration(tab.Rows[len(tab.Rows)-1][2])
	if err != nil {
		t.Fatal(err)
	}
	if fast >= slow {
		t.Fatalf("streaming (%v) not faster than store-and-forward (%v):\n%s", fast, slow, tab)
	}
	if fast > time.Second {
		t.Fatalf("streaming latency %v implausibly high:\n%s", fast, tab)
	}
}

func TestE11ContextRemovesBedFalseAlarms(t *testing.T) {
	tab, err := E11MixedCriticality(E11Options{Seed: 11, Duration: 4 * sim.Hour, BedMoves: 6})
	if err != nil {
		t.Fatal(err)
	}
	var noCtxFP, ctxFP int
	if _, err := fmtSscan(tab.Rows[0][3], &noCtxFP); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscan(tab.Rows[1][3], &ctxFP); err != nil {
		t.Fatal(err)
	}
	if noCtxFP == 0 {
		t.Fatalf("bed moves produced no false alarms without context:\n%s", tab)
	}
	if ctxFP >= noCtxFP {
		t.Fatalf("context did not reduce false alarms:\n%s", tab)
	}
	for _, r := range tab.Rows {
		if !strings.HasPrefix(r[4], "0/") {
			t.Fatalf("missed the true hypotension: %v\n%s", r, tab)
		}
	}
}

func TestE12InductionAgrees(t *testing.T) {
	tab, err := E12TemporalInduction()
	if err != nil {
		t.Fatal(err)
	}
	proved := 0
	for _, r := range tab.Rows {
		if r[3] == "proved" {
			proved++
		}
		if r[3] == "refuted" {
			t.Fatalf("nominal workflow refuted: %v", r)
		}
	}
	if proved < 3 {
		t.Fatalf("only %d proofs closed:\n%s", proved, tab)
	}
}

// fmtSscan is a tiny wrapper so tests read naturally.
func fmtSscan(s string, out any) (int, error) {
	return sscan(s, out)
}

func TestA1ThresholdTradeoff(t *testing.T) {
	tab, err := A1SupervisorAblation(A1Options{
		Seed: 42, Duration: 2 * sim.Hour,
		StopSpO2s: []float64{91, 95},
		Delays:    []time.Duration{100 * time.Millisecond, 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	cell := func(thr, delay string, col int) float64 {
		for _, r := range tab.Rows {
			if r[0] == thr && r[1] == delay {
				var v float64
				if _, err := fmtSscan(r[col], &v); err != nil {
					t.Fatal(err)
				}
				return v
			}
		}
		t.Fatalf("missing row %s/%s", thr, delay)
		return 0
	}
	// A stricter threshold at the same delay must not worsen the nadir.
	if cell("95", "100ms", 2) < cell("91", "100ms", 2)-0.5 {
		t.Fatalf("stricter threshold worsened nadir:\n%s", tab)
	}
	// The stricter threshold must cost analgesia (less drug delivered).
	if cell("95", "100ms", 6) >= cell("91", "100ms", 6) {
		t.Fatalf("stricter threshold delivered no less drug:\n%s", tab)
	}
}

func TestE13HazardGrowsWithErrorRate(t *testing.T) {
	tab, err := E13UserModel(E13Options{
		Seed: 13, RunsPerCell: 120, ErrorRates: []float64{0.02, 0.15},
	})
	if err != nil {
		t.Fatal(err)
	}
	// For each workflow: P(unsafe) at the high rate >= at the low rate,
	// and at least one workflow shows real degradation.
	grew := false
	for i := 0; i+1 < len(tab.Rows); i += 2 {
		lo, hi := tab.Rows[i], tab.Rows[i+1]
		if lo[0] != hi[0] {
			t.Fatalf("row pairing broken: %v vs %v", lo, hi)
		}
		var loP, hiP float64
		if _, err := fmtSscan(lo[3], &loP); err != nil {
			t.Fatal(err)
		}
		if _, err := fmtSscan(hi[3], &hiP); err != nil {
			t.Fatal(err)
		}
		if hiP < loP-0.05 {
			t.Fatalf("%s: hazard shrank with error rate (%f -> %f):\n%s", lo[0], loP, hiP, tab)
		}
		if hiP > loP+0.05 {
			grew = true
		}
	}
	if !grew {
		t.Fatalf("no workflow showed hazard growth:\n%s", tab)
	}
}

// E3 runs each patient-day once with all three engines on the bus. That
// holds only while the engines merely observe, so each kind run alone
// must raise exactly the alarms of its slot in the joint run, against
// the same truth. In one hour, patient 0 (the genuine deterioration)
// gets its bolus at 20 min; both patients get the probe bias at 40 min
// and the bed moves at 25 and 27 min.
func TestE3EnginesShareOneSimulation(t *testing.T) {
	kinds := []alarmEngineKind{engineThreshold, engineMultivariate, engineFull}
	for _, seed := range []int64{1, 7} {
		opt := E3Options{Seed: seed, Duration: sim.Hour}
		for idx := 0; idx < 2; idx++ {
			joint, truth, err := e3Patient(opt, idx, kinds)
			if err != nil {
				t.Fatal(err)
			}
			if len(joint[0]) == 0 {
				t.Fatalf("seed %d patient %d: the threshold engine raised no alarm to compare", seed, idx)
			}
			for i, kind := range kinds {
				alone, aloneTruth, err := e3Patient(opt, idx, kinds[i:i+1])
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(alone[0], joint[i]) || !reflect.DeepEqual(aloneTruth, truth) {
					t.Errorf("seed %d patient %d: %v alone raised %v against %v; in the joint run %v against %v",
						seed, idx, kind, alone[0], aloneTruth, joint[i], truth)
				}
			}
		}
	}
}

// A negative count or duration is an error that names the field; only
// zero means "use the default".
func TestNegativeSizesAreErrors(t *testing.T) {
	for _, c := range []struct {
		field string
		run   func() (Table, error)
	}{
		{"Patients", func() (Table, error) { return E3SmartAlarms(E3Options{Patients: -2, Duration: 30 * sim.Minute}) }},
		{"Duration", func() (Table, error) { return E3SmartAlarms(E3Options{Duration: -sim.Hour}) }},
		{"Athletes", func() (Table, error) { return E7AdaptiveThresholds(E7Options{Athletes: -1, Average: 2}) }},
		{"Average", func() (Table, error) { return E7AdaptiveThresholds(E7Options{Athletes: 2, Average: -1}) }},
		{"Duration", func() (Table, error) { return E7AdaptiveThresholds(E7Options{Duration: -sim.Hour}) }},
		{"BedMoves", func() (Table, error) { return E11MixedCriticality(E11Options{BedMoves: -1}) }},
		{"Duration", func() (Table, error) { return E11MixedCriticality(E11Options{Duration: -sim.Hour}) }},
	} {
		tab, err := c.run()
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("negative %s: err = %v, want one naming %s; table:\n%s", c.field, err, c.field, tab)
		}
	}
}
