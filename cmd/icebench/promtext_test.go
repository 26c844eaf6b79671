package main

import (
	"math"
	"os"
	"testing"
)

func readProm(t *testing.T, path string) promSample {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := parseProm(string(data))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMetricsDelta(t *testing.T) {
	before := readProm(t, "testdata/metrics_before.prom")
	after := readProm(t, "testdata/metrics_after.prom")
	d := after.delta(before)

	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("submitted", d["icegate_jobs_submitted_total"], 1200)
	near("rejected", d["icegate_jobs_rejected_total"], 3)
	near("cache hits", d["icegate_cache_hits_total"], 776)
	near("cache misses", d["icegate_cache_misses_total"], 424)
	// A labeled child first seen after the window opened counts from zero.
	near("batch count", d[`icegate_queue_wait_seconds_count{lane="batch"}`], 120)
	near("interactive bucket", d[`icegate_queue_wait_seconds_bucket{lane="interactive",le="+Inf"}`], 240)
	near("interactive wait mean", d.histMean("icegate_queue_wait_seconds", `lane="interactive"`), 0.48/240)
	near("batch wait mean", d.histMean("icegate_queue_wait_seconds", `lane="batch"`), 2.4/120)
	near("unlabeled mean", d.histMean("icegate_cell_seconds", ""), 9.6/4800)
	near("unobserved lane", d.histMean("icegate_queue_wait_seconds", `lane="none"`), 0)
	near("gauge", d["icegate_uptime_seconds"], 32.5)
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, text := range []string{"novalue\n", "name{a=\"b\"} notanumber\n"} {
		if _, err := parseProm(text); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", text)
		}
	}
	s, err := parseProm("# HELP x y\n\nx 1\nx_inf +Inf\n")
	if err != nil || s["x"] != 1 || !math.IsInf(s["x_inf"], 1) {
		t.Errorf("parseProm of a valid exposition = %v, %v", s, err)
	}
}
