package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/icegate"
)

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil || len(all) != 14 || all[0] != "F1" || all[13] != "A1" {
		t.Fatalf("all = %v, %v", all, err)
	}
	picked, err := selectExperiments(" e2, f1 ")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(picked, ",") != "E2,F1" {
		t.Fatalf("picked = %v", picked)
	}
	if _, err := selectExperiments("E99"); err == nil || !strings.Contains(err.Error(), "E99") {
		t.Fatalf("unknown ID not rejected: %v", err)
	}
}

// The golden-output smoke test: one small deterministic table, rendered
// through the full flag-handling path, byte-compared against the fixture.
func TestRunGoldenE12(t *testing.T) {
	golden, err := os.ReadFile("testdata/e12.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "E12"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if out.String() != string(golden) {
		t.Fatalf("E12 output diverged from golden:\n%s\nwant:\n%s", out.String(), golden)
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "E99"}, &out, &errOut); code != 2 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(errOut.String(), "E99") || out.Len() != 0 {
		t.Fatalf("stderr %q stdout %q", errOut.String(), out.String())
	}
}

func TestUsageListsFleetScenarios(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-h"}, &out, &errOut); code != 2 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"pca-supervised", "xray-ventsync", "F1,E2"} {
		if !strings.Contains(errOut.String(), want) {
			t.Fatalf("usage missing %q:\n%s", want, errOut.String())
		}
	}
}

// Client mode: the same table rendered through a live gateway must be
// byte-identical to the local run (and the second fetch exercises the
// gateway's cache).
func TestRunRemoteMatchesLocal(t *testing.T) {
	sched := icegate.NewScheduler(icegate.Config{QueueDepth: 4, Executors: 1, Workers: 2})
	ts := httptest.NewServer(icegate.NewHandler(sched))
	defer func() {
		ts.Close()
		sched.Close()
	}()

	var local, localErr bytes.Buffer
	if code := run([]string{"-exp", "E12"}, &local, &localErr); code != 0 {
		t.Fatalf("local run: %s", localErr.String())
	}
	for i := 0; i < 2; i++ { // second pass is a cache hit
		var remote, remoteErr bytes.Buffer
		if code := run([]string{"-exp", "E12", "-remote", ts.URL}, &remote, &remoteErr); code != 0 {
			t.Fatalf("remote run %d: %s", i, remoteErr.String())
		}
		if remote.String() != local.String() {
			t.Fatalf("remote render %d differs:\n%s\nvs local:\n%s", i, remote.String(), local.String())
		}
	}
	if m := sched.MetricsText(); !strings.Contains(m, "\nicegate_cache_hits_total 1\n") {
		t.Fatalf("cache hits != 1:\n%s", m)
	}
}

// parseRetryAfter covers both HTTP shapes of the header plus the junk a
// client must shrug off.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"7", 7 * time.Second, true},
		{" 2 ", 2 * time.Second, true},
		{"0", 0, true},
		{now.Add(90 * time.Second).UTC().Format(http.TimeFormat), 90 * time.Second, true},
		{now.Add(-time.Minute).UTC().Format(http.TimeFormat), 0, true}, // past date: retry now
		{"-3", 0, false},
		{"soon", 0, false},
		{"", 0, false},
	}
	for _, tc := range cases {
		got, ok := parseRetryAfter(tc.in, now)
		if got != tc.want || ok != tc.ok {
			t.Errorf("parseRetryAfter(%q) = %v, %v; want %v, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

// A 429 with Retry-After must pause for exactly the server's delay — not
// the generic jittered backoff — and the tenant flag must ride requests
// as the gateway's header.
func TestRemote429HonorsRetryAfter(t *testing.T) {
	var calls int
	var gotTenant string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		gotTenant = r.Header.Get(icegate.TenantHeader)
		if calls < 3 {
			w.Header().Set("Retry-After", strconv.Itoa(4+calls)) // 5, then 6
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"ok": true}`))
	}))
	defer srv.Close()

	var slept []time.Duration
	oldSleep := sleepFn
	sleepFn = func(d time.Duration) { slept = append(slept, d) }
	defer func() { sleepFn = oldSleep }()

	var out struct {
		OK bool `json:"ok"`
	}
	if _, err := remoteJSON(http.MethodGet, srv.URL, "sweeper", nil, &out); err != nil || !out.OK {
		t.Fatalf("remoteJSON = %v (ok=%v)", err, out.OK)
	}
	if calls != 3 || gotTenant != "sweeper" {
		t.Fatalf("calls=%d tenant=%q, want 3 calls as sweeper", calls, gotTenant)
	}
	// The exact parsed delays, not backoff jitter.
	if len(slept) != 2 || slept[0] != 5*time.Second || slept[1] != 6*time.Second {
		t.Fatalf("slept %v, want [5s 6s]", slept)
	}
}

// A 429 without the header falls back to the jittered backoff, attempts
// stay bounded, and a 4xx is permanent (no sleeps at all).
func TestRemoteRetryFallbackAndPermanent(t *testing.T) {
	var slept []time.Duration
	oldSleep := sleepFn
	sleepFn = func(d time.Duration) { slept = append(slept, d) }
	defer func() { sleepFn = oldSleep }()

	always429 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer always429.Close()
	if _, err := remoteJSON(http.MethodGet, always429.URL, "", nil, nil); err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("exhausted retries err = %v", err)
	}
	if len(slept) != remoteAttempts-1 {
		t.Fatalf("slept %d times, want %d", len(slept), remoteAttempts-1)
	}
	for _, d := range slept {
		if d <= 0 || d > remoteBackoff.Max {
			t.Fatalf("fallback delay %v outside backoff envelope", d)
		}
	}

	slept = nil
	notFound := httptest.NewServer(http.NotFoundHandler())
	defer notFound.Close()
	if _, err := remoteJSON(http.MethodGet, notFound.URL, "", nil, nil); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("permanent err = %v", err)
	}
	if len(slept) != 0 {
		t.Fatalf("permanent failure slept %v, want none", slept)
	}
}

// -follow is narration, not computation: tables on stdout stay
// byte-identical with the live event stream on or off, locally and
// through a gateway — and the stream actually narrates span events to
// stderr in both modes.
func TestRunFollowByteIdentity(t *testing.T) {
	var plain, plainErr bytes.Buffer
	if code := run([]string{"-exp", "E12"}, &plain, &plainErr); code != 0 {
		t.Fatalf("local run: %s", plainErr.String())
	}
	var followed, followedErr bytes.Buffer
	if code := run([]string{"-exp", "E12", "-follow"}, &followed, &followedErr); code != 0 {
		t.Fatalf("local -follow run: %s", followedErr.String())
	}
	if followed.String() != plain.String() {
		t.Fatalf("-follow changed the local table:\n%s\nvs\n%s", followed.String(), plain.String())
	}
	if !strings.Contains(followedErr.String(), "follow:") {
		t.Fatalf("local -follow streamed nothing to stderr:\n%s", followedErr.String())
	}

	sched := icegate.NewScheduler(icegate.Config{QueueDepth: 4, Executors: 1, Workers: 2})
	ts := httptest.NewServer(icegate.NewHandler(sched))
	defer func() {
		ts.Close()
		sched.Close()
	}()
	for i := 0; i < 2; i++ { // second pass replays a cached traced job
		var remote, remoteErr bytes.Buffer
		if code := run([]string{"-exp", "E12", "-remote", ts.URL, "-follow"}, &remote, &remoteErr); code != 0 {
			t.Fatalf("remote -follow run %d: %s", i, remoteErr.String())
		}
		if remote.String() != plain.String() {
			t.Fatalf("remote -follow table %d differs:\n%s\nvs\n%s", i, remote.String(), plain.String())
		}
		if !strings.Contains(remoteErr.String(), "follow job-") {
			t.Fatalf("remote -follow run %d streamed nothing:\n%s", i, remoteErr.String())
		}
	}
}
