package icegate

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/icestore"
)

// contains aliases strings.Contains for metric-text assertions.
func contains(s, substr string) bool { return strings.Contains(s, substr) }

// The hostile-tenant suite: every test drives the scheduler with an
// adversarial load pattern and proves the isolation claim with hook and
// gate ordering alone — no sleeps, no timing assertions.

// newTenantScheduler builds a scheduler wired for hook-driven tests.
func newTenantScheduler(t *testing.T, cfg Config) (*Scheduler, <-chan *Job) {
	t.Helper()
	s := NewScheduler(cfg)
	running := make(chan *Job, 64)
	s.hooks.jobRunning = func(j *Job) { running <- j }
	t.Cleanup(s.Close)
	return s, running
}

// gatedReq builds a one-cell test-gated request with a fresh gate.
func gatedReq(tenant, lane string) Request {
	return Request{Scenario: "test-gated", Seed: nextGateSeed(), Cells: 1, Tenant: tenant, Lane: lane}
}

// releaseAndWait lets a running one-cell gated job finish.
func releaseAndWait(t *testing.T, j *Job) {
	t.Helper()
	close(gate(j.Req.Seed))
	<-j.Done()
}

// The headline fairness claim: a tenant flooding the batch lane with a
// large sweep cannot delay another tenant's interactive job by more than
// the one job already in flight. The flood is fully queued ahead of the
// interactive submission, yet the interactive job is dispatched the
// moment the in-flight slot frees.
func TestBatchFloodCannotStarveInteractive(t *testing.T) {
	s, running := newTenantScheduler(t, Config{QueueDepth: 32, Executors: 1, Workers: 2})

	// The hostile sweep: first job occupies the only executor, seven more
	// pile up in the batch lane.
	flood := make([]*Job, 0, 8)
	first := mustSubmit(t, s, gatedReq("sweeper", LaneBatch))
	flood = append(flood, first)
	if got := <-running; got.ID != first.ID {
		t.Fatalf("running %s, want flood head %s", got.ID, first.ID)
	}
	for i := 0; i < 7; i++ {
		flood = append(flood, mustSubmit(t, s, gatedReq("sweeper", LaneBatch)))
	}

	// The interactive job arrives dead last in submission order.
	inter := mustSubmit(t, s, gatedReq("clinician", LaneInteractive))
	if st := inter.Status(); st != StatusQueued {
		t.Fatalf("interactive job status %v, want queued", st)
	}

	// Free the in-flight slot. The next dispatch MUST be the interactive
	// job — seven earlier-submitted batch jobs notwithstanding.
	releaseAndWait(t, first)
	if got := <-running; got.ID != inter.ID {
		t.Fatalf("after slot freed, running %s (tenant %s), want interactive %s",
			got.ID, got.Req.Tenant, inter.ID)
	}
	releaseAndWait(t, inter)

	// Only then does the flood drain, FIFO.
	for i := 1; i < len(flood); i++ {
		got := <-running
		if got.ID != flood[i].ID {
			t.Fatalf("flood drained out of order: got %s, want %s", got.ID, flood[i].ID)
		}
		releaseAndWait(t, got)
	}

	// The lanes and tenants left their marks on the exposition.
	m := s.renderMetrics()
	for _, want := range []string{
		`icegate_tenant_jobs_submitted_total{tenant="sweeper"} 8`,
		`icegate_tenant_jobs_submitted_total{tenant="clinician"} 1`,
		`icegate_queue_wait_seconds_count{lane="batch"} 8`,
		`icegate_queue_wait_seconds_count{lane="interactive"} 1`,
	} {
		if !contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// Weighted fair queueing inside one lane: with everything enqueued up
// front, a weight-3 tenant wins three dispatches for every one a
// weight-1 tenant gets, in the exact virtual-time order — deterministic
// because ties break by tenant name.
func TestWeightedFairInterleave(t *testing.T) {
	s, running := newTenantScheduler(t, Config{
		QueueDepth: 32, Executors: 1, Workers: 2,
		Tenants: TenantsConfig{Tenants: map[string]Quota{
			"heavy": {Weight: 3},
			"light": {Weight: 1},
		}},
	})

	// Park the executor on an anonymous blocker so both tenants' queues
	// fill before the first contested pop.
	blocker := mustSubmit(t, s, gatedReq("", LaneBatch))
	if got := <-running; got.ID != blocker.ID {
		t.Fatalf("running %s, want blocker", got.ID)
	}
	for i := 0; i < 6; i++ {
		mustSubmit(t, s, gatedReq("heavy", LaneBatch))
		mustSubmit(t, s, gatedReq("light", LaneBatch))
	}
	releaseAndWait(t, blocker)

	// Hand-computed stride schedule: heavy advances 1/3 per dispatch,
	// light 1 per dispatch, ties to "heavy" (name order), then light
	// drains its tail alone.
	want := []string{
		"heavy", "light", "heavy", "heavy", "heavy", "light",
		"heavy", "heavy", "light", "light", "light", "light",
	}
	var got []string
	for range want {
		j := <-running
		got = append(got, j.Req.Tenant)
		releaseAndWait(t, j)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch %d = %s, want %s (full order %v)", i, got[i], want[i], got)
		}
	}
}

// Per-tenant quotas reject with typed, Retry-After-carrying errors, and
// each limit counts exactly what it claims to.
func TestQuotaLimitsRejectWith429(t *testing.T) {
	s, running := newTenantScheduler(t, Config{
		QueueDepth: 32, Executors: 1, Workers: 2,
		Tenants: TenantsConfig{Tenants: map[string]Quota{
			"q": {MaxQueued: 1},
			"c": {MaxCells: 4},
		}},
	})
	blocker := mustSubmit(t, s, gatedReq("", LaneBatch))
	if got := <-running; got.ID != blocker.ID {
		t.Fatalf("running %s, want blocker", got.ID)
	}

	// MaxQueued counts admitted-not-running jobs only.
	mustSubmit(t, s, gatedReq("q", LaneBatch))
	_, err := s.Submit(gatedReq("q", LaneBatch))
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Reason != "queued" || qe.Tenant != "q" {
		t.Fatalf("over-MaxQueued submit err = %v, want QuotaError(queued)", err)
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatal("QuotaError must wrap ErrQueueFull for existing 429 mapping")
	}
	if qe.RetryAfter < time.Second {
		t.Fatalf("Retry-After hint %v, want >= 1s", qe.RetryAfter)
	}

	// MaxCells charges cells across queued+running and frees exactly once
	// on cancel.
	big := Request{Scenario: "test-gated", Seed: nextGateSeed(), Cells: 3, Tenant: "c"}
	c1 := mustSubmit(t, s, big)
	if _, err := s.Submit(Request{Scenario: "test-gated", Seed: nextGateSeed(), Cells: 2, Tenant: "c"}); !errors.As(err, &qe) || qe.Reason != "cells" {
		t.Fatalf("over-MaxCells submit err = %v, want QuotaError(cells)", err)
	}
	if _, err := s.Submit(gatedReq("c", LaneBatch)); err != nil {
		t.Fatalf("fitting submit rejected: %v", err) // 3+1 = 4 <= 4
	}
	if err := s.Cancel(c1.ID); err != nil {
		t.Fatal(err)
	}
	<-c1.Done()
	if err := s.Cancel(c1.ID); err != nil { // terminal re-cancel: no double free
		t.Fatal(err)
	}
	c2 := mustSubmit(t, s, Request{Scenario: "test-gated", Seed: nextGateSeed(), Cells: 3, Tenant: "c"})
	if _, err := s.Submit(Request{Scenario: "test-gated", Seed: nextGateSeed(), Cells: 1, Tenant: "c"}); !errors.As(err, &qe) || qe.Reason != "cells" {
		t.Fatalf("cancel freed the charge more than once: err = %v", err)
	}
	_ = c2

	// Unblock and drain the three admitted jobs (q's first, c's fitting
	// job, c2); cancelled c1 never runs.
	releaseAndWait(t, blocker)
	for drained := 0; drained < 3; drained++ {
		got := <-running
		releaseAndWait(t, got)
	}
	if v := c1.View(); v.CellsDone != 0 {
		t.Fatalf("cancelled job executed %d cells", v.CellsDone)
	}
}

// MaxRunning caps concurrency without costing the tenant its queue
// place: a second executor stays available to other tenants while the
// capped tenant's next job waits for its own slot.
func TestMaxRunningYieldsExecutorToOthers(t *testing.T) {
	s, running := newTenantScheduler(t, Config{
		QueueDepth: 32, Executors: 2, Workers: 2,
		Tenants: TenantsConfig{Tenants: map[string]Quota{
			"r": {MaxRunning: 1},
		}},
	})

	r1 := mustSubmit(t, s, gatedReq("r", LaneBatch))
	if got := <-running; got.ID != r1.ID {
		t.Fatalf("running %s, want %s", got.ID, r1.ID)
	}
	r2 := mustSubmit(t, s, gatedReq("r", LaneBatch))

	// The free executor passes over r2 (tenant at cap) and takes the next
	// tenant's work instead.
	o1 := mustSubmit(t, s, gatedReq("other", LaneBatch))
	if got := <-running; got.ID != o1.ID {
		t.Fatalf("free executor ran %s, want other tenant's %s (r is at MaxRunning)", got.ID, o1.ID)
	}
	if st := r2.Status(); st != StatusQueued {
		t.Fatalf("capped tenant's second job status %v, want queued", st)
	}

	// r's slot frees, r2 dispatches.
	releaseAndWait(t, r1)
	if got := <-running; got.ID != r2.ID {
		t.Fatalf("after r's slot freed, running %s, want %s", got.ID, r2.ID)
	}
	releaseAndWait(t, r2)
	releaseAndWait(t, o1)
}

// A hostile client minting fresh tenant names hits the MaxTenants wall;
// configured tenants and the anonymous bucket always get through.
func TestTenantTableCapped(t *testing.T) {
	s, running := newTenantScheduler(t, Config{
		QueueDepth: 32, Executors: 1, Workers: 2,
		Tenants: TenantsConfig{
			MaxTenants: 2,
			Tenants:    map[string]Quota{"vip": {}},
		},
	})
	blocker := mustSubmit(t, s, gatedReq("", LaneBatch)) // anon occupies one table slot
	if got := <-running; got.ID != blocker.ID {
		t.Fatalf("running %s, want blocker", got.ID)
	}

	minted1 := mustSubmit(t, s, gatedReq("mint-1", LaneBatch))
	var qe *QuotaError
	if _, err := s.Submit(gatedReq("mint-2", LaneBatch)); !errors.As(err, &qe) || qe.Reason != "tenants" {
		t.Fatalf("minted tenant past cap: err = %v, want QuotaError(tenants)", err)
	}
	vip := mustSubmit(t, s, gatedReq("vip", LaneBatch)) // named: admitted past the cap
	anon2 := mustSubmit(t, s, gatedReq("", LaneBatch))  // anon: always admitted

	releaseAndWait(t, blocker)
	for _, j := range []*Job{minted1, vip, anon2} {
		_ = j
		got := <-running
		releaseAndWait(t, got)
	}

	// With everything drained the tenant table is empty again: state (and
	// metric label cardinality) tracks live tenants, not history.
	s.mu.Lock()
	n := len(s.tenants)
	s.mu.Unlock()
	if n != 0 {
		t.Fatalf("tenant table holds %d entries after drain, want 0", n)
	}
}

// A client that waits on Done and resubmits at once is never refused
// for its own finished job: the executor frees the tenant's cell charge,
// and reaps the idle tenant, before Done closes. The test checks Done
// only while holding s.mu, so it sees the tenant table as a resubmission
// would at the earliest moment it could; a release that lags Done fails
// here within a few rounds.
func TestDoneClosesAfterChargeReleased(t *testing.T) {
	s := NewScheduler(Config{
		QueueDepth: 4, Executors: 1, Workers: 1,
		Tenants: TenantsConfig{Tenants: map[string]Quota{"solo": {MaxCells: 1}}},
	})
	t.Cleanup(s.Close)
	for round := 0; round < 200; round++ {
		req := gatedReq("solo", LaneInteractive)
		close(gate(req.Seed))
		job, err := s.Submit(req)
		if err != nil {
			t.Fatalf("round %d: resubmission refused: %v", round, err)
		}
		for done := false; !done; runtime.Gosched() {
			s.mu.Lock()
			select {
			case <-job.Done():
				done = true
			default:
			}
			charged := -1
			if ts := s.tenants["solo"]; done && ts != nil {
				charged = ts.cells
			}
			s.mu.Unlock()
			if charged >= 0 {
				t.Fatalf("round %d: Done closed while the tenant still holds %d cells", round, charged)
			}
		}
	}
}

// The -tenants file loader: good config round-trips, and the failure
// modes that would silently void quotas are hard errors.
func TestLoadTenantsValidation(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	good := write("good.json", `{
		"default": {"max_queued": 8, "max_cells": 1024},
		"tenants": {"sweeper": {"max_queued": 2, "weight": 1}, "clinician": {"weight": 4}},
		"max_tenants": 32
	}`)
	cfg, err := LoadTenants(good)
	if err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	if cfg.quotaFor("sweeper").MaxQueued != 2 || cfg.quotaFor("nobody").MaxQueued != 8 {
		t.Fatalf("quota resolution wrong: %+v", cfg)
	}
	if cfg.maxTenants() != 32 {
		t.Fatalf("maxTenants = %d, want 32", cfg.maxTenants())
	}
	if (TenantsConfig{}).maxTenants() != 64 {
		t.Fatalf("zero-config maxTenants = %d, want 64", TenantsConfig{}.maxTenants())
	}

	for name, body := range map[string]string{
		"typoed-field.json":  `{"default": {"max_qeued": 8}}`,
		"negative.json":      `{"default": {"max_cells": -1}}`,
		"bad-name.json":      `{"tenants": {"no spaces": {}}}`,
		"neg-tenants.json":   `{"max_tenants": -3}`,
		"not-even-json.json": `{`,
	} {
		if _, err := LoadTenants(write(name, body)); err == nil {
			t.Errorf("%s: accepted, want error", name)
		}
	}
	if _, err := LoadTenants(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// Request-level tenant plumbing over HTTP: the header is authoritative,
// malformed identities are 400s, and both admission-rejection flavors
// carry a usable Retry-After.
func TestTenantHTTPSurface(t *testing.T) {
	s, ts := newTestGateway(t, Config{
		QueueDepth: 1, Executors: 1, Workers: 1,
		Tenants: TenantsConfig{Tenants: map[string]Quota{"alice": {MaxQueued: 1}}},
	})
	running := make(chan *Job, 8)
	s.hooks.jobRunning = func(j *Job) { running <- j }

	post := func(req Request, tenant string) (*http.Response, View) {
		t.Helper()
		resp, v := postJob(t, ts, req, tenant)
		return resp, v
	}

	// Header overrides the body field; defaults normalize into the view.
	blocker := gatedReq("ignored-body-tenant", "")
	resp, v := post(blocker, "alice")
	if resp.StatusCode != http.StatusCreated || v.Tenant != "alice" || v.Lane != LaneInteractive {
		t.Fatalf("header submit: code=%d view=%+v", resp.StatusCode, v)
	}
	bj := <-running

	// alice's quota: one queued job fits, the second is a 429 whose
	// Retry-After parses to a positive integer.
	if resp, _ := post(gatedReq("", ""), "alice"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("queued submit = %d", resp.StatusCode)
	}
	resp, _ = post(gatedReq("", ""), "alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d, want 429", resp.StatusCode)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("quota 429 Retry-After %q, want positive integer seconds", resp.Header.Get("Retry-After"))
	}

	// The global queue (depth 1, occupied by alice's queued job) also
	// 429s, with the flat hint.
	resp, _ = post(gatedReq("", ""), "bob")
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("global-full submit: code=%d Retry-After=%q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Malformed identities are client errors, not quota rejections.
	if resp, _ := post(gatedReq("bad tenant!", ""), ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad tenant name = %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(gatedReq("", "bulk"), ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad lane = %d, want 400", resp.StatusCode)
	}

	releaseAndWait(t, bj)
	q := <-running
	releaseAndWait(t, q)
}

// The disk store makes the cache restart-durable: a second scheduler on
// the same directory serves the first's result byte-identically, as a
// cache hit, without simulating — then retains the store hit's job,
// which serves the next repeat from memory.
func TestStoreServesAcrossRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	open := func() *Scheduler {
		st, err := icestore.Open(icestore.Config{Dir: dir, MaxBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return NewScheduler(Config{QueueDepth: 4, Executors: 1, Workers: 2, Store: st})
	}
	req := Request{Scenario: fleet.ScenarioPCASupervised, Seed: 77, Cells: 3, DurationS: 300}

	s1 := open()
	j1, err := s1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-j1.Done()
	table1, ok := j1.Table()
	if !ok || j1.View().Cached {
		t.Fatalf("first run: ok=%v cached=%v", ok, j1.View().Cached)
	}
	if puts := s1.Store().Stats().Puts; puts != 1 {
		t.Fatalf("store puts after first run = %d, want 1", puts)
	}
	s1.Close()

	s2 := open()
	t.Cleanup(s2.Close)
	j2, err := s2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Done() // store hits complete synchronously inside Submit
	v := j2.View()
	if !v.Cached || v.Status != StatusDone {
		t.Fatalf("restart submit not served from store: %+v", v)
	}
	if v.CellsDone != 3 {
		t.Fatalf("store hit replayed %d cells, want 3", v.CellsDone)
	}
	table2, _ := j2.Table()
	if table2 != table1 {
		t.Fatalf("restart table differs:\n--- first\n%s\n--- restart\n%s", table1, table2)
	}
	if hits := s2.Store().Stats().Hits; hits != 1 {
		t.Fatalf("store hits = %d, want 1", hits)
	}

	// The store hit's job is retained and serves the key, so a repeat
	// stays off the disk.
	j3, err := s2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-j3.Done()
	if table3, _ := j3.Table(); table3 != table1 {
		t.Fatal("promoted entry differs from original")
	}
	if hits := s2.Store().Stats().Hits; hits != 1 {
		t.Fatalf("store hits after promotion = %d, want 1 (second repeat must hit memory)", hits)
	}

	if m := s2.renderMetrics(); !contains(m, "icegate_store_hits_total 1") {
		t.Fatalf("metrics missing store hit counter:\n%s", m)
	}
}

// postJob submits over HTTP with an explicit tenant header (empty means
// no header), returning the closed response and the decoded view on 201.
func postJob(t *testing.T, ts *httptest.Server, req Request, tenantHdr string) (*http.Response, View) {
	t.Helper()
	body, _ := json.Marshal(req)
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if tenantHdr != "" {
		hr.Header.Set(TenantHeader, tenantHdr)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v View
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return resp, v
}
