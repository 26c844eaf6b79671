package icegate

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/icestore"
	"repro/internal/sim"
)

// The tests register two extra scenarios whose cells block on a gate, so
// a job can be held mid-flight deterministically: each token sent to a
// gate releases exactly one cell. A test-gated job's cells share its
// seed's gate; a test-cell-gated cell waits on the gate of its seed and
// index, so a test picks the order its cells land in.
var testGates sync.Map // seed, or cellGate -> chan struct{}

type cellGate struct {
	seed  int64
	index int
}

func gate(key any) chan struct{} {
	ch, _ := testGates.LoadOrStore(key, make(chan struct{}))
	return ch.(chan struct{})
}

func init() {
	registerGated("test-gated", func(p fleet.Params, _ fleet.Cell) any { return p.Seed })
	registerGated("test-cell-gated", func(p fleet.Params, c fleet.Cell) any { return cellGate{p.Seed, c.Index} })
}

// registerGated registers a scenario whose cell c waits on gate(key(p, c)).
func registerGated(name string, key func(fleet.Params, fleet.Cell) any) {
	fleet.Register(name, func(p fleet.Params) fleet.Spec {
		return fleet.Spec{
			Name:  name,
			Seed:  p.Seed,
			Cells: p.Cells,
			Run: func(c fleet.Cell) (fleet.Metrics, error) {
				<-gate(key(p, c))
				return fleet.Metrics{"index": float64(c.Index)}, nil
			},
		}
	})
}

func newTestGateway(t *testing.T, cfg Config) (*Scheduler, *httptest.Server) {
	t.Helper()
	s := NewScheduler(cfg)
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, req Request) (View, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
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
	return v, resp.StatusCode
}

func getJob(t *testing.T, ts *httptest.Server, id string) View {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitDone(t *testing.T, ts *httptest.Server, id string) View {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v := getJob(t, ts, id)
		if v.Status.terminal() {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return View{}
}

func getResult(t *testing.T, ts *httptest.Server, id string) (string, string, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.Header.Get("X-Icegate-Cached"), resp.StatusCode
}

// A duration_s the simulator cannot represent is a 400, not a silent
// default horizon: 1e10 s overflows int64 nanoseconds and 1e-12 s rounds
// to 0 ns, and either would run the scenario's default horizon cached
// under a key that names the bad value.
func TestValidateRejectsUnrepresentableDuration(t *testing.T) {
	for _, d := range []float64{1e10, 9.3e9, 1e-12, 1e-10} {
		err := Request{Scenario: fleet.ScenarioPCASupervised, DurationS: d}.Validate()
		if err == nil || !strings.Contains(err.Error(), "duration_s") {
			t.Errorf("duration_s %v: Validate = %v, want an error naming duration_s", d, err)
		}
	}
	for _, d := range []float64{0, 1e-9, 600, 9.2e9} {
		if err := (Request{Scenario: fleet.ScenarioPCASupervised, DurationS: d}).Validate(); err != nil {
			t.Errorf("duration_s %v rejected: %v", d, err)
		}
	}
	_, ts := newTestGateway(t, Config{QueueDepth: 4, Executors: 1, Workers: 1})
	if _, code := submit(t, ts, Request{Scenario: fleet.ScenarioPCASupervised, DurationS: 1e10}); code != http.StatusBadRequest {
		t.Fatalf("duration_s 1e10 submitted with %d, want 400", code)
	}
}

// The acceptance criterion for the deterministic cache: two identical
// submissions return byte-identical tables, the second served from cache
// without simulating.
func TestIdenticalSubmissionsServedFromCacheByteIdentical(t *testing.T) {
	s, ts := newTestGateway(t, Config{QueueDepth: 4, Executors: 1, Workers: 4})

	req := Request{Scenario: fleet.ScenarioPCASupervised, Seed: 42, Cells: 3, DurationS: 600}
	v1, code := submit(t, ts, req)
	if code != http.StatusCreated {
		t.Fatalf("submit = %d", code)
	}
	if v1.Cached {
		t.Fatal("first submission claims cached")
	}
	waitDone(t, ts, v1.ID)
	table1, cached1, code := getResult(t, ts, v1.ID)
	if code != http.StatusOK || cached1 != "false" {
		t.Fatalf("first result code=%d cached=%s", code, cached1)
	}
	if !strings.HasPrefix(table1, "scenario pca-supervised seed=42 cells=3\n") {
		t.Fatalf("unexpected table header:\n%s", table1)
	}

	v2, code := submit(t, ts, req)
	if code != http.StatusCreated {
		t.Fatalf("second submit = %d", code)
	}
	if !v2.Cached || v2.Status != StatusDone {
		t.Fatalf("second submission not served from cache: %+v", v2)
	}
	table2, cached2, code := getResult(t, ts, v2.ID)
	if code != http.StatusOK || cached2 != "true" {
		t.Fatalf("second result code=%d cached=%s", code, cached2)
	}
	if table1 != table2 {
		t.Fatalf("cached table differs:\n%s\nvs\n%s", table1, table2)
	}
	if m := s.MetricsText(); !strings.Contains(m, "\nicegate_cache_hits_total 1\n") {
		t.Fatalf("cache hits != 1:\n%s", m)
	}

	// A semantically identical request with defaults spelled differently
	// must hit the same cache line.
	if (Request{Scenario: "x", Cells: 0, Seed: 0}).Key() != (Request{Scenario: "x", Cells: 1, Seed: 1}).Key() {
		t.Fatal("normalized requests key differently")
	}
}

// The acceptance criterion for serving: a multi-cell job streams NDJSON
// per-cell results as cells complete, while a concurrent job on another
// executor is cancelled via its context.
func TestStreamsCellsWhileConcurrentJobCancelled(t *testing.T) {
	_, ts := newTestGateway(t, Config{QueueDepth: 8, Executors: 2, Workers: 2})

	streamSeed, victimSeed := nextGateSeed(), nextGateSeed()
	streamJob, code := submit(t, ts, Request{Scenario: "test-gated", Seed: streamSeed, Cells: 3})
	if code != http.StatusCreated {
		t.Fatalf("submit stream job = %d", code)
	}
	victim, code := submit(t, ts, Request{Scenario: "test-gated", Seed: victimSeed, Cells: 2})
	if code != http.StatusCreated {
		t.Fatalf("submit victim job = %d", code)
	}

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + streamJob.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	readLine := func() streamLine {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
		var l streamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		return l
	}

	// Cancel the concurrent job mid-flight: its two cells are blocked on
	// their gate, so it is provably running when the DELETE lands.
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+victim.ID, nil)
	if resp, err := http.DefaultClient.Do(delReq); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	// Release the streaming job one cell at a time; each token must yield
	// one NDJSON cell line while the remaining cells are still blocked —
	// the incremental-delivery proof.
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		gate(streamSeed) <- struct{}{}
		l := readLine()
		if l.Cell == nil {
			t.Fatalf("expected cell line, got %+v", l)
		}
		if seen[l.Cell.Index] {
			t.Fatalf("cell %d streamed twice", l.Cell.Index)
		}
		seen[l.Cell.Index] = true
		if l.Cell.Metrics["index"] != float64(l.Cell.Index) {
			t.Fatalf("cell %d carries wrong metrics: %+v", l.Cell.Index, l.Cell)
		}
	}
	final := readLine()
	if !final.Done || final.Status != StatusDone {
		t.Fatalf("terminal line = %+v", final)
	}
	for i := 0; i < 3; i++ {
		if !seen[i] {
			t.Fatalf("cell %d never streamed (saw %v)", i, seen)
		}
	}

	// Unblock the victim's in-flight cells; the job must still end
	// cancelled because its context was cancelled while they ran.
	close(gate(victimSeed))
	if v := waitDone(t, ts, victim.ID); v.Status != StatusCancelled {
		t.Fatalf("victim status = %+v", v)
	}
}

// A computed job's /stream keeps the order its cells were delivered in,
// live and after it finishes, because live readers follow its cells by
// position. A hit, from a retained job or from the store after a
// restart, replays its cells in index order.
func TestStreamOrder(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Scheduler, *httptest.Server) {
		st, err := icestore.Open(icestore.Config{Dir: dir, MaxBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return newTestGateway(t, Config{QueueDepth: 4, Executors: 1, Workers: 3, Store: st})
	}
	seed := nextGateSeed()
	req := Request{Scenario: "test-cell-gated", Seed: seed, Cells: 3}
	wantOrder := func(what string, got []int, want ...int) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s streams cells %v, want %v", what, got, want)
		}
	}

	s1, ts1 := open()
	v, code := submit(t, ts1, req)
	if code != http.StatusCreated {
		t.Fatalf("submit = %d", code)
	}
	resp, err := http.Get(ts1.URL + "/api/v1/jobs/" + v.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := json.NewDecoder(resp.Body)
	var live []int
	for _, i := range []int{2, 0, 1} {
		gate(cellGate{seed, i}) <- struct{}{}
		var l streamLine
		if err := lines.Decode(&l); err != nil || l.Cell == nil {
			t.Fatalf("live stream line = %+v, %v; want cell %d", l, err, i)
		}
		live = append(live, l.Cell.Index)
	}
	wantOrder("the live job", live, 2, 0, 1)
	waitDone(t, ts1, v.ID)
	wantOrder("the finished job", streamCells(t, ts1, v.ID), 2, 0, 1)
	hit, _ := submit(t, ts1, req)
	if !hit.Cached {
		t.Fatal("repeat not served from cache")
	}
	wantOrder("a hit", streamCells(t, ts1, hit.ID), 0, 1, 2)
	ts1.Close()
	s1.Close()

	_, ts2 := open()
	if hit, _ = submit(t, ts2, req); !hit.Cached {
		t.Fatal("repeat after restart not served from the store")
	}
	wantOrder("a store hit", streamCells(t, ts2, hit.ID), 0, 1, 2)
}

// streamCells reads a terminal job's whole /stream and returns the
// indexes of its cell lines.
func streamCells(t *testing.T, ts *httptest.Server, id string) []int {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cells []int
	for lines := json.NewDecoder(resp.Body); ; {
		var l streamLine
		if err := lines.Decode(&l); err != nil {
			t.Fatalf("stream of %s ended without a done line: %v", id, err)
		}
		if l.Done {
			return cells
		}
		cells = append(cells, l.Cell.Index)
	}
}

// Admission control: a full queue answers 429 without registering a job,
// and a queued job can be cancelled before it ever runs.
func TestQueueFullRejectsWith429(t *testing.T) {
	_, ts := newTestGateway(t, Config{QueueDepth: 1, Executors: 1, Workers: 1})

	runSeed := nextGateSeed()
	running, code := submit(t, ts, Request{Scenario: "test-gated", Seed: runSeed, Cells: 1})
	if code != http.StatusCreated {
		t.Fatalf("submit running = %d", code)
	}
	// Occupying the executor takes a moment; poll until it leaves the queue.
	deadline := time.Now().Add(5 * time.Second)
	for getJob(t, ts, running.ID).Status != StatusRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}

	queued, code := submit(t, ts, Request{Scenario: "test-gated", Seed: nextGateSeed(), Cells: 1})
	if code != http.StatusCreated {
		t.Fatalf("submit queued = %d", code)
	}
	if _, code := submit(t, ts, Request{Scenario: "test-gated", Seed: nextGateSeed(), Cells: 1}); code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", code)
	}

	// Cancel the queued job; it must go terminal without running.
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v := getJob(t, ts, queued.ID); v.Status != StatusCancelled {
		t.Fatalf("queued job after cancel: %+v", v)
	}

	close(gate(runSeed))
	if v := waitDone(t, ts, running.ID); v.Status != StatusDone {
		t.Fatalf("running job finished as %+v", v)
	}
}

// The gateway serves the experiment catalog too: a remote table render is
// byte-identical to calling the runner in-process.
func TestExperimentJobMatchesLocalRender(t *testing.T) {
	_, ts := newTestGateway(t, Config{QueueDepth: 4, Executors: 1, Workers: 2})
	v, code := submit(t, ts, Request{Exp: "E12"})
	if code != http.StatusCreated {
		t.Fatalf("submit = %d", code)
	}
	waitDone(t, ts, v.ID)
	remote, _, code := getResult(t, ts, v.ID)
	if code != http.StatusOK {
		t.Fatalf("result = %d: %s", code, remote)
	}
	local, err := experiments.Run("E12", experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if remote != local.String() {
		t.Fatalf("remote render differs:\n%s\nvs\n%s", remote, local)
	}
}

// Bad submissions are 400s, the scenario list covers the fleet registry,
// and /metrics exposes queue and cache state.
func TestListValidationAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestGateway(t, Config{QueueDepth: 4, Executors: 1, Workers: 1})

	for _, bad := range []Request{
		{},                                      // neither scenario nor exp
		{Scenario: "pca-supervised", Exp: "F1"}, // both
		{Scenario: "no-such-scenario"},
		{Exp: "E99"},
		{Scenario: "pca-supervised", Cells: -1},
		{Exp: "F1", DurationS: 60}, // duration on a table job
		// A knob the scenario never reads would cache a nominal run under
		// the mistyped key; the declaration check rejects it instead.
		{Scenario: "pca-commfault", Knobs: map[string]float64{"losss": 0.1}},
		{Scenario: "pca-supervised", Knobs: map[string]float64{"loss": 0.1}},
	} {
		if _, code := submit(t, ts, bad); code != http.StatusBadRequest {
			t.Fatalf("bad request %+v accepted with %d", bad, code)
		}
	}

	resp, err := http.Get(ts.URL + "/api/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	var listing map[string][]string
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got, want := fmt.Sprint(listing["scenarios"]), fmt.Sprint(fleet.Names()); got != want {
		t.Fatalf("scenario list %s != fleet registry %s", got, want)
	}
	if len(listing["experiments"]) != len(experiments.IDs()) {
		t.Fatalf("experiment list %v", listing["experiments"])
	}

	mResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mResp.Body)
	mResp.Body.Close()
	for _, want := range []string{
		"icegate_queue_depth ", "icegate_queue_capacity 4",
		"icegate_cache_hits_total ", "icegate_cells_per_second ",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	if resp, err := http.Get(ts.URL + "/api/v1/jobs/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job = %d", resp.StatusCode)
		}
	}
}

// The job registry is the result cache, bounded by jobs and by the cells
// its terminal jobs hold. Past either bound the oldest terminal job
// leaves, the newest hit stays and serves its key, and ten queued or
// running 4096-cell jobs, which hold no cells yet, push no finished job
// out beyond their count.
func TestTerminalJobsEvictedBeyondRetention(t *testing.T) {
	for _, tc := range []struct {
		name        string
		cells, hits int
	}{
		{"jobs", 1, retainJobs},         // 1 + 10 + 1024 jobs: the job bound
		{"cells", 4096, retainCeilings}, // 9 × 4096 cells: the cell bound
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheduler(Config{QueueDepth: 16, Executors: 1, Workers: 1})
			t.Cleanup(s.Close)
			seed := nextGateSeed()
			close(gate(seed)) // a closed gate passes every cell at once
			req := Request{Scenario: "test-gated", Seed: seed, Cells: tc.cells}
			first := mustSubmit(t, s, req)
			<-first.Done()
			for i := 0; i < 10; i++ {
				live := nextGateSeed()
				t.Cleanup(func() { close(gate(live)) }) // runs before s.Close
				mustSubmit(t, s, Request{Scenario: "test-gated", Seed: live, Cells: 4096})
			}
			var last *Job
			for i := 0; i < tc.hits; i++ {
				if last = mustSubmit(t, s, req); !last.View().Cached {
					t.Fatalf("repeat %d not served from cache", i)
				}
			}

			if _, ok := s.Get(first.ID); ok {
				t.Error("the first job is still retained past the bound")
			}
			if _, ok := s.Get(last.ID); !ok {
				t.Fatal("the newest hit was evicted")
			}
			live, terminal := 0, 0
			for _, j := range s.Jobs() {
				if j.Status().terminal() {
					terminal++
				} else {
					live++
				}
			}
			if wantTerminal := min(tc.hits, retainJobs-10); live != 10 || terminal != wantTerminal {
				t.Errorf("registry holds %d live and %d terminal jobs, want 10 and %d", live, terminal, wantTerminal)
			}
			m := s.MetricsText()
			for _, want := range []string{
				"\nicegate_cache_entries 1\n",
				fmt.Sprintf("\nicegate_cache_hits_total %d\n", tc.hits),
				fmt.Sprintf("\nicegate_retained_cells %d\n", terminal*tc.cells),
			} {
				if !strings.Contains(m, want) {
					t.Errorf("metrics missing %q:\n%s", want, m)
				}
			}
			if j := mustSubmit(t, s, req); !j.View().Cached {
				t.Error("the newest hit no longer serves its key")
			}
		})
	}
}

// Past the job bound, the heap stops growing with unique jobs: an evicted
// job's result is freed, not kept in a second cache.
func TestHeapFlatPastRetention(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("the race detector's shadow memory swamps the heap reading")
	}
	s := NewScheduler(Config{QueueDepth: retainJobs, Executors: 2, Workers: 2})
	t.Cleanup(s.Close)
	seed := int64(0)
	heapAfter := func() uint64 {
		jobs := make([]*Job, retainJobs)
		for i := range jobs {
			seed++
			jobs[i] = mustSubmit(t, s, Request{Scenario: fleet.ScenarioPCASupervised, Seed: seed, Cells: 8, DurationS: 1})
		}
		for _, j := range jobs {
			if <-j.Done(); j.Status() != StatusDone {
				t.Fatalf("job %s ended %s", j.ID, j.Status())
			}
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heapAfter()
	after := heapAfter()
	t.Logf("heap after GC: %.1f MB, then %.1f MB", float64(before)/1e6, float64(after)/1e6)
	if after > before+1<<20 {
		t.Fatalf("heap grew %.1f MB over %d more unique jobs, want under 1 MiB", float64(after-before)/1e6, retainJobs)
	}
}
