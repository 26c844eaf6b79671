package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/icegate"
	"repro/internal/icescope"
	"repro/internal/icestore"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	window   time.Duration // the measured window
	trace    bool          // report per-layer metrics instead of end-to-end ones
	setups   int           // set-ups per run; setup_s is their median
	workDir  string        // result stores and the Chrome trace go here
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict, printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setup is a stack ready for the window.
type setup struct {
	st   *stack
	pool map[string]string // ward-open: table computed at set-up, by cache key
}

// run executes one workload: set-up (cfg.setups times, keeping the
// last), the measured window, the output checks, and, for a trace run,
// the isolated per-layer replays. An error means the benchmark could
// not run; wrong outputs are failures counted in the result.
func run(cfg config, log io.Writer) (result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return result{}, err
	}
	// The run's result stores go in a fresh directory that is left in
	// place: deleting fsynced files costs tens of milliseconds each on a
	// filesystem with online discard, which would add ~20 s to a ward-open
	// run.
	runDir, err := os.MkdirTemp(cfg.workDir, cfg.workload+"-")
	if err != nil {
		return result{}, err
	}
	tr := icescope.NewTrace("icebench " + cfg.workload)
	if !cfg.trace {
		tr = nil // end-to-end numbers are measured untraced
	}
	root := tr.Start(icescope.Span{}, "icebench "+cfg.workload)

	var setupTimes []float64
	var s *setup
	for rep := 0; rep < cfg.setups; rep++ {
		if s != nil {
			s.st.close()
		}
		t0 := time.Now()
		if s, err = setUp(cfg, filepath.Join(runDir, fmt.Sprintf("store-%d", rep)), root); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer s.st.close()

	var before promSample
	if cfg.trace {
		if before, err = s.st.scrape(); err != nil {
			return result{}, err
		}
	}
	ws := root.Child("window")
	cpu0, _ := usage()
	start := time.Now()
	var recs []record
	if cfg.workload == wlWardOpen {
		ops := wardOps(cfg.seed, cfg.window, wardArrivals(cfg.window))
		for i := range ops {
			ops[i].req.Trace = cfg.trace && traced(ops[i])
		}
		recs = openLoop(realClock{}, s.st, start, ops, ws)
	} else {
		next := func(i int) op {
			o := closedOp(cfg.workload, cfg.seed, i)
			o.req.Trace = cfg.trace && traced(o)
			return o
		}
		recs = closedLoop(realClock{}, s.st, start, start.Add(cfg.window), next, ws)
	}
	elapsed := time.Since(start)
	cpu1, rssMB := usage()
	cpu := cpu1 - cpu0
	ws.End()

	res := result{Attempted: len(recs), Metrics: map[string]metric{}}
	failures := checkRecords(recs, s.pool)
	cs := root.Child("check")
	refAttempted, refFailures, err := checkReference(cfg, recs)
	cs.End()
	if err != nil {
		return result{}, err
	}
	res.Attempted += refAttempted
	failures = append(failures, refFailures...)
	res.Failed = len(failures)
	res.Correct = res.Failed == 0
	for i, f := range failures {
		if i == 5 {
			fmt.Fprintf(log, "failure: ... and %d more\n", len(failures)-i)
			break
		}
		fmt.Fprintf(log, "failure: %v\n", f)
	}

	if !cfg.trace {
		res.Metrics = endToEnd(recs, elapsed, rssMB, setupTimes)
		describeLatency(log, cfg.workload, recs)
		return res, nil
	}
	after, err := s.st.scrape()
	if err != nil {
		return result{}, err
	}
	if err := windowLayers(res.Metrics, recs, cpu, after.delta(before)); err != nil {
		return result{}, err
	}
	ls := root.Child("layers")
	err = isolatedLayers(res.Metrics, cfg, filepath.Join(runDir, "layers-store"), firstTable(recs), ls)
	ls.End()
	if err != nil {
		return result{}, err
	}
	root.End()
	path := filepath.Join(cfg.workDir, fmt.Sprintf("%s-seed%d.trace.json", cfg.workload, cfg.seed))
	if err := writeChrome(tr, path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "chrome trace: %s\n", path)
	return res, nil
}

// traced picks the requests a trace run asks the gateway to trace: a
// quarter of the computed ones, so traced and untraced latencies of the
// same class can be compared.
func traced(o op) bool { return o.class == classComputed && o.idx%4 == 0 }

// setUp starts the workload's stack and runs its fixed set-up work;
// ward-open keeps its result store in storeDir.
func setUp(cfg config, storeDir string, parent icescope.Span) (*setup, error) {
	sp := parent.Child("setup")
	defer sp.End()
	if cfg.workload == wlWardOpen {
		return setUpWard(storeDir, sp)
	}
	st, err := startStack(gatewayConfig(cfg.workload))
	if err != nil {
		return nil, err
	}
	for _, o := range warmOps(cfg.workload) {
		if _, _, err := st.runJob(o.req); err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return &setup{st: st}, nil
}

// setUpWard computes the repeat pool into a fresh store, then restarts
// the gateway over that store with an empty memory cache — the state a
// daemon is in after a restart — and warms the X-ray path.
func setUpWard(dir string, parent icescope.Span) (*setup, error) {
	sc := gatewayConfig(wlWardOpen)
	var err error
	if sc.store, err = icestore.Open(icestore.Config{Dir: dir}); err != nil {
		return nil, err
	}
	first, err := startStack(sc)
	if err != nil {
		return nil, err
	}
	ps := parent.Child("pool")
	reqs := wardPoolRequests()
	pool, err := computeTables(first.sched, reqs)
	ps.End()
	first.close()
	if err != nil {
		return nil, fmt.Errorf("pool: %w", err)
	}
	rs := parent.Child("restart")
	sc.store, err = icestore.Open(icestore.Config{Dir: dir})
	rs.End()
	if err != nil {
		return nil, err
	}
	st, err := startStack(sc)
	if err != nil {
		return nil, err
	}
	s := &setup{st: st, pool: map[string]string{}}
	for i, req := range reqs {
		s.pool[req.Key()] = pool[i]
	}
	base := seedBase(setupSeed, wlWardOpen)
	for j := 0; j < warmJobs; j++ {
		req := xrayRequest(base + warmOffset + int64(j))
		req.Tenant = tenantBedside
		if _, _, err := st.runJob(req); err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

// computeTables runs requests on a scheduler in-process, all admitted at
// once, and returns their tables in request order.
func computeTables(sched *icegate.Scheduler, reqs []icegate.Request) ([]string, error) {
	jobs := make([]*icegate.Job, len(reqs))
	for i, req := range reqs {
		var err error
		if jobs[i], err = sched.Submit(req); err != nil {
			return nil, err
		}
	}
	tables := make([]string, len(reqs))
	for i, j := range jobs {
		<-j.Done()
		t, ok := j.Table()
		if !ok {
			v := j.View()
			return nil, fmt.Errorf("job %s %s: %s", j.ID, v.Status, v.Error)
		}
		tables[i] = t
	}
	return tables, nil
}

// tableHeader is the first line every scenario result starts with.
func tableHeader(req icegate.Request) string {
	return fmt.Sprintf("scenario %s seed=%d cells=%d\n", req.Scenario, req.Seed, req.Cells)
}

// checkRecords checks every result the window served: a 200 with the
// request's header line; a pool repeat answered from the cache with the
// exact bytes computed at set-up; every other request computed. A record
// that fails gets its error set, so no metric counts it.
func checkRecords(recs []record, pool map[string]string) []error {
	var failures []error
	for i := range recs {
		r := &recs[i]
		if r.err == nil {
			switch {
			case !strings.HasPrefix(r.table, tableHeader(r.op.req)):
				r.err = fmt.Errorf("result does not start with %q", tableHeader(r.op.req))
			case r.op.class == classRepeat && !r.cached:
				r.err = fmt.Errorf("pool repeat was not served from the cache")
			case r.op.class == classRepeat && r.table != pool[r.op.req.Key()]:
				r.err = fmt.Errorf("cached table differs from the one computed at set-up")
			case r.op.class != classRepeat && r.cached:
				r.err = fmt.Errorf("unique request was served from the cache")
			}
		}
		if r.err != nil {
			failures = append(failures, fmt.Errorf("request %d (%s): %w", r.op.idx, r.op.req.Key(), r.err))
		}
	}
	return failures
}

// goldenJSON holds, per workload, the SHA-256 digests of the first
// checkOps tables at seed 1.
//
//go:embed testdata/golden.json
var goldenJSON []byte

func digest(table string) string {
	sum := sha256.Sum256([]byte(table))
	return hex.EncodeToString(sum[:])
}

// referenceTables computes the first checkOps requests of a workload on
// a fresh one-worker local scheduler: the reference every served table
// is compared against, whatever backend served it.
func referenceTables(workload string, seed int64) ([]op, []string, error) {
	ops := workloadOps(workload, seed, checkOps)
	sched := icegate.NewScheduler(icegate.Config{QueueDepth: len(ops), Executors: 1, Workers: 1})
	defer sched.Close()
	reqs := make([]icegate.Request, len(ops))
	for i, o := range ops {
		reqs[i] = o.req
	}
	tables, err := computeTables(sched, reqs)
	return ops, tables, err
}

// checkReference replays the first checkOps requests after the window,
// untimed, and compares each reference table with what the window
// served for that request and, at seed 1, with the golden digest.
func checkReference(cfg config, recs []record) (attempted int, failures []error, err error) {
	ops, tables, err := referenceTables(cfg.workload, cfg.seed)
	if err != nil {
		return 0, nil, fmt.Errorf("reference replay: %w", err)
	}
	var golden []string
	if cfg.seed == 1 {
		var g map[string][]string
		if err := json.Unmarshal(goldenJSON, &g); err != nil {
			return 0, nil, fmt.Errorf("testdata/golden.json: %w", err)
		}
		if golden = g[cfg.workload]; len(golden) != checkOps {
			return 0, nil, fmt.Errorf("testdata/golden.json has %d digests for %s, want %d", len(golden), cfg.workload, checkOps)
		}
	}
	served := map[int]string{}
	for _, r := range recs {
		if r.op.idx < checkOps && r.err == nil {
			served[r.op.idx] = r.table
		}
	}
	for i, o := range ops {
		attempted++
		if t, ok := served[o.idx]; ok && t != tables[i] {
			failures = append(failures, fmt.Errorf("request %d (%s): served table differs from the local reference", o.idx, o.req.Key()))
			continue
		}
		if golden != nil && golden[i] != digest(tables[i]) {
			failures = append(failures, fmt.Errorf("request %d (%s): table digest differs from testdata/golden.json", o.idx, o.req.Key()))
		}
	}
	return attempted, failures, nil
}

// firstTable is a table the window served: a workload-sized payload for
// the store replay.
func firstTable(recs []record) string {
	for _, r := range recs {
		if r.err == nil {
			return r.table
		}
	}
	return ""
}

// usage reads the process's CPU time so far and its peak resident set
// (VmHWM) in MB.
func usage() (cpu time.Duration, peakMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0 // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func writeChrome(tr *icescope.Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
