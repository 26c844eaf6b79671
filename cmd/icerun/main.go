// Command icerun regenerates the experiment tables indexed in DESIGN.md
// (the benchmark harness in human-readable form).
//
// Usage:
//
//	icerun [-exp F1,E2,...|all] [-seed N] [-cells N] [-workers N] [-remote addr]
//	       [-tenant name] [-tracefile path]
//
// -cells and -workers drive the fleet runner: F1 runs that many
// independent patient sessions per configuration, and the sweep-shaped
// experiments (E6, E7) spread their cells across the worker pool. With
// the defaults (1 cell, 1 worker) every table is bit-identical to the
// historical serial harness.
//
// -remote renders the same tables from a running icegated gateway
// instead of simulating locally: each experiment is submitted as a
// table job and the server's rendering is printed verbatim. The fleet's
// determinism contract makes remote and local output byte-identical
// (repeat submissions are served from the gateway's result cache).
// Worker-pool width is a server-side deployment knob, so -workers is
// ignored in remote mode.
//
// -tracefile records an icescope span trace of the run and writes it
// after the tables: one trace spanning every experiment locally, or the
// gateway's per-job traces in remote mode (jobs are submitted with
// "trace": true and the trace fetched from /jobs/{id}/trace). A .json
// suffix selects Chrome trace-event format — load it in Perfetto — and
// anything else the indented text tree. Tracing never changes the
// tables: results are byte-identical with it on or off.
//
// -follow streams the run's span events to stderr as they happen: in
// remote mode it consumes the gateway's live NDJSON events endpoint
// (/jobs/{id}/events), so a long mesh job narrates its shard and cell
// progress — including spans forwarded from worker nodes — while the
// table is still computing; locally it follows the in-process trace's
// log. Tables on stdout stay byte-identical with -follow on or off.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/icegate"
	"repro/internal/icemesh"
	"repro/internal/icescope"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main in testable form: flag handling, experiment selection, and
// table rendering against the injected writers. Returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("icerun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	expFlag := fs.String("exp", "all", "comma-separated experiment IDs (F1,E2,...,E12) or 'all'")
	seed := fs.Int64("seed", 1, "base simulation seed")
	cells := fs.Int("cells", 1, "trials per configuration for ensemble experiments (currently F1 only; sweep experiments run one cell per sweep point)")
	workers := fs.Int("workers", 1, "fleet worker pool width for parallel cell execution (F1, E6, E7); local mode only")
	remote := fs.String("remote", "", "icegated gateway address (host:port or URL); render tables from the server instead of running locally")
	tenant := fs.String("tenant", "", "tenant identity for -remote submissions (gateway quota accounting and fair scheduling); empty = the gateway's anonymous default")
	traceFile := fs.String("tracefile", "", "write an icescope trace of the run (.json = Chrome trace-event format, else text tree)")
	follow := fs.Bool("follow", false, "stream live span events to stderr while experiments run (remote mode follows the gateway's /events NDJSON stream)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: icerun [flags]\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "experiments: %s\n", strings.Join(experiments.IDs(), ","))
		fmt.Fprintf(stderr, "fleet scenarios (servable via icegated): %s\n", strings.Join(fleet.Names(), ","))
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ids, err := selectExperiments(*expFlag)
	if err != nil {
		fmt.Fprintf(stderr, "icerun: %v\n", err)
		return 2
	}

	chrome := strings.HasSuffix(*traceFile, ".json")
	if *traceFile != "" && *remote != "" && chrome && len(ids) > 1 {
		// Each remote job has its own trace; text trees concatenate, one
		// Chrome JSON document per file does not.
		fmt.Fprintln(stderr, "icerun: -tracefile *.json with -remote needs a single -exp (one job per Chrome trace)")
		return 2
	}

	// Local tracing hangs every experiment off one process-wide root span,
	// so a single file attributes the whole run. -follow piggybacks on the
	// same trace, so it arms one even without -tracefile.
	var tr *icescope.Trace
	var root icescope.Span
	var followDone chan struct{}
	opt := experiments.Options{Seed: *seed, Cells: *cells, Fleet: fleet.Runner{Workers: *workers}}
	if (*traceFile != "" || *follow) && *remote == "" {
		tr = icescope.NewTrace("icerun")
		root = tr.Start(icescope.Span{}, "icerun")
		opt.Fleet.Span = root
		if *follow {
			followDone = make(chan struct{})
			go func() {
				defer close(followDone)
				for i := 0; ; {
					evs, wait, closed := tr.EventsFrom(i)
					for _, ev := range evs {
						fmt.Fprintf(stderr, "follow: %s\n", fmtEvent(ev.Kind.String(), ev.Name,
							float64(ev.Start)/float64(time.Microsecond), float64(ev.End)/float64(time.Microsecond)))
					}
					i += len(evs)
					if closed {
						return
					}
					if wait != nil {
						<-wait
					}
				}
			}()
		}
	}

	var remoteTraces []string
	for i, id := range ids {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		var rendered string
		if *remote != "" {
			var trace string
			rendered, trace, err = fetchRemoteTable(*remote, id, opt, *tenant, *traceFile != "", chrome, *follow, stderr)
			if trace != "" {
				remoteTraces = append(remoteTraces, trace)
			}
		} else {
			var tab experiments.Table
			tab, err = experiments.Run(id, opt)
			rendered = tab.String()
		}
		if err != nil {
			fmt.Fprintf(stderr, "icerun: %s: %v\n", id, err)
			return 1
		}
		fmt.Fprint(stdout, rendered)
	}

	if tr != nil {
		root.End()
		tr.Close()
		if followDone != nil {
			<-followDone
		}
	}
	if *traceFile != "" {
		if err := writeTraceFile(*traceFile, chrome, tr, remoteTraces); err != nil {
			fmt.Fprintf(stderr, "icerun: tracefile: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "icerun: trace written to %s\n", *traceFile)
	}
	return 0
}

// fmtEvent renders one span event for the -follow stream: offset from
// the trace epoch, the event kind, the span name, and (for ends) the
// span's duration.
func fmtEvent(kind, name string, startUS, endUS float64) string {
	if kind == "end" || (kind == "instant" && endUS > startUS) {
		return fmt.Sprintf("[%10.3fms] %-7s %s (%.3fms)", startUS/1000, kind, name, (endUS-startUS)/1000)
	}
	return fmt.Sprintf("[%10.3fms] %-7s %s", startUS/1000, kind, name)
}

// streamClient serves the -follow NDJSON stream: deliberately no
// timeout — the stream lives as long as the job runs.
var streamClient = &http.Client{}

// followRemote consumes one job's live events endpoint and renders each
// line to stderr until the terminal line (or stream error). Returns a
// channel closed when the stream ends, so the caller can let the
// narration finish before starting the next experiment's.
func followRemote(base, id, tenant string, stderr io.Writer) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, err := http.NewRequest(http.MethodGet, base+"/api/v1/jobs/"+id+"/events", nil)
		if err != nil {
			fmt.Fprintf(stderr, "icerun: follow %s: %v\n", id, err)
			return
		}
		if tenant != "" {
			req.Header.Set(icegate.TenantHeader, tenant)
		}
		resp, err := streamClient.Do(req)
		if err != nil {
			fmt.Fprintf(stderr, "icerun: follow %s: %v\n", id, err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			fmt.Fprintf(stderr, "icerun: follow %s: %s: %s\n", id, resp.Status, strings.TrimSpace(string(body)))
			return
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			var ev icegate.EventLine
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				continue
			}
			if ev.Done {
				fmt.Fprintf(stderr, "follow %s: %s (events dropped: %d)\n", id, ev.Status, ev.Dropped)
				return
			}
			fmt.Fprintf(stderr, "follow %s: %s\n", id, fmtEvent(ev.Kind, ev.Name, ev.StartUS, ev.EndUS))
		}
	}()
	return done
}

// writeTraceFile dumps either the local trace or the collected remote
// per-job traces to path in the format the extension picked.
func writeTraceFile(path string, chrome bool, tr *icescope.Trace, remoteTraces []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if tr != nil {
		if chrome {
			return tr.WriteChrome(f)
		}
		return tr.WriteText(f)
	}
	for i, t := range remoteTraces {
		if i > 0 && !chrome {
			if _, err := io.WriteString(f, "\n"); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(f, t); err != nil {
			return err
		}
	}
	return nil
}

// selectExperiments resolves the -exp flag against the catalog: "all"
// expands to the canonical order, anything else is a comma-separated ID
// list validated (case-insensitively) against the catalog.
func selectExperiments(expFlag string) ([]string, error) {
	if expFlag == "all" {
		return experiments.IDs(), nil
	}
	var ids []string
	for _, id := range strings.Split(expFlag, ",") {
		id = strings.TrimSpace(strings.ToUpper(id))
		if !experiments.Has(id) {
			return nil, fmt.Errorf("unknown experiment %q (have %s)", id, strings.Join(experiments.IDs(), ","))
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// remoteClient is the one HTTP client every remote call shares, so the
// submission, the status polls, and the result fetch ride a reused
// keep-alive connection instead of the historical one-shot http.Get's.
var remoteClient = &http.Client{Timeout: 30 * time.Second}

// remoteBackoff is the retry policy for transient gateway failures: the
// mesh's shared exponential backoff + jitter, the same policy icenode
// uses to re-dial a restarted coordinator. It is the FALLBACK pause — a
// 429 carrying Retry-After uses the server's number instead, because the
// gateway computes it from the tenant's actual backlog.
var remoteBackoff = icemesh.Backoff{Base: 200 * time.Millisecond, Max: 3 * time.Second}

const remoteAttempts = 5

// sleepFn pauses between retry attempts; a variable so tests can pin the
// exact delays chosen without waiting them out.
var sleepFn = time.Sleep

// parseRetryAfter interprets a Retry-After header, which HTTP allows in
// two shapes: delay-seconds ("7") or an HTTP-date. Returns false when
// the header is absent or unparseable (callers fall back to backoff).
func parseRetryAfter(h string, now time.Time) (time.Duration, bool) {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if when, err := http.ParseTime(h); err == nil {
		d := when.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// remoteJSON performs one request with retry on transport errors, 429s,
// and 5xx responses; anything else is the gateway's final answer and is
// returned without retrying. A 429's Retry-After header, when parseable,
// replaces the generic backoff delay — the server knows how long the
// tenant's quota will stay exhausted; guessing shorter just burns the
// remaining attempts. A nil out skips body decoding and returns the raw
// body instead. tenant, when non-empty, rides every request as the
// gateway's tenant header.
func remoteJSON(method, url, tenant string, reqBody []byte, out any) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < remoteAttempts; attempt++ {
		var body io.Reader
		if reqBody != nil {
			body = bytes.NewReader(reqBody)
		}
		req, err := http.NewRequest(method, url, body)
		if err != nil {
			return nil, err
		}
		if reqBody != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if tenant != "" {
			req.Header.Set(icegate.TenantHeader, tenant)
		}

		raw, retryIn, err := attemptRemote(req, attempt)
		if err == nil {
			if out != nil {
				if err := json.Unmarshal(raw, out); err != nil {
					return raw, err
				}
			}
			return raw, nil
		}
		lastErr = err
		if retryIn < 0 || attempt == remoteAttempts-1 {
			break // permanent, or out of attempts
		}
		sleepFn(retryIn)
	}
	return nil, lastErr
}

// attemptRemote executes one attempt and classifies the outcome: on
// failure, retryIn is the pause before the next try (the server's
// Retry-After on a 429 when present, the shared jittered backoff
// otherwise) or negative when the failure is permanent.
func attemptRemote(req *http.Request, attempt int) (raw []byte, retryIn time.Duration, err error) {
	resp, err := remoteClient.Do(req)
	if err != nil {
		return nil, remoteBackoff.Delay(attempt), err // transport error: retry
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, remoteBackoff.Delay(attempt), err
	}
	if resp.StatusCode < 300 {
		return data, 0, nil
	}
	err = fmt.Errorf("gateway %s (%s): %s", req.URL, resp.Status, strings.TrimSpace(string(data)))
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		if d, ok := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok {
			return nil, d, err
		}
		return nil, remoteBackoff.Delay(attempt), err
	case resp.StatusCode >= 500:
		return nil, remoteBackoff.Delay(attempt), err
	}
	return nil, -1, err // client error: the gateway's final answer
}

// fetchRemoteTable submits one experiment-table job to an icegated
// gateway, waits for it, and returns the server-rendered table. The
// request and status shapes are icegate's own wire types, so client and
// server schemas stay coupled by the compiler. Submissions are retried
// on transient failures — duplicates are harmless because the gateway's
// deterministic cache converges them on the same table.
//
// With wantTrace the job is submitted with "trace": true and the
// server-side span trace is fetched once the job is terminal (chrome
// picks the Perfetto-loadable JSON format over the text tree). follow
// additionally streams the job's live events to stderr while polling —
// it implies a traced submission, but not a trace fetch.
func fetchRemoteTable(addr, id string, opt experiments.Options, tenant string, wantTrace, chrome, follow bool, stderr io.Writer) (string, string, error) {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimSuffix(base, "/")

	body, _ := json.Marshal(icegate.Request{Exp: id, Seed: opt.Seed, Cells: opt.Cells, Trace: wantTrace || follow})
	var view icegate.View
	if _, err := remoteJSON(http.MethodPost, base+"/api/v1/jobs", tenant, body, &view); err != nil {
		return "", "", err
	}
	if follow {
		// The stream closes itself at the job's terminal line; wait for it
		// so experiment narrations don't interleave.
		defer func(ch <-chan struct{}) { <-ch }(followRemote(base, view.ID, tenant, stderr))
	}

	// Poll until the job leaves the queue/runner, then fetch the table.
	for !view.Status.Terminal() {
		time.Sleep(100 * time.Millisecond)
		if _, err := remoteJSON(http.MethodGet, base+"/api/v1/jobs/"+view.ID, tenant, nil, &view); err != nil {
			return "", "", err
		}
	}
	if view.Status != icegate.StatusDone {
		return "", "", fmt.Errorf("remote job %s %s: %s", view.ID, view.Status, view.Error)
	}

	table, err := remoteJSON(http.MethodGet, base+"/api/v1/jobs/"+view.ID+"/result", tenant, nil, nil)
	if err != nil {
		return "", "", err
	}
	var trace []byte
	if wantTrace {
		url := base + "/api/v1/jobs/" + view.ID + "/trace"
		if chrome {
			url += "?format=chrome"
		}
		if trace, err = remoteJSON(http.MethodGet, url, tenant, nil, nil); err != nil {
			return "", "", err
		}
	}
	return string(table), string(trace), nil
}
