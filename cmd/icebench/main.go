// Command icebench is the repository's benchmark: a single-process load
// generator that starts the serving stack in-process — the icegate
// scheduler behind its HTTP API on loopback, over an icemesh cluster
// where the workload needs one — drives one workload through the API,
// checks every output, and prints its metrics with their units. The last
// line of output is the verdict as JSON:
//
//	{"correct": true, "attempted": 1012, "failed": 0, "metrics": {"jobs_per_s": {"value": 33.7, "unit": "1/s"}, ...}}
//
// Usage (from cmd/icebench, or through run.sh from the repository root):
//
//	go run . -workload pca-local|icu-mesh|ward-open -seed N [-seconds S] [-trace 0|1] [-out f.json]
//
// -trace 0 reports the end-to-end metrics of an untraced run; -trace 1
// reports the per-layer metrics, measured from outside each layer, and
// writes the benchmark's own spans as a Chrome trace. The exit status is
// 1 if any output was wrong or the run could not complete, 2 on bad
// flags. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"time"
)

func main() {
	cfg := config{setups: 5}
	var seconds float64
	var trace int
	var out string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: pca-local, icu-mesh or ward-open")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the requests are generated from")
	flag.Float64Var(&seconds, "seconds", 30, "length of the measured window, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics and writes a Chrome trace; 0 reports end-to-end metrics")
	flag.StringVar(&cfg.workDir, "workdir", ".bench_build/icebench-work", "directory for the result store and the Chrome trace")
	flag.StringVar(&out, "out", "", "also write the JSON verdict to this file")
	flag.Parse()
	if !slices.Contains(workloadNames, cfg.workload) || seconds <= 0 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "icebench: need -workload %v, -seconds > 0 and -trace 0 or 1\n", workloadNames)
		flag.Usage()
		os.Exit(2)
	}
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1

	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "icebench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-40s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "icebench:", err)
		os.Exit(1)
	}
	if out != "" {
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "icebench:", err)
			os.Exit(1)
		}
	}
	fmt.Println(string(data))
	if !res.Correct {
		os.Exit(1)
	}
}
