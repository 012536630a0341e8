// Command bench is the simulator's benchmark. It builds and runs seeded
// workloads through the simulator's public API and times them from here,
// never from timers inside the program under test. It checks every
// run's simulated state against the other reps, the parallel engine and
// the pinned digests, and prints every metric by name and unit.
//
//	bash bench/run.sh --workload table3_4vm --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --seed 1 --out bench/out      # all workloads, round-robin
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. It exits 1 when any check failed and 2
// on bad arguments.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// goldenPath is where --update writes, relative to the repository root
// the benchmark runs from.
var goldenPath = filepath.Join("bench", "testdata", "golden.json")

func main() {
	var (
		names   = flag.String("workload", "all", "workload name, comma-separated names, or all")
		seed    = flag.Uint("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 0, "keep running timed rounds until this many seconds have passed (at least 5 rounds)")
		traced  = flag.Int("trace", 1, "1 adds the profiled round and reports per-layer metrics; 0 reports end-to-end metrics")
		out     = flag.String("out", "", "directory for result.json and <workload>.pprof (empty: write nothing)")
		update  = flag.Bool("update", false, "rewrite "+goldenPath+" from seed-1 runs of the selected workloads at both horizons, and exit")
	)
	flag.Parse()
	ws, err := selectWorkloads(*names)
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, not %d", *traced)
	}
	if err == nil && *seed > 1<<32-1 {
		err = fmt.Errorf("--seed %d does not fit 32 bits", *seed)
	}
	if err == nil && flag.NArg() > 0 {
		err = fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *update {
		if err := updateGolden(goldenPath, ws); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	cfg := config{
		seed:    uint32(*seed),
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traced == 1,
	}
	res := runBench(ws, cfg)
	for _, r := range res {
		for _, p := range r.problems {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", r.w.name, p)
		}
	}
	report(os.Stdout, res, cfg.trace)
	if *out != "" {
		if err := writeOut(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	for _, r := range res {
		if r.failed > 0 {
			os.Exit(1)
		}
	}
}

func selectWorkloads(arg string) ([]workload, error) {
	if arg == "all" {
		return workloads, nil
	}
	var ws []workload
	for _, name := range strings.Split(arg, ",") {
		w, ok := findWorkload(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		ws = append(ws, w)
	}
	return ws, nil
}
