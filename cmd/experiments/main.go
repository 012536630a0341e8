// Command experiments regenerates every measured artifact of the paper's
// evaluation section: Table III (hardware-task-management overheads vs.
// number of guest OSes), Figure 9 (degradation ratios), and the §V-B
// footprint scalars.
//
// Usage:
//
//	go run ./cmd/experiments            # everything
//	go run ./cmd/experiments -table3    # just the table
//	go run ./cmd/experiments -fig9     # just the figure (implies -table3)
//	go run ./cmd/experiments -footprint # just the scalars
//	go run ./cmd/experiments -dualcore  # dual-core offload comparison
//	go run ./cmd/experiments -reconfig  # reconfiguration-pipeline sweep
//	go run ./cmd/experiments -scenario  # multi-VM stress-scenario suite (parallel, checksummed)
//	go run ./cmd/experiments -scenario -shards 4  # same suite, each scenario's cores on 4 host goroutines
//	go run ./cmd/experiments -faults    # just the fault-injection/QoS scenarios
//	go run ./cmd/experiments -faults -fault-seed 99  # same, replaying an alternate fault plan
//	go run ./cmd/experiments -interference  # noisy-neighbor p99 interference probe
//	go run ./cmd/experiments -snapshot  # checkpoint/fork clone sweep: boot-vs-fork cost, COW copy rate
//	go run ./cmd/experiments -table3 -iters 40  # more measured requests per guest
//
// Every number printed here is simulated time. Simulator speed (host
// time per simulated ms, per layer) is measured from outside the program
// by the benchmark in bench/: bash bench/run.sh.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

func main() {
	var (
		table3     = flag.Bool("table3", false, "reproduce Table III")
		fig9       = flag.Bool("fig9", false, "reproduce Figure 9 (runs Table III)")
		footprint  = flag.Bool("footprint", false, "report the Section V-B scalars")
		dualcore   = flag.Bool("dualcore", false, "compare the CPU0-only deployment with the dual-core partitioning")
		reconfig   = flag.Bool("reconfig", false, "run the reconfiguration-pipeline sweep (cache/queue/prefetch)")
		scen       = flag.Bool("scenario", false, "run the multi-VM stress-scenario suite in parallel")
		scenName   = flag.String("scenario-name", "", "run a single named scenario instead of the whole suite")
		scenShort  = flag.Bool("scenario-short", false, "shorten the scenario, interference or snapshot run (CI smoke); alone, implies -scenario")
		scenOut    = flag.String("scenario-out", "", "also write the per-scenario checksum summary to this file")
		traceOn    = flag.Bool("trace", false, "enable kernel event tracing on the scenario runs (checksums are unchanged; implies -scenario)")
		traceOut   = flag.String("trace-out", "", "write each traced scenario's Chrome trace_event JSON here (load in chrome://tracing or Perfetto; with several scenarios the name gains a -<scenario> suffix; implies -trace)")
		faultsOnly = flag.Bool("faults", false, "restrict the scenario run to the fault-injection/QoS scenarios (implies -scenario)")
		faultSeed  = flag.Uint("fault-seed", 0, "override the fault-plan seed of the selected fault scenarios (0 = derive from each scenario's seed; implies -faults)")
		interfere  = flag.Bool("interference", false, "run the noisy-neighbor interference probe: critical-VM p99 under a greedy neighbor vs uncontended baseline")
		snapSweep  = flag.Bool("snapshot", false, "run the checkpoint/fork clone sweep: simulated boot-vs-fork cost and COW copy rate per fleet size")
		interOut   = flag.String("interference-out", "", "write the interference report here (implies -interference)")
		shards     = flag.Int("shards", 0, "spread each scenario's simulated cores over this many host goroutines (0/1 = one goroutine; checksums are identical)")
		iters      = flag.Int("iters", 24, "measured hardware-task requests per guest")
	)
	flag.Parse()
	if *traceOut != "" {
		*traceOn = true
	}
	if *interOut != "" {
		*interfere = true
	}
	if *faultSeed != 0 {
		*faultsOnly = true
	}
	if *scenName != "" || *scenOut != "" || *traceOn || *faultsOnly {
		*scen = true // the sub-flags imply the scenario run
	}
	other := *table3 || *fig9 || *footprint || *dualcore || *reconfig || *interfere || *snapSweep
	if *scenShort && !other {
		*scen = true // alone, -scenario-short is the short scenario run
	}
	all := !other && !*scen

	if *interfere {
		fmt.Printf("running noisy-neighbor interference probe (short=%v)...\n", *scenShort)
		rep := scenario.RunInterference(*scenShort)
		fmt.Println(rep)
		if *interOut != "" {
			if err := os.WriteFile(*interOut, []byte(rep.String()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "writing %s: %v\n", *interOut, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *interOut)
		}
		if !rep.Bounded() {
			fmt.Fprintln(os.Stderr, "interference bound violated")
			os.Exit(1)
		}
	}

	if *snapSweep {
		fmt.Printf("running checkpoint/fork clone sweep (short=%v)...\n", *scenShort)
		fmt.Printf("%-18s %7s %12s %12s %10s %11s %9s\n",
			"scenario", "clones", "boot_ms", "fork_ms", "fork/boot", "copy_rate", "pool_hit")
		for _, r := range scenario.MeasureSnapshotForks(*scenShort) {
			// fork/boot is what the fleet cost for one template boot; the
			// copy rate is the share of clone-mapped frames privatized by
			// COW breaks; the hit ratio is shelf hits over all acquires.
			boot, fork := r.BootCycles.Millis(), r.ForkCycles.Millis()
			var forkOverBoot, copyRate, hitRatio float64
			if boot > 0 {
				forkOverBoot = fork / boot
			}
			if mapped := r.FramesCopied + r.FramesShared; mapped > 0 {
				copyRate = float64(r.FramesCopied) / float64(mapped)
			}
			if acq := r.PoolHits + r.PoolMisses; acq > 0 {
				hitRatio = float64(r.PoolHits) / float64(acq)
			}
			fmt.Printf("%-18s %7d %12.3f %12.3f %9.2fx %10.1f%% %8.0f%%\n",
				r.Name, r.CloneCount, boot, fork, forkOverBoot, copyRate*100, hitRatio*100)
		}
		fmt.Println()
	}

	if *scen {
		specs := scenario.Suite(*scenShort)
		if *scenName != "" {
			spec, ok := scenario.FindSpec(*scenName, *scenShort)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown scenario %q; known:\n", *scenName)
				for _, s := range specs {
					fmt.Fprintf(os.Stderr, "  %-20s %s\n", s.Name, s.About)
				}
				os.Exit(1)
			}
			specs = []scenario.Spec{spec}
		}
		if *faultsOnly {
			kept := specs[:0]
			for _, s := range specs {
				if s.Faults.Enabled() || s.QoS {
					kept = append(kept, s)
				}
			}
			specs = kept
			if len(specs) == 0 {
				fmt.Fprintln(os.Stderr, "no fault/QoS scenarios selected")
				os.Exit(1)
			}
		}
		for i := range specs {
			specs[i].Shards = *shards
			specs[i].Trace = *traceOn
			if *faultSeed != 0 && specs[i].Faults.Enabled() {
				specs[i].Faults.Seed = uint32(*faultSeed)
			}
		}
		fmt.Printf("running %d stress scenarios in parallel (short=%v, shards=%d, trace=%v)...\n",
			len(specs), *scenShort, *shards, *traceOn)
		results := scenario.RunSuite(specs)
		table := scenario.SummaryTable(results)
		fmt.Println(table)
		if *scenOut != "" {
			if err := os.WriteFile(*scenOut, []byte(table), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "writing %s: %v\n", *scenOut, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *scenOut)
		}
		if *traceOut != "" {
			for _, r := range results {
				if r.Trace == nil {
					continue
				}
				path := *traceOut
				if len(results) > 1 {
					ext := filepath.Ext(path)
					path = strings.TrimSuffix(path, ext) + "-" + r.Name + ext
				}
				raw, err := r.Trace.ChromeJSON()
				if err != nil {
					fmt.Fprintf(os.Stderr, "exporting %s trace: %v\n", r.Name, err)
					os.Exit(1)
				}
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
					os.Exit(1)
				}
				fmt.Printf("wrote %s (%d events, %d dropped)\n", path, r.TraceEvents, r.TraceDrops)
			}
		}
	}

	cfg := experiments.DefaultConfig()
	cfg.Iterations = *iters

	if all || *footprint {
		root, _ := os.Getwd()
		fmt.Println(experiments.CollectFootprint(root))
	}
	if all || *reconfig {
		rcfg := experiments.DefaultReconfigConfig()
		fmt.Printf("running reconfiguration-pipeline sweep (%d guests, %d cores)...\n",
			rcfg.Guests, rcfg.Cores)
		rep := experiments.RunReconfigSweep(rcfg)
		fmt.Println(rep)
		rchecks := rep.Check()
		fmt.Printf("reconfig checks: %+v\n  all hold: %v\n\n", rchecks, rchecks.AllHold())
	}
	if all || *dualcore {
		dcfg := cfg
		dcfg.Guests = 2
		fmt.Printf("running dual-core offload comparison (2 guests, service on core 1)...\n")
		d := experiments.RunDualCore(dcfg)
		fmt.Println(d)
		dchecks := d.Check()
		fmt.Printf("dual-core checks: %+v\n  all hold: %v\n\n", dchecks, dchecks.AllHold())
	}
	if all || *table3 || *fig9 {
		fmt.Printf("running Table III sweep (native + 1..%d guests, %d requests each)...\n",
			cfg.Guests, cfg.Iterations*cfg.Guests)
		tab := experiments.RunTable3(cfg)
		fmt.Println(tab)
		checks := tab.Check()
		fmt.Printf("shape checks: %+v\n  all hold: %v\n\n", checks, checks.AllHold())
		if all || *fig9 {
			f := experiments.Figure9(tab)
			fmt.Println(f)
			fmt.Printf("plotted efficiency (t_native/t_virt): ")
			for _, e := range f.Efficiency() {
				fmt.Printf("%.3f ", e)
			}
			fmt.Printf("\nslope decreasing (saturating overhead): %v\n", f.SlopeDecreasing())
		}
	}
}
