// Benchmarks regenerating the paper's evaluation artifacts (Table III and
// Figure 9) plus ablations of the design choices DESIGN.md calls out.
// Reported custom metrics are simulated microseconds (the reproduction's
// measurements); ns/op is host time and only reflects simulator speed.
//
//	go test -bench=. -benchmem
package main

import (
	"fmt"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/experiments"
	"repro/internal/gic"
	"repro/internal/hwtask"
	"repro/internal/measure"
	"repro/internal/nova"
	"repro/internal/physmem"
	"repro/internal/pl"
	"repro/internal/reconfig"
	"repro/internal/scenario"
	"repro/internal/simclock"
	"repro/internal/ucos"
)

// benchConfig is sized so one bench iteration stays in the seconds range.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Iterations = 8
	cfg.Warmup = 3
	return cfg
}

// BenchmarkTable3Native measures the baseline row of Table III.
func BenchmarkTable3Native(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row := experiments.RunTable3Native(benchConfig())
		b.ReportMetric(row.Exec, "exec_us")
		b.ReportMetric(row.Total(), "total_us")
	}
}

// BenchmarkTable3Virt measures the virtualized rows (sub-benchmark per
// guest count), regenerating the µs columns of Table III.
func BenchmarkTable3Virt(b *testing.B) {
	for _, n := range []int{1, 2, 3, 4} {
		b.Run(map[int]string{1: "1VM", 2: "2VM", 3: "3VM", 4: "4VM"}[n], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				row := experiments.RunTable3Row(benchConfig(), n)
				b.ReportMetric(row.Entry, "entry_us")
				b.ReportMetric(row.Exit, "exit_us")
				b.ReportMetric(row.IRQEntry, "plirq_us")
				b.ReportMetric(row.Exec, "exec_us")
				b.ReportMetric(row.Total(), "total_us")
			}
		})
	}
}

// BenchmarkFig9 regenerates the degradation-ratio series (Figure 9):
// the reported metrics are the Total ratio at 1 and 4 VMs and the plotted
// efficiency at 4 VMs.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.RunTable3(benchConfig())
		f := experiments.Figure9(tab)
		b.ReportMetric(f.Total[0], "ratio_1vm")
		b.ReportMetric(f.Total[len(f.Total)-1], "ratio_4vm")
		b.ReportMetric(f.Efficiency()[len(f.Total)-1], "efficiency_4vm")
	}
}

// BenchmarkDualCoreOffload compares the paper's CPU0-only deployment with
// the dual-core Zynq partitioning — guests on core 0, the Hardware Task
// Manager service pinned on core 1, requests crossing cores by SGI. The
// reported metrics show the request path shortening (no world switch on
// the guests' core) and the per-core load split.
func BenchmarkDualCoreOffload(b *testing.B) {
	for _, cores := range []int{1, 2} {
		b.Run(map[int]string{1: "1core", 2: "2core"}[cores], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.Guests = 2
				rep := experiments.RunDualCoreRow(cfg, cores)
				b.ReportMetric(rep.Entry, "entry_us")
				b.ReportMetric(rep.Total, "total_us")
				b.ReportMetric(float64(rep.VMSwitches), "vm_switches")
				if cores == 2 {
					b.ReportMetric(rep.PerCore[0].Utilization*100, "cpu0_util_pct")
					b.ReportMetric(rep.PerCore[1].Utilization*100, "cpu1_util_pct")
					b.ReportMetric(float64(rep.SGIsSent), "sgis")
				}
			}
		})
	}
}

// BenchmarkReconfigColdVsWarm measures one managed reconfiguration
// through the pipeline at device level: the cold path pays the SD-card
// staging read plus the PCAP download, the warm path finds the bitstream
// image in the cache and pays the download alone. The reported
// reconfig_us metrics are the acceptance evidence that the cache makes
// repeat reconfigurations measurably cheaper.
func BenchmarkReconfigColdVsWarm(b *testing.B) {
	run := func(b *testing.B, warm bool) {
		for i := 0; i < b.N; i++ {
			clock := simclock.New()
			bus := physmem.NewBus()
			g := gic.New()
			caps := []bitstream.Resources{{LUTs: 10000, BRAM: 32, DSP: 48}}
			fab := pl.NewFabric(clock, bus, g, caps)
			raw := bitstream.Synthesize(1, 0, bitstream.Resources{LUTs: 100}, 150<<10).Encode()
			storePA := physmem.Addr(physmem.DDRBase + 0xA0_0000)
			if err := bus.WriteBytes(storePA, raw); err != nil {
				b.Fatal(err)
			}
			pipe := reconfig.New(clock, fab, bus, storePA, reconfig.DefaultConfig())
			submit := func() simclock.Cycles {
				t0 := clock.Now()
				pipe.Submit(&reconfig.Request{
					SrcOff: 0, Len: uint32(len(raw)), Target: 0, Priority: 1,
				})
				clock.RunUntilIdle(100)
				return clock.Now() - t0
			}
			d := submit() // cold: SD fetch + PCAP
			if warm {
				d = submit() // warm: cached image, PCAP only
			}
			b.ReportMetric(d.Micros(), "reconfig_us")
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, false) })
	b.Run("warm", func(b *testing.B) { run(b, true) })
}

// BenchmarkReconfigSweep runs the full dual-core sharing workload through
// the pipeline and reports the system-level distributions: cold/warm p50,
// cache hit ratio, and the queue pressure that replaced busy-rejection.
func BenchmarkReconfigSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultReconfigConfig()
		cfg.Iterations = 10
		rep := experiments.RunReconfigSweep(cfg)
		b.ReportMetric(rep.Cold.P50, "cold_p50_us")
		b.ReportMetric(rep.Warm.P50, "warm_p50_us")
		b.ReportMetric(rep.HitRatio, "hit_ratio")
		b.ReportMetric(float64(rep.Queued), "queued_starts")
		b.ReportMetric(float64(rep.Queue.MaxDepth), "queue_max_depth")
	}
}

// --- Ablations -----------------------------------------------------------

// switchHeavySystem builds a 2-VM system that world-switches frequently.
func switchHeavySystem(b *testing.B, mutate func(*nova.Kernel)) *measure.Set {
	b.Helper()
	cfg := benchConfig()
	cfg.Guests = 2
	sys := experiments.BuildVirtSystem(cfg)
	if mutate != nil {
		mutate(sys.Kernel)
	}
	defer sys.Kernel.Shutdown()
	sys.Kernel.RunFor(simclock.FromMillis(400))
	return sys.Kernel.Probes
}

// BenchmarkAblationVFP compares the lazy VFP policy of Table I against
// eager save/restore on every switch.
func BenchmarkAblationVFP(b *testing.B) {
	b.Run("lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := switchHeavySystem(b, nil)
			b.ReportMetric(p.Get(measure.PhaseVMSwitch).MeanMicros(), "switch_us")
		}
	})
	b.Run("eager", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := switchHeavySystem(b, func(k *nova.Kernel) { k.EagerVFP = true })
			b.ReportMetric(p.Get(measure.PhaseVMSwitch).MeanMicros(), "switch_us")
		}
	})
}

// BenchmarkAblationASID compares ASID-tagged TLB management (§III-C)
// against a full TLB flush on every world switch.
func BenchmarkAblationASID(b *testing.B) {
	b.Run("asid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := switchHeavySystem(b, nil)
			b.ReportMetric(p.Get(measure.PhaseMgrExec).MeanMicros(), "exec_us")
			b.ReportMetric(p.Get(measure.PhaseMgrEntry).MeanMicros(), "entry_us")
		}
	})
	b.Run("flush-on-switch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := switchHeavySystem(b, func(k *nova.Kernel) { k.FlushTLBOnSwitch = true })
			b.ReportMetric(p.Get(measure.PhaseMgrExec).MeanMicros(), "exec_us")
			b.ReportMetric(p.Get(measure.PhaseMgrEntry).MeanMicros(), "entry_us")
		}
	})
}

// BenchmarkAblationHwMMU quantifies the hwMMU's cost (spoiler: the window
// check is two comparisons on the DMA path — the security is nearly free)
// and demonstrates what it blocks: the reported violations metric counts
// escape attempts, which with the unit disabled would have silently
// corrupted other VMs' memory.
func BenchmarkAblationHwMMU(b *testing.B) {
	run := func(b *testing.B, disabled bool) {
		for i := 0; i < b.N; i++ {
			cfg := benchConfig()
			cfg.Guests = 2
			sys := experiments.BuildVirtSystem(cfg)
			sys.Kernel.Fabric.HwMMU.Disabled = disabled
			sys.Kernel.RunFor(simclock.FromMillis(400))
			b.ReportMetric(sys.Kernel.Probes.Get(measure.PhaseMgrExec).MeanMicros(), "exec_us")
			b.ReportMetric(float64(sys.Kernel.Fabric.HwMMU.Violations.Load()), "violations")
			sys.Kernel.Shutdown()
		}
	}
	b.Run("enforcing", func(b *testing.B) { run(b, false) })
	b.Run("disabled", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationPCAPPoll compares the two §IV-E completion methods for
// a guest using a hardware task: completion IRQ vs status polling.
func BenchmarkAblationPCAPPoll(b *testing.B) {
	run := func(b *testing.B, polled bool) {
		for i := 0; i < b.N; i++ {
			nm := ucos.NewNativeMachine(experiments.PaperCores())
			os := ucos.NewOS("bench", nm)
			var total simclock.Cycles
			runs := 0
			os.TaskCreate("driver", 8, func(t *ucos.Task) {
				t.OS.M.SetupDataSection(64 << 10)
				h, _ := t.AcquireHw(hwtask.TaskQAM16)
				if h == nil {
					return
				}
				for j := 0; j < 20; j++ {
					start := t.OS.M.Now()
					var ok bool
					if polled {
						ok = h.RunPolled(t, 0x1000, 0x9000, 48, 16)
					} else {
						ok = h.Run(t, 0x1000, 0x9000, 48, 16, 100)
					}
					if ok {
						total += t.OS.M.Now() - start
						runs++
					}
				}
				t.OS.Stop()
			})
			os.Deadline = nm.Now() + simclock.FromMillis(200)
			os.Run()
			os.Shutdown()
			if runs > 0 {
				b.ReportMetric(total.Micros()/float64(runs), "taskrun_us")
			}
		}
	}
	b.Run("irq", func(b *testing.B) { run(b, false) })
	b.Run("polled", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationManagerPriority tests §IV-E's design choice of running
// the Hardware Task Manager above the guests: with the service demoted to
// guest priority it must wait for the round-robin, inflating the request
// path ("HW Manager entry") by orders of magnitude.
func BenchmarkAblationManagerPriority(b *testing.B) {
	run := func(b *testing.B, demote bool) {
		for i := 0; i < b.N; i++ {
			cfg := benchConfig()
			cfg.Guests = 2
			cfg.Iterations = 4
			sys := experiments.BuildVirtSystem(cfg)
			if demote {
				svc := sys.Kernel.PDs[0] // the service is created first
				svc.Priority = nova.PrioGuest
			}
			probes := sys.RunToCompletion(simclock.FromMillis(3000))
			b.ReportMetric(probes.Get(measure.PhaseMgrEntry).MeanMicros(), "entry_us")
			sys.Kernel.Shutdown()
		}
	}
	b.Run("service-prio", func(b *testing.B) { run(b, false) })
	b.Run("guest-prio", func(b *testing.B) { run(b, true) })
}

// BenchmarkSimulatorThroughput reports raw model speed: simulated cycles
// per host second for a 2-VM system (useful when sizing experiments).
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.Guests = 2
		sys := experiments.BuildVirtSystem(cfg)
		sys.Kernel.RunFor(simclock.FromMillis(100))
		b.ReportMetric(float64(sys.Kernel.CPU.Stats().Instructions), "sim_instructions")
		sys.Kernel.Shutdown()
	}
}

// BenchmarkParallelScenario measures the epoch-barrier parallel engine on
// the multi-core benchmark scenarios: the "seq" sub-benchmark is the
// sequential reference loop, each "shardsN" sub-benchmark the same spec
// on N host goroutines. The simulated result is byte-identical across all
// of them (scenario.TestParallelInSystemMatchesSequential); ns/op is the
// wall-clock story, and only spreads on a multi-core host.
func BenchmarkParallelScenario(b *testing.B) {
	// oversubscribed-8vm core-scaled to four unaffined cores, and
	// dual-core-spread as shipped: both keep every VM floating so the
	// load actually spreads.
	over, okOver := scenario.FindSpec("oversubscribed-8vm", testing.Short())
	dual, okDual := scenario.FindSpec("dual-core-spread", testing.Short())
	if !okOver || !okDual {
		b.Fatal("parallel benchmark specs missing from the suite")
	}
	over.Name = "oversubscribed-8vm-4core"
	over.Cores = 4
	for _, spec := range []scenario.Spec{over, dual} {
		for _, shards := range []int{0, 1, 2, 4} {
			name := spec.Name + "/seq"
			if shards > 0 {
				name = fmt.Sprintf("%s/shards%d", spec.Name, shards)
			}
			s := spec
			s.Shards = shards
			b.Run(name, func(b *testing.B) {
				var sum uint64
				for i := 0; i < b.N; i++ {
					r := scenario.Build(s).Run()
					if sum == 0 {
						sum = r.Checksum
					} else if r.Checksum != sum {
						b.Fatalf("checksum diverged across runs: %016x vs %016x", r.Checksum, sum)
					}
					b.ReportMetric(r.SimMs, "sim_ms")
				}
			})
		}
	}
}

// BenchmarkSimThroughput measures the batched memory-path engine against
// the scalar reference path on the Table III 4-VM configuration: ns/op is
// the host time of one build-and-run. The two paths produce bit-identical
// simulated results (see cpu.TestBatchedScalarEquivalence); this benchmark
// is the wall-clock half of that story. The end-to-end simulator-speed
// benchmark is bench/ (bash bench/run.sh).
func BenchmarkSimThroughput(b *testing.B) {
	simMs := 100.0
	if testing.Short() {
		simMs = 20.0
	}
	for _, scalar := range []bool{false, true} {
		name := "batched"
		if scalar {
			name = "scalar"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := experiments.BuildVirtSystem(experiments.DefaultConfig())
				for _, core := range sys.Kernel.Cores {
					core.CPU.ScalarMemPath = scalar
				}
				sys.Kernel.RunFor(simclock.FromMillis(simMs))
				sys.Kernel.Shutdown()
			}
		})
	}
}
