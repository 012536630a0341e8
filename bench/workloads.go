package main

import (
	"fmt"
	"strings"

	"repro/internal/abi"
	"repro/internal/experiments"
	"repro/internal/measure"
	"repro/internal/nova"
	"repro/internal/scenario"
	"repro/internal/simclock"
)

// system is one built instance of a workload. The harness times the
// build call as set-up and run as the measured region; collect reads
// the public stats afterwards and close releases the guest goroutines.
type system interface {
	run()
	collect() outcome
	close()
}

// outcome is what one run of a system leaves behind. Everything in it
// is simulated state, so it repeats exactly for a given seed.
type outcome struct {
	simCycles    simclock.Cycles
	instructions uint64
	// dump is the state the checksum covers; the golden file pins both
	// and a mismatch report quotes the first differing dump line.
	dump     []string
	checksum uint64
	counts   map[string]float64
}

// workload is one set of inputs. build gets the seed (the program sees
// only the spec or config made from it), the horizon switch used by the
// tests, and the shard count for the parallel engine.
type workload struct {
	name  string
	why   string
	build func(seed uint32, short bool, shards int) system
}

// workloads is the benchmark's workload table, in round-robin order.
var workloads = []workload{
	{
		name:  "table3_4vm",
		why:   "the paper's Table III shape: 4 codec guests with T_hw churn on one core; host time is the guests' codecs and the cache/cpu/tlb model",
		build: buildTable3,
	},
	{
		name:  "ipc_pingpong",
		why:   "portal call/reply round trips between two bench-owned PDs on one core: only guest/kernel handoff and hypercall dispatch, no codec work",
		build: buildIPC,
	},
	{
		name:  "reconfig_thrash",
		why:   "suite spec reconfig-thrash on 2 cores: the only workload that runs the epoch barrier, SGIs and the whole reconfiguration pipeline",
		build: buildReconfigThrash,
	},
	{
		name:  "fork_storm_256",
		why:   "suite spec oversubscribed-256vm: checkpoint, warm pool and 256 COW clones on 2 cores; memory-layer writes and goroutine churn, no codec work",
		build: buildForkStorm,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- table3_4vm ----

// table3Ms is the simulated horizon of one table3_4vm rep. T_hw's
// iteration count is set far beyond it so hardware-task churn lasts the
// whole rep instead of tailing off into pure codec work.
const (
	table3Ms      = 1000
	table3ShortMs = 30
)

type table3System struct {
	sys    *experiments.VirtSystem
	ms     float64
	shards int
}

func buildTable3(seed uint32, short bool, shards int) system {
	cfg := experiments.DefaultConfig()
	cfg.Seed = seed
	cfg.Iterations = 1 << 20
	ms := float64(table3Ms)
	if short {
		ms = table3ShortMs
	}
	return &table3System{sys: experiments.BuildVirtSystem(cfg), ms: ms, shards: shards}
}

func (s *table3System) run() {
	s.sys.Kernel.RunParallelFor(simclock.FromMillis(s.ms), s.shards)
}

func (s *table3System) collect() outcome {
	o := kernelOutcome(s.sys.Kernel)
	o.dump = append(o.dump, fmt.Sprintf("hwtask %+v", s.sys.Manager.Stats))
	addManagerCounts(o.counts, s.sys.Manager.Stats)
	o.checksum = checksum(o.dump)
	return o
}

func (s *table3System) close() { s.sys.Kernel.Shutdown() }

// ---- ipc_pingpong ----

// ipcRounds is the number of call/reply round trips in one rep.
const (
	ipcRounds      = 30_000
	ipcShortRounds = 2_000
)

// guestFunc adapts a closure to nova.Guest for the bench-owned PDs.
type guestFunc struct {
	name string
	body func(env *nova.Env)
}

func (g *guestFunc) Name() string           { return g.name }
func (g *guestFunc) RunSlice(env *nova.Env) { g.body(env) }

type ipcSystem struct {
	k      *nova.Kernel
	shards int
	rounds int
	// done and acc are written by the client guest and read by the
	// harness after run; the kernel's goroutine handoff orders the two.
	done bool
	acc  uint64
}

func buildIPC(seed uint32, short bool, shards int) system {
	s := &ipcSystem{k: nova.NewKernel(), shards: shards, rounds: ipcRounds}
	if short {
		s.rounds = ipcShortRounds
	}
	server := s.k.CreatePD(nova.PDConfig{
		Name: "ipc-server", Priority: nova.PrioGuest,
		Guest: &guestFunc{"ipc-server", func(env *nova.Env) {
			word := env.Hypercall(abi.HcPortalRecv, abi.RecvBlock)
			for {
				word = env.Hypercall(abi.HcPortalRecv, abi.RecvBlock|abi.RecvReply, (word&0xFF_FFFF)+1)
			}
		}},
	})
	var sel uint32
	client := s.k.CreatePD(nova.PDConfig{
		Name: "ipc-client", Priority: nova.PrioGuest,
		Guest: &guestFunc{"ipc-client", func(env *nova.Env) {
			x := seed | 1
			for i := 0; i < s.rounds; i++ {
				x ^= x << 13
				x ^= x >> 17
				x ^= x << 5
				s.acc = s.acc*31 + uint64(env.Hypercall(abi.HcPortalCall, sel, x&0xFF_FFFF))
			}
			s.done = true
			env.Hypercall(abi.HcSuspend)
		}},
	})
	c, err := s.k.DelegateIPC(server, client)
	if err != nil {
		panic(fmt.Sprintf("ipc_pingpong: DelegateIPC: %v", err))
	}
	sel = uint32(c)
	return s
}

func (s *ipcSystem) run() {
	// The bound only stops a broken kernel from spinning forever; a
	// healthy rep finishes in a small fraction of it.
	for i := 0; !s.done; i++ {
		if i == 1_000_000 {
			panic("ipc_pingpong: client never finished")
		}
		s.k.RunParallelFor(simclock.FromMillis(10), s.shards)
	}
}

func (s *ipcSystem) collect() outcome {
	o := kernelOutcome(s.k)
	o.dump = append(o.dump, fmt.Sprintf("ipc rounds %d acc %d", s.rounds, s.acc))
	o.checksum = checksum(o.dump)
	return o
}

func (s *ipcSystem) close() { s.k.Shutdown() }

// ---- scenario workloads ----

// keptPhases retain their samples so the reconfiguration percentiles
// are computed from every sample, not from running aggregates.
var keptPhases = []string{measure.PhaseReconfigCold, measure.PhaseReconfigWarm}

type scenarioSystem struct {
	sys *scenario.System
	res scenario.Result
}

func buildScenario(name string, seed uint32, runMs float64, shards int) system {
	spec, ok := scenario.FindSpec(name, false)
	if !ok {
		panic("bench: suite has no scenario " + name)
	}
	spec.Seed = seed
	spec.Shards = shards
	if runMs > 0 {
		spec.RunMs = runMs
	}
	s := &scenarioSystem{sys: scenario.Build(spec)}
	for _, ph := range keptPhases {
		s.sys.Kernel.Probes.Get(ph).Keep = true
	}
	return s
}

// reconfigMs is the simulated horizon of one reconfig_thrash rep: long
// enough for well over 100 pooled reconfiguration samples, so the p90
// has ten samples beyond it.
const (
	reconfigMs      = 2000
	reconfigShortMs = 20
)

func buildReconfigThrash(seed uint32, short bool, shards int) system {
	ms := float64(reconfigMs)
	if short {
		ms = reconfigShortMs
	}
	return buildScenario("reconfig-thrash", seed, ms, shards)
}

// buildForkStorm keeps the suite spec's own horizon: the fleet's boot,
// checkpoint and fork phases are the point, and a longer run would turn
// it into a steady-state clone workload. A rep is one fresh fleet.
func buildForkStorm(seed uint32, short bool, shards int) system {
	ms := 0.0
	if short {
		ms = 2
	}
	return buildScenario("oversubscribed-256vm", seed, ms, shards)
}

func (s *scenarioSystem) run() { s.res = s.sys.Run() }

func (s *scenarioSystem) collect() outcome {
	// The scenario engine's own dump and checksum replace the bench-side
	// ones: they are what the suite pins, and they cover the guests.
	o := kernelOutcome(s.sys.Kernel)
	o.dump = strings.Split(strings.TrimSuffix(s.res.Detail, "\n"), "\n")
	o.checksum = s.res.Checksum
	addManagerCounts(o.counts, s.sys.Manager.Stats)
	r := s.res
	c := o.counts
	c["nova.fork_ms"] = r.ForkCycles.Millis()
	c["nova.boot_ms"] = r.BootCycles.Millis()
	c["fork_over_boot"] = ratio(float64(r.ForkCycles), float64(r.BootCycles))
	c["pool.hit_ratio"] = ratio(float64(r.PoolHits), float64(r.PoolHits+r.PoolMisses))
	c["physmem.cow_faults"] = float64(r.COWFaults)
	c["physmem.copy_rate"] = ratio(float64(r.FramesCopied), float64(r.FramesCopied+r.FramesShared))
	return o
}

// close is a no-op after run (System.Run shuts the kernel down) and
// releases the goroutines of a system that was built but never run.
func (s *scenarioSystem) close() { s.sys.Kernel.Shutdown() }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
