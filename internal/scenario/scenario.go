// Package scenario is the config-driven multi-VM stress harness: a
// declarative Spec (core count, VM mix, codec workloads, reconfiguration
// churn rate, IRQ-storm profile, runtime budget) is turned into a fully
// wired Mini-NOVA system — kernel, fabric, reconfiguration pipeline,
// Hardware Task Manager service, and one protection domain per VM — and
// run for its simulated budget. Every run ends in a state checksum
// covering the clock, every PD's counters, every guest's outputs, the
// GIC, the caches and the reconfiguration pipeline, so a scenario is a
// replay regression: identical specs must produce byte-identical
// checksums, run after run, however the host schedules the suite's
// goroutines. This is the repo's systematic way to open new workloads —
// add a Spec instead of hand-writing an experiment per topology.
package scenario

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/gic"
	"repro/internal/hwtask"
	"repro/internal/measure"
	"repro/internal/nova"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/ucos"
)

// VM describes one guest in the mix.
type VM struct {
	// Name labels the PD ("" = vmN).
	Name string
	// Priority is the PD's scheduling priority (0 = nova.PrioGuest).
	Priority int
	// Affinity restricts the PD's home core (zero = any core).
	Affinity sched.CPUMask
	// Workload names the background computation ("gsm", "adpcm",
	// "memhog", "" = none) run as a low-priority task.
	Workload string

	// HwGapTicks > 0 runs a hardware-task churn driver that acquires a
	// task from the menu, runs it once, and sleeps this many guest ticks
	// — the reconfiguration churn rate.
	HwGapTicks uint32
	// HwMenu is the churn driver's task menu (nil = the shared QAM pool
	// plus a per-VM FFT stage, the Table III mix).
	HwMenu []uint16
	// HwSequential cycles the menu in order instead of pseudo-randomly —
	// a periodic task sequence the prefetcher can learn.
	HwSequential bool
	// ReleaseEvery > 0 releases the acquired task back to the manager
	// every Nth request (exercising the unregister path); 0 holds tasks
	// until another VM reclaims them.
	ReleaseEvery int

	// StormLines attaches that many synthetic level-triggered PL device
	// lines to this VM, each pulsing every StormPeriodUs microseconds —
	// the IRQ-storm profile. StormBurst > 1 re-asserts the line that many
	// times per period, 2 µs apart: the re-raises land while the previous
	// delivery is still in service, which is exactly the lost-vIRQ window.
	StormLines    int
	StormPeriodUs float64
	StormBurst    int
}

// Spec is one named scenario.
type Spec struct {
	Name  string
	About string

	// Cores is the number of simulated A9 cores (0 = 1).
	Cores int
	// QuantumMs is the guest time slice (0 = the paper's 33 ms).
	QuantumMs float64
	// RunMs is the simulated runtime budget.
	RunMs float64
	// Seed diversifies the per-VM pseudo-random streams.
	Seed uint32
	// Shards > 1 spreads the simulated cores over that many host
	// goroutines (nova.RunParallelFor); 0/1 runs them all on one. The
	// checksum is byte-identical for every shard count.
	Shards int

	// CacheBytes overrides the bitstream cache budget (0 = default).
	CacheBytes uint32
	// PrefetchOff disables speculative fills.
	PrefetchOff bool
	// ServiceCore pins the Hardware Task Manager service (zero = any).
	ServiceCore sched.CPUMask

	// Trace enables the kernel's structured-event tracing (per-core
	// bounded rings + metrics). Tracing never touches checksummed state:
	// a traced run's checksum is byte-identical to an untraced one.
	Trace bool

	// Faults is the scenario's deterministic fault plan (zero = no
	// injection). Its Seed defaults to the spec's Seed, so the fault
	// sequence is reproducible from the scenario alone.
	Faults fault.Config
	// QoS arms the kernel's manager-portal admission guards.
	QoS bool

	// Snapshot switches the scenario into checkpoint/fork mode: VMs[0]
	// becomes a serverless template that is booted to quiescence,
	// checkpointed and frozen, then forked through a warm shelf into
	// Snapshot.Clones copy-on-write clones (snapshot.go).
	Snapshot *SnapshotSpec

	VMs []VM
}

// normalized fills in the spec's defaults.
func (s Spec) normalized() Spec {
	if s.Cores < 1 {
		s.Cores = 1
	}
	if s.QuantumMs == 0 {
		s.QuantumMs = nova.DefaultQuantumMs
	}
	if s.RunMs == 0 {
		s.RunMs = 100
	}
	return s
}

// vmProbe is the engine's per-VM instrumentation, written only from
// inside the simulation's single logical thread of execution.
type vmProbe struct {
	spec  VM
	guest *ucos.Guest
	pd    *nova.PD

	requests     uint64 // completed hardware-task runs
	failures     uint64 // runs that returned false (timeout, DMA error)
	busy         uint64 // StatusBusy answers
	throttled    uint64 // StatusThrottled answers (QoS bucket empty)
	retried      uint64 // StatusRetry answers (circuit breaker open)
	faulted      uint64 // StatusFaulted answers (retries exhausted / PRRs down)
	stormHandled uint64 // storm ISR dispatches
	output       uint64 // workload digest (0 when no workload)

	// acq records every successful acquire's request→ready latency
	// (manager portal IPC plus any reconfiguration wait), with samples
	// retained so interference probes can report percentiles.
	acq measure.Probe
}

// System is a fully wired scenario instance.
type System struct {
	Spec    Spec
	Kernel  *nova.Kernel
	Manager *hwtask.Manager

	probes    []*vmProbe
	stormNext int // next synthetic PL line, allocated top-down

	// snap is the checkpoint/fork state machine, non-nil only when the
	// spec has a SnapshotSpec (snapshot.go).
	snap *snapRun
}

// Build wires the system a spec describes. The caller owns the kernel
// and must Shutdown it (Run does both).
func Build(spec Spec) *System {
	spec = spec.normalized()
	k := nova.NewKernelSMP(spec.Cores)
	k.Sched = sched.New(spec.Cores, simclock.FromMillis(spec.QuantumMs))
	if spec.Trace {
		k.EnableTrace()
	}

	mgr := hwtask.BootPaperPlatform(k, spec.ServiceCore)
	if spec.CacheBytes != 0 {
		k.Reconfig.SetCacheCapacity(spec.CacheBytes)
	}
	k.Reconfig.PrefetchOn = !spec.PrefetchOff
	if spec.Faults.Enabled() {
		fc := spec.Faults
		if fc.Seed == 0 {
			fc.Seed = mix(spec.Seed, 0xFA17)
		}
		k.Reconfig.Inject = fault.New(fc)
	}
	if spec.QoS {
		k.EnableQoS()
	}

	sys := &System{Spec: spec, Kernel: k, Manager: mgr, stormNext: 0}
	for i, vm := range spec.VMs {
		if spec.Snapshot != nil {
			sys.addTemplateVM(i, vm)
		} else {
			sys.addVM(i, vm)
		}
	}
	return sys
}

// addGuest applies one VM spec's name and priority defaults, creates its
// uC/OS guest PD and registers the VM's probe. It returns the probe and
// the VM's seed; the caller installs the guest's Setup.
func (s *System) addGuest(idx int, vm VM) (*vmProbe, uint32) {
	if vm.Name == "" {
		vm.Name = fmt.Sprintf("vm%d", idx)
	}
	if vm.Priority == 0 {
		vm.Priority = nova.PrioGuest
	}
	p := &vmProbe{spec: vm, guest: &ucos.Guest{GuestName: vm.Name}}
	p.acq.Keep = true // retain samples: interference probes report p99s
	p.pd = s.Kernel.CreatePD(nova.PDConfig{
		Name: vm.Name, Priority: vm.Priority, Guest: p.guest, Affinity: vm.Affinity,
	})
	s.probes = append(s.probes, p)
	return p, mix(s.Spec.Seed, uint32(idx))
}

// addVM creates the guest PD for one VM spec, wiring its tasks and any
// storm devices.
func (s *System) addVM(idx int, vm VM) {
	p, seed := s.addGuest(idx, vm)

	// Synthetic storm devices: PL lines allocated from the top so they
	// never collide with the fabric's PRR lines (allocated from 0 up).
	// The fabric hands a line to at most every PRR, so everything above
	// that is free for storm use.
	var stormIRQs []int
	for l := 0; l < vm.StormLines; l++ {
		s.stormNext++
		line := gic.NumPLIRQs - s.stormNext
		if line < len(s.Kernel.Fabric.PRRs) {
			panic(fmt.Sprintf("scenario %q: %d storm lines exceed the free PL lines (%d PRRs reserve the bottom of the range)",
				s.Spec.Name, s.stormNext, len(s.Kernel.Fabric.PRRs)))
		}
		irq := s.Kernel.BindPLIRQ(line, p.pd)
		stormIRQs = append(stormIRQs, irq)
		s.startStorm(p.pd, line, simclock.FromMicros(vm.StormPeriodUs), vm.StormBurst)
	}

	p.guest.Setup = func(os *ucos.OS) {
		for _, irq := range stormIRQs {
			irq := irq
			os.RegisterIRQ(irq, func(int) { p.stormHandled++ })
		}
		if vm.HwGapTicks > 0 {
			os.TaskCreate("churn", 8, s.churnTask(p, idx, seed))
		}
		if vm.Workload != "" {
			os.TaskCreate("workload", 30, s.workloadTask(p, idx, seed))
		}
	}
}

// startStorm arms the recurring pulse train for one synthetic device
// line: every period the line asserts burst times, 2 µs apart, so the
// trailing assertions arrive while the leading one is still in service.
// The train rides the owning VM's core clock: the line targets that core,
// so in a parallel run the raise must execute on the goroutine that owns
// the core's interrupt state.
func (s *System) startStorm(pd *nova.PD, line int, period simclock.Cycles, burst int) {
	if period <= 0 {
		period = simclock.FromMicros(200)
	}
	if burst < 1 {
		burst = 1
	}
	gap := simclock.FromMicros(2)
	// The quiet stretch after a burst must stay a real delay: a period
	// shorter than the burst itself would schedule events in the past,
	// which the clock clamps to "fire immediately" — an unintended
	// flood. Cycles is unsigned, so compare before subtracting.
	rest := gap
	if span := simclock.Cycles(burst-1) * gap; period > span+gap {
		rest = period - span
	}
	clk := pd.Core.Clock
	var pulse simclock.Event // owned: every shot re-arms it
	shot := 0
	pulse.Fire = func(simclock.Cycles) {
		s.Kernel.RaisePL(line)
		shot++
		if shot%burst == 0 {
			clk.Schedule(&pulse, clk.Now()+rest)
		} else {
			clk.Schedule(&pulse, clk.Now()+gap)
		}
	}
	clk.Schedule(&pulse, clk.Now()+period)
}

// Result is one scenario's outcome: the replay checksum plus the headline
// counters the summary table reports. Everything except the tracing
// byproducts is derived from simulated state and is covered by the
// checksum.
type Result struct {
	Name     string
	Checksum uint64
	Cores    int
	VMs      int
	SimMs    float64

	Injected     uint64 // vIRQ injections across all PDs
	Relatched    uint64 // in-service re-raises latched for EOI redelivery
	Switches     uint64 // world switches
	Requests     uint64 // completed hardware-task runs
	StormHandled uint64
	Reconfigs    uint64 // pipeline completions
	PrefetchHits uint64

	// Fault-tolerance and QoS ledger (all zero on fault-free, QoS-off
	// runs; all covered by the checksum).
	FaultsInjected uint64 // injector events across every class
	Retries        uint64 // pipeline retry launches
	Quarantines    uint64 // PRRs pulled from placement
	FaultedReqs    uint64 // requests failed after exhausting retries
	Throttled      uint64 // QoS bucket denials across all VMs
	BreakerTrips   uint64 // circuit-breaker trips across all VMs

	// Snapshot/fork ledger (zero outside snapshot scenarios; all covered
	// by the checksum).
	BootCycles   simclock.Cycles // sim time for the template to boot and quiesce
	ForkCycles   simclock.Cycles // sim time to prewarm, fork and activate every clone
	CloneCount   int             // clones activated (excludes shelf-only ones)
	COWFaults    uint64          // write faults resolved as COW breaks, all clones
	FramesCopied uint64          // frames privately copied, all clones
	FramesShared uint64          // frames still template-shared at collection
	PoolHits     uint64          // acquires served off the warm shelf
	PoolMisses   uint64          // acquires that forked a fresh clone
	PoolBuilt    uint64          // clones forked, prewarmed or on a miss
	PoolReaped   uint64          // shelf clones destroyed by TTL

	// VMStats carries each VM's counters and acquire-latency percentiles
	// in spec order (the interference probes read them by name).
	VMStats []VMStat

	// Detail is the exact state dump the checksum is computed over —
	// diffing two runs' details localizes a replay divergence.
	Detail string

	// Tracing byproducts. NOT part of the checksum or Detail: the rings
	// observe the run, they are not simulated state.
	TraceEvents uint64        // events emitted across all cores (incl. dropped)
	TraceDrops  uint64        // events evicted from full rings
	Trace       *trace.Tracer // nil when the spec did not enable tracing
}

// VMStat is one VM's slice of the result: its request/denial counters
// and the request→ready latency distribution of its successful acquires.
type VMStat struct {
	Name      string
	Requests  uint64
	Failures  uint64
	Busy      uint64
	Throttled uint64 // QoS bucket denials seen by the guest
	Retried   uint64 // breaker-open answers seen by the guest
	Faulted   uint64 // StatusFaulted unwinds seen by the guest

	AcqCount uint64          // successful acquires sampled
	AcqP50   simclock.Cycles // median request→ready latency
	AcqP99   simclock.Cycles // tail request→ready latency
}

// Run executes the scenario for its simulated budget, computes the state
// checksum, and tears the system down. The result (and checksum) is
// byte-identical for every shard count.
func (s *System) Run() Result {
	k := s.Kernel
	// Flight recorder: a panic mid-run re-raises with the tail of every
	// core's event ring attached, so the failure message carries the last
	// things the kernel did.
	defer func() {
		if r := recover(); r != nil {
			if k.Tracer != nil {
				panic(fmt.Sprintf("%v\n\nflight recorder (last events per core):\n%s",
					r, k.Tracer.FlightDump(256)))
			}
			panic(r)
		}
	}()
	d := simclock.FromMillis(s.Spec.RunMs)
	if s.snap != nil {
		s.runSnapshot(d)
	} else {
		s.advance(d)
	}
	res := s.collect()
	k.Shutdown()
	return res
}

// advance runs the simulation for d more cycles on the spec's shard
// count. The phased snapshot runner calls it repeatedly; checksums must
// stay byte-identical however the budget is chopped.
func (s *System) advance(d simclock.Cycles) {
	s.Kernel.RunParallelFor(d, s.Spec.Shards)
}

// collect gathers the result and checksum from the stopped system.
func (s *System) collect() Result {
	k := s.Kernel
	res := Result{
		Name:  s.Spec.Name,
		Cores: len(k.Cores),
		VMs:   len(s.probes),
		SimMs: k.Clock.Now().Millis(),
	}
	d := newDigest()
	d.addf("scenario %s seed %d clock %d", s.Spec.Name, s.Spec.Seed, k.Clock.Now())

	for _, pd := range k.PDs {
		res.Switches += pd.Switches
		res.Injected += pd.VGIC.Injected
		res.Relatched += pd.VGIC.Relatched
		cs := pd.Space.Stats
		d.addf("pd %d %s switches %d hypercalls %d faults %d injected %d relatched %d caps %d lookups %d denials %d",
			pd.ID, pd.Name(), pd.Switches, pd.Hypercalls, pd.Faults,
			pd.VGIC.Injected, pd.VGIC.Relatched,
			pd.Space.CapCount(), cs.Lookups, cs.Denials())
	}
	caps := k.CapStats()
	d.addf("capspace lookups %d hits %d badsel %d revoked %d badtype %d denied %d delegations %d revocations %d ipcfast %d",
		caps.Lookups, caps.Hits, caps.BadSel, caps.Revoked, caps.BadType,
		caps.Denied, caps.Delegations, caps.Revocations, k.IPCFastCalls())
	for _, p := range s.probes {
		res.Requests += p.requests
		res.StormHandled += p.stormHandled
		var ticks uint64
		if p.guest.OS != nil {
			ticks = p.guest.OS.Ticks
		}
		d.addf("vm %s requests %d failures %d busy %d storm %d ticks %d workload %s output %d",
			p.spec.Name, p.requests, p.failures, p.busy, p.stormHandled, ticks,
			p.spec.Workload, p.output)
		denials, trips, rejections := k.QoSCounters(p.pd)
		res.Throttled += denials
		res.BreakerTrips += trips
		st := VMStat{
			Name: p.spec.Name, Requests: p.requests, Failures: p.failures,
			Busy: p.busy, Throttled: p.throttled, Retried: p.retried,
			Faulted: p.faulted, AcqCount: p.acq.Count,
			AcqP50: p.acq.Percentile(50), AcqP99: p.acq.Percentile(99),
		}
		res.VMStats = append(res.VMStats, st)
		d.addf("vmqos %s throttled %d retried %d faulted %d bucket %d breaker %d %d acq %d p50 %d p99 %d",
			p.spec.Name, p.throttled, p.retried, p.faulted,
			denials, trips, rejections, st.AcqCount, uint64(st.AcqP50), uint64(st.AcqP99))
	}
	gs := k.GIC.Stats()
	d.addf("gic raised %d sgis %d acked %d completed %d spurious %d",
		gs.Raised, gs.SGIsSent, gs.Acknowledged, gs.Completed, gs.Spurious)
	for _, c := range k.Cores {
		l1d, tlb := c.CPU.Caches.L1D.Stats(), c.CPU.TLB.Stats()
		d.addf("core %d busy %d l1d %d %d %d %d tlb %d %d %d",
			c.ID, c.BusyCycles, l1d.Hits, l1d.Misses, l1d.Evictions, l1d.Writebacks,
			tlb.Hits, tlb.Misses, tlb.Evictions)
	}
	if pipe := k.Reconfig; pipe != nil {
		res.Reconfigs = pipe.Stats.Completions
		res.PrefetchHits = pipe.Prefetch.Stats.Hits
		cs, qs, fs := pipe.Cache.Stats, pipe.Queue.Stats, pipe.Prefetch.Stats
		d.addf("reconfig req %d queued %d done %d fail %d cache %d %d %d %d %d queue %d %d %d prefetch %d %d %d %d pcap %d %d",
			pipe.Stats.Requests, pipe.Stats.Queued, pipe.Stats.Completions, pipe.Stats.Failures,
			cs.Hits, cs.Misses, cs.Coalesced, cs.Evictions, cs.Bypasses,
			qs.Enqueued, qs.MaxDepth, qs.DepthSum,
			fs.Transitions, fs.Issued, fs.Hits, fs.Useless,
			pipe.Fabric.PCAP.Transfers, pipe.Fabric.PCAP.Errors)
		res.Retries = pipe.Stats.Retries
		res.Quarantines = pipe.Stats.Quarantines
		res.FaultedReqs = pipe.Stats.FaultedRequests
		var is fault.Stats
		if pipe.Inject != nil {
			is = pipe.Inject.Stats
		}
		res.FaultsInjected = is.Total()
		d.addf("faults sd %d %d %d pcap %d %d prr %d retries %d timeouts %d poison %d quarantines %d faulted %d purged %d invalidations %d aborts %d",
			is.SDErrors, is.SDStalls, is.Corruptions, is.PCAPCRCs, is.PCAPStalls, is.PRRFaults,
			pipe.Stats.Retries, pipe.Stats.Timeouts, pipe.Stats.PoisonEvictions,
			pipe.Stats.Quarantines, pipe.Stats.FaultedRequests, pipe.Stats.Purged,
			cs.Invalidations, pipe.Fabric.PCAP.Aborts)
	}
	for _, ph := range measure.Phases {
		pr := k.Probes.Get(ph)
		d.addf("probe %s %d %d %d %d", ph, pr.Count, pr.Total, pr.Min, pr.Max)
	}
	console := k.ConsoleString()
	d.addf("console %d %d", fnvString(console), len(console))

	// Snapshot/fork ledger: only snapshot scenarios write these lines, so
	// every pre-existing scenario's dump stays byte-identical.
	if s.snap != nil {
		s.snapshotCollect(d, &res)
	}

	// Trace byproducts ride only on the Result struct — deliberately NOT
	// written into the digest: the checksum must not know whether the run
	// was traced.
	if k.Tracer != nil {
		res.Trace = k.Tracer
		res.TraceEvents = k.Tracer.Total()
		res.TraceDrops = k.Tracer.Drops()
	}

	res.Detail = d.text()
	res.Checksum = d.sum()
	return res
}

// mix whitens a (seed, lane) pair into a per-VM stream seed.
func mix(seed, lane uint32) uint32 {
	x := seed*2654435761 + lane*0x9E3779B9 + 0x85EBCA6B
	x ^= x >> 16
	x *= 0x7FEB352D
	x ^= x >> 15
	return x | 1
}
