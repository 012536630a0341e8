package scenario

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/fault"
	"repro/internal/hwtask"
	"repro/internal/nova"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// smallTaskMenu is the fault scenarios' churn mix: the small, quickly
// reconfigured images (short SD stages, sub-millisecond PCAP downloads),
// so a short horizon still flows enough downloads through the injector's
// decision sites to exercise every tolerance path.
var smallTaskMenu = []uint16{
	hwtask.TaskFFT256, hwtask.TaskFFT512,
	hwtask.TaskQAM4, hwtask.TaskQAM16, hwtask.TaskQAM64,
}

// Suite returns the named stress scenarios. short scales the simulated
// runtime budgets down for CI smoke runs — the topology, VM mix and
// traffic shapes are identical, only the horizon shrinks.
func Suite(short bool) []Spec {
	scale := 1.0
	if short {
		scale = 0.25
	}
	ms := func(v float64) float64 { return v * scale }

	return []Spec{
		{
			Name:  "baseline-2vm",
			About: "the paper's workload shape: two codec VMs with T_hw-style churn on one core",
			Cores: 1, RunMs: ms(160), Seed: 1,
			VMs: []VM{
				{Workload: "gsm", HwGapTicks: 31},
				{Workload: "adpcm", HwGapTicks: 31},
			},
		},
		{
			Name:  "irq-storm",
			About: "bursty device lines (3 asserts per 150us period) into a busy codec VM — re-raise-before-EOI pressure",
			Cores: 1, QuantumMs: 8, RunMs: ms(120), Seed: 2,
			VMs: []VM{
				{Workload: "gsm", StormLines: 2, StormPeriodUs: 150, StormBurst: 3},
				{Workload: "adpcm", HwGapTicks: 21},
			},
		},
		{
			Name:  "reconfig-thrash",
			About: "four VMs churn the full FFT family through a 192 KB cache — eviction and PCAP-queue pressure",
			Cores: 2, Policy: "partitioned", QuantumMs: 8, RunMs: ms(200), Seed: 3,
			CacheBytes:  192 << 10,
			ServiceCore: sched.MaskOf(1),
			VMs: []VM{
				{Workload: "gsm", HwGapTicks: 5, HwMenu: hwtask.FFTTaskIDs, Affinity: sched.MaskOf(0)},
				{Workload: "adpcm", HwGapTicks: 5, HwMenu: hwtask.FFTTaskIDs, Affinity: sched.MaskOf(0)},
				{HwGapTicks: 7, HwMenu: hwtask.FFTTaskIDs, Affinity: sched.MaskOf(0)},
				{HwGapTicks: 7, HwMenu: hwtask.FFTTaskIDs, Affinity: sched.MaskOf(0)},
			},
		},
		{
			Name:  "oversubscribed-8vm",
			About: "eight VMs on one core, mixed codecs, shared-pool churn with periodic releases",
			Cores: 1, QuantumMs: 6, RunMs: ms(260), Seed: 4,
			VMs: []VM{
				{Workload: "gsm", HwGapTicks: 17, ReleaseEvery: 5},
				{Workload: "adpcm", HwGapTicks: 17, ReleaseEvery: 5},
				{Workload: "gsm", HwGapTicks: 19},
				{Workload: "adpcm", HwGapTicks: 19},
				{Workload: "memhog", HwGapTicks: 23},
				{Workload: "gsm", HwGapTicks: 23, ReleaseEvery: 3},
				{Workload: "adpcm", HwGapTicks: 29},
				{Workload: "memhog", HwGapTicks: 29},
			},
		},
		{
			Name:  "prefetch-friendly",
			About: "a high-priority VM cycles four FFT images in order through a cache that holds two — periodic transitions plus idle windows, the prefetcher's home turf",
			Cores: 2, Policy: "partitioned", QuantumMs: 8, RunMs: ms(200), Seed: 5,
			CacheBytes:  512 << 10,
			ServiceCore: sched.MaskOf(1),
			VMs: []VM{
				{Priority: 2, HwGapTicks: 3, HwSequential: true, Affinity: sched.MaskOf(0),
					HwMenu: []uint16{hwtask.TaskFFT256, hwtask.TaskFFT512, hwtask.TaskFFT1024, hwtask.TaskFFT2048}},
				{Workload: "gsm", Affinity: sched.MaskOf(0)},
			},
		},
		{
			Name:  "mixed-criticality",
			About: "a critical storm+codec VM partitioned on core 1 beside best-effort churn on core 0",
			Cores: 2, Policy: "partitioned", QuantumMs: 8, RunMs: ms(160), Seed: 6,
			ServiceCore: sched.MaskOf(1),
			VMs: []VM{
				{Name: "critical", Priority: 2, Affinity: sched.MaskOf(1),
					Workload: "gsm", StormLines: 1, StormPeriodUs: 400, StormBurst: 2},
				{Workload: "adpcm", HwGapTicks: 13, Affinity: sched.MaskOf(0)},
				{Workload: "gsm", HwGapTicks: 17, Affinity: sched.MaskOf(0)},
				{Workload: "memhog", HwGapTicks: 23, Affinity: sched.MaskOf(0)},
			},
		},
		{
			Name:  "cache-starved",
			About: "a 64 KB cache below the working set with prefetch off — every miss pays the SD card",
			Cores: 1, QuantumMs: 8, RunMs: ms(160), Seed: 7,
			CacheBytes: 64 << 10, PrefetchOff: true,
			VMs: []VM{
				{Workload: "gsm", HwGapTicks: 7},
				{Workload: "adpcm", HwGapTicks: 9},
				{HwGapTicks: 11},
			},
		},
		{
			Name:  "idle-wakeup",
			About: "three idle VMs woken only by slow device pulses — the paravirtualized-WFI wake path",
			Cores: 1, RunMs: ms(160), Seed: 8,
			VMs: []VM{
				{StormLines: 1, StormPeriodUs: 5000},
				{StormLines: 1, StormPeriodUs: 7000},
				{StormLines: 1, StormPeriodUs: 11000},
			},
		},
		{
			Name:  "dual-core-spread",
			About: "four churning codec VMs balanced across two cores by prio-rr, service floating",
			Cores: 2, QuantumMs: 8, RunMs: ms(160), Seed: 9,
			VMs: []VM{
				{Workload: "gsm", HwGapTicks: 31},
				{Workload: "adpcm", HwGapTicks: 31},
				{Workload: "gsm", HwGapTicks: 27},
				{Workload: "adpcm", HwGapTicks: 27},
			},
		},
		{
			Name:  "flaky-sd",
			About: "SD staging reads fail and stall, and most images bypass a cache too small to hold them — retry/backoff (the corruption rate draws no corrupt image at either horizon)",
			Cores: 1, QuantumMs: 8, RunMs: ms(240), Seed: 10,
			CacheBytes: 64 << 10,
			Faults:     fault.Config{SDErrorPermille: 250, SDStallPermille: 200, CorruptPermille: 150},
			VMs: []VM{
				{Workload: "gsm", HwGapTicks: 3, HwMenu: smallTaskMenu},
				{HwGapTicks: 3, HwMenu: smallTaskMenu},
				{Workload: "adpcm", HwGapTicks: 5, HwMenu: smallTaskMenu},
			},
		},
		{
			Name:  "pcap-crc-storm",
			About: "PCAP downloads fail CRC or hang — device retries and watchdog reaps under fast cached reconfiguration churn",
			Cores: 1, QuantumMs: 8, RunMs: ms(200), Seed: 11,
			CacheBytes: 1 << 20,
			Faults:     fault.Config{PCAPCRCPermille: 200, PCAPStallPermille: 80},
			VMs: []VM{
				{Workload: "gsm", HwGapTicks: 3, HwMenu: smallTaskMenu},
				{HwGapTicks: 3, HwMenu: smallTaskMenu},
				{Workload: "adpcm", HwGapTicks: 5, HwMenu: smallTaskMenu},
				{HwGapTicks: 7, HwMenu: smallTaskMenu},
			},
		},
		{
			Name:  "prr-degraded",
			About: "transient PRR config faults quarantine regions — placement falls back to the healthy remainder on two cores",
			Cores: 2, Policy: "partitioned", QuantumMs: 8, RunMs: ms(240), Seed: 12,
			CacheBytes:  1 << 20,
			ServiceCore: sched.MaskOf(1),
			Faults:      fault.Config{PRRFaultPermille: 400, QuarantineAfter: 2},
			VMs: []VM{
				{Workload: "gsm", HwGapTicks: 3, HwMenu: smallTaskMenu, Affinity: sched.MaskOf(0)},
				{HwGapTicks: 3, HwMenu: smallTaskMenu, Affinity: sched.MaskOf(0)},
				{Workload: "adpcm", HwGapTicks: 5, HwMenu: smallTaskMenu, Affinity: sched.MaskOf(0)},
				{HwGapTicks: 7, HwMenu: smallTaskMenu, Affinity: sched.MaskOf(0)},
			},
		},
		{
			Name:  "noisy-neighbor",
			About: "a greedy churn VM hammers the manager beside a critical VM — QoS throttle and circuit breaker confine the interference",
			Cores: 2, Policy: "partitioned", QuantumMs: 8, RunMs: ms(240), Seed: 13,
			CacheBytes:  1 << 20,
			ServiceCore: sched.MaskOf(1),
			Faults:      fault.Config{SDStallPermille: 500, SDStallFactor: 2},
			QoS: nova.QoSConfig{
				BucketCapacity: 3, RefillEvery: simclock.FromMillis(2),
				TripAt: 10, Cooldown: simclock.FromMillis(8),
			},
			VMs: []VM{
				{Name: "critical", Priority: 2, Affinity: sched.MaskOf(1),
					HwGapTicks: 7, HwMenu: []uint16{hwtask.TaskQAM16, hwtask.TaskQAM64}},
				{Name: "greedy", HwGapTicks: 1, ReleaseEvery: 1, Affinity: sched.MaskOf(0),
					HwMenu: []uint16{hwtask.TaskQAM4}},
			},
		},
		{
			Name:  "oversubscribed-256vm",
			About: "one serverless template boots once, then 256 COW clones fork through a 64-deep warm pool — O(metadata) fork under heavy oversubscription",
			Cores: 2, RunMs: ms(8), Seed: 14,
			Snapshot: &SnapshotSpec{Clones: 256, Prewarm: 64},
			VMs:      []VM{{Name: "template"}},
		},
		{
			Name:  "warm-pool-reap",
			About: "a small clone fleet over an aggressively TTL-reaped, continuously re-warmed pool — shelf churn, generation revocation and arena recycling",
			Cores: 1, RunMs: ms(24), Seed: 15,
			Snapshot: &SnapshotSpec{Clones: 2, Prewarm: 6, TTLMs: 4, KeepWarm: true},
			VMs:      []VM{{Name: "template"}},
		},
	}
}

// FindSpec returns the named spec from the suite.
func FindSpec(name string, short bool) (Spec, bool) {
	for _, s := range Suite(short) {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// RunSuite executes every spec, each scenario's whole system on its own
// host goroutine — the simulations share nothing, so wall-clock scales
// with host cores while every simulated timeline stays bit-exact.
// Results come back in spec order.
func RunSuite(specs []Spec) []Result {
	results := make([]Result, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec Spec) {
			defer wg.Done()
			results[i] = Build(spec).Run()
		}(i, spec)
	}
	wg.Wait()
	return results
}

// SummaryTable renders the suite results as the per-scenario checksum
// table (the CI artifact and the -scenario console report). The events
// and drops columns report the tracing byproducts (0 when untraced);
// they sit outside the checksum.
func SummaryTable(results []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scenario suite: %d scenarios\n", len(results))
	fmt.Fprintf(&b, "%-20s %5s %4s %8s %9s %8s %8s %9s %8s %8s %6s  %-16s\n",
		"scenario", "cores", "vms", "sim(ms)", "injected", "relatch", "hwruns", "reconfigs", "storm", "events", "drops", "checksum")
	for _, r := range results {
		fmt.Fprintf(&b, "%-20s %5d %4d %8.1f %9d %8d %8d %9d %8d %8d %6d  %016x\n",
			r.Name, r.Cores, r.VMs, r.SimMs, r.Injected, r.Relatched,
			r.Requests, r.Reconfigs, r.StormHandled, r.TraceEvents, r.TraceDrops,
			r.Checksum)
	}
	return b.String()
}
