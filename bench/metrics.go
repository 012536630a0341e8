package main

// metric is one row of the benchmark's metric table. BENCHMARK.json at
// the repository root lists the same rows; the tests hold the two equal.
type metric struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics a user of the simulator sees, measured with
// profiling off: medians over the run's timed reps. Times are reference
// times (speed.go), so most of the host's drift cancels out of them.
// The bounds are the widest the contract allows: in reference time, ten
// seeds of one workload still spread by up to 15% between quartiles on
// the 2-CPU shared VM they were measured on (README.md has the
// evidence). live_heap_mb does not drift.
var endToEnd = []metric{
	{"sim_ms_per_ref_s", "sim_ms/ref_s", "higher", 0.25},
	{"sim_ref_mips", "Minstr/ref_s", "higher", 0.25},
	{"ref_cpu_ms_per_sim_ms", "ref_ms/sim_ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.10},
}

// hostLayers are the layers the profile decoder files samples under
// (see layerOf): every repro/internal package, the kernel split by
// source file, and the runtime's gc and handoff work.
var hostLayers = []string{
	"apps", "cache", "cpu", "tlb", "mmu", "physmem",
	"nova.core", "nova.epoch", "nova.hypercall", "nova.clone", "nova.vgic",
	"sched", "simclock", "timer", "gic", "hwtask", "reconfig", "pl", "bitstream",
	"capspace", "abi", "checkpoint", "pool", "ucos", "measure", "trace", "fault",
	"experiments", "scenario", "gc", "handoff", "other",
}

// hostLayerSuffix names a layer's host-time metric: microseconds of
// process CPU time per simulated millisecond, from the traced run.
const hostLayerSuffix = ".host_us_per_sim_ms"

// benchMetrics describe the measurement itself: the end-to-end speeds
// in raw host time, the speed kernel they were scaled by, the traced
// round's cost, and the host allocation of the timed reps.
var benchMetrics = []metric{
	{"bench.host_sim_ms_per_s", "sim_ms/s", "higher", 0},
	{"bench.host_mips", "MIPS", "higher", 0},
	{"bench.host_cpu_ms_per_sim_ms", "ms/sim_ms", "lower", 0},
	{"bench.speed_kernel_ms", "ms", "lower", 0},
	{"bench.profile_overhead", "ratio", "lower", 0},
	{"bench.profile_samples", "count", "higher", 0},
	{"gc.alloc_kb_per_sim_ms", "KB/sim_ms", "lower", 0},
	{"gc.cycles", "count", "lower", 0},
}

// simMetrics are read from the public stats after a run. They are
// simulated quantities: a given seed repeats them exactly, so any
// change to one is a change to the modelled system, not to host noise.
var simMetrics = []metric{
	{"hwmgr_total_us", "sim_us", "lower", 0},
	{"reconfig_p50_us", "sim_us", "lower", 0},
	{"reconfig_p90_us", "sim_us", "lower", 0},
	{"ipc_rt_cycles", "sim_cycles", "lower", 0},
	{"fork_over_boot", "ratio", "lower", 0},

	{"cpu.instructions", "count", "higher", 0},
	{"cpu.busy_share", "ratio", "higher", 0},
	{"cpu.irqs_taken", "count", "lower", 0},
	{"cache.l1i_miss_rate", "ratio", "lower", 0},
	{"cache.l1d_miss_rate", "ratio", "lower", 0},
	{"cache.l2_miss_rate", "ratio", "lower", 0},
	{"cache.l1d_writebacks", "count", "lower", 0},
	{"tlb.miss_rate", "ratio", "lower", 0},
	{"tlb.flushes", "count", "lower", 0},
	{"mmu.walks", "count", "lower", 0},
	{"nova.hypercalls", "count", "higher", 0},
	{"nova.world_switches", "count", "lower", 0},
	{"nova.vm_switch_us", "sim_us", "lower", 0},
	{"nova.hypercall_us", "sim_us", "lower", 0},
	{"nova.epochs", "count", "lower", 0},
	{"nova.ipc_fast_share", "ratio", "higher", 0},
	{"nova.vgic_injected", "count", "higher", 0},
	{"nova.vgic_relatched", "count", "lower", 0},
	{"nova.fork_ms", "sim_ms", "lower", 0},
	{"nova.boot_ms", "sim_ms", "lower", 0},
	{"gic.raised", "count", "higher", 0},
	{"gic.sgis", "count", "lower", 0},
	{"hwtask.requests", "count", "higher", 0},
	{"hwtask.hit_ratio", "ratio", "higher", 0},
	{"hwtask.busy_ratio", "ratio", "lower", 0},
	{"hwtask.reclaims", "count", "lower", 0},
	{"hwtask.mgr_entry_us", "sim_us", "lower", 0},
	{"hwtask.mgr_exec_us", "sim_us", "lower", 0},
	{"hwtask.mgr_exit_us", "sim_us", "lower", 0},
	{"hwtask.plirq_entry_us", "sim_us", "lower", 0},
	{"reconfig.requests", "count", "higher", 0},
	{"reconfig.samples", "count", "higher", 0},
	{"reconfig.cache_hit_ratio", "ratio", "higher", 0},
	{"reconfig.prefetch_useful_ratio", "ratio", "higher", 0},
	{"reconfig.qwait_us", "sim_us", "lower", 0},
	{"reconfig.queue_max_depth", "count", "lower", 0},
	{"reconfig.retries", "count", "lower", 0},
	{"pl.pcap_transfers", "count", "lower", 0},
	{"capspace.lookups", "count", "lower", 0},
	{"capspace.denials", "count", "lower", 0},
	{"pool.hit_ratio", "ratio", "higher", 0},
	{"physmem.cow_faults", "count", "lower", 0},
	{"physmem.copy_rate", "ratio", "lower", 0},
}

// perLayer is the full per-layer table, in report order.
func perLayer() []metric {
	var out []metric
	for _, l := range hostLayers {
		out = append(out, metric{l + hostLayerSuffix, "us/sim_ms", "lower", 0})
	}
	out = append(out, benchMetrics...)
	return append(out, simMetrics...)
}
