package main

import (
	"fmt"
	"hash/fnv"
	"slices"

	"repro/internal/cache"
	"repro/internal/hwtask"
	"repro/internal/measure"
	"repro/internal/nova"
	"repro/internal/simclock"
)

// dumpPhases is the fixed probe list of the bench-side dump and of the
// probe-derived counts (a fixed list, never the set's own names, so the
// dump does not depend on which probes a reader happened to create).
var dumpPhases = []string{
	measure.PhaseMgrEntry, measure.PhaseMgrExit, measure.PhaseMgrExec,
	measure.PhasePLIRQEntry, measure.PhaseVMSwitch, measure.PhaseHypercall,
	measure.PhaseIPCCall,
	measure.PhaseReconfigCold, measure.PhaseReconfigWarm, measure.PhaseReconfigQWait,
}

// checksum hashes a dump the way the scenario engine hashes its own:
// FNV-1a 64 over the lines, each newline-terminated.
func checksum(dump []string) uint64 {
	h := fnv.New64a()
	for _, l := range dump {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// kernelOutcome reads a stopped kernel through its public stats: the
// bench-side state dump over clock, PDs, probes, caches, TLBs and CPUs,
// and the per-layer counts every workload reports.
func kernelOutcome(k *nova.Kernel) outcome {
	o := outcome{simCycles: k.Clock.Now(), counts: map[string]float64{}}
	add := func(format string, args ...any) { o.dump = append(o.dump, fmt.Sprintf(format, args...)) }
	c := o.counts

	add("clock %d cores %d epochs %d", k.Clock.Now(), len(k.Cores), k.Epochs)
	var busy simclock.Cycles
	var l1i, l1d, l2 cache.Stats
	var tlbMiss, tlbAcc, flushes, walks uint64
	seenL2 := map[*cache.Cache]bool{}
	for _, core := range k.Cores {
		st := core.CPU.Stats()
		h := core.CPU.Caches
		i, d, l := h.L1I.Stats(), h.L1D.Stats(), h.L2.Stats()
		t, m := core.CPU.TLB.Stats(), core.CPU.MMU.Stats()
		add("core %d clock %d busy %d instr %d swi %d undef %d abort %d irq %d vfp %d",
			core.ID, core.Clock.Now(), core.BusyCycles, st.Instructions, st.SWIs, st.Undefs, st.Aborts, st.IRQsTaken, st.VFPTraps)
		add("core %d l1i %v l1d %v l2 %v", core.ID, i, d, l)
		add("core %d tlb %v walks %v", core.ID, t, m)
		busy += core.BusyCycles
		o.instructions += st.Instructions
		c["cpu.irqs_taken"] += float64(st.IRQsTaken)
		addCache(&l1i, i)
		addCache(&l1d, d)
		if !seenL2[h.L2] {
			seenL2[h.L2] = true
			addCache(&l2, l)
		}
		tlbMiss += t.Misses
		tlbAcc += t.Accesses()
		flushes += t.FlushAll + t.FlushByASID
		walks += m.Walks
	}
	c["cpu.instructions"] = float64(o.instructions)
	c["cpu.busy_share"] = ratio(float64(busy), float64(k.Clock.Now())*float64(len(k.Cores)))
	c["cache.l1i_miss_rate"] = l1i.MissRate()
	c["cache.l1d_miss_rate"] = l1d.MissRate()
	c["cache.l2_miss_rate"] = l2.MissRate()
	c["cache.l1d_writebacks"] = float64(l1d.Writebacks)
	c["tlb.miss_rate"] = ratio(float64(tlbMiss), float64(tlbAcc))
	c["tlb.flushes"] = float64(flushes)
	c["mmu.walks"] = float64(walks)

	var hypercalls, switches, injected, relatched uint64
	for _, pd := range k.PDs {
		add("pd %d %s switches %d hypercalls %d faults %d injected %d relatched %d",
			pd.ID, pd.Name(), pd.Switches, pd.Hypercalls, pd.Faults, pd.VGIC.Injected, pd.VGIC.Relatched)
		hypercalls += pd.Hypercalls
		switches += pd.Switches
		injected += pd.VGIC.Injected
		relatched += pd.VGIC.Relatched
	}
	c["nova.hypercalls"] = float64(hypercalls)
	c["nova.world_switches"] = float64(switches)
	c["nova.vgic_injected"] = float64(injected)
	c["nova.vgic_relatched"] = float64(relatched)
	c["nova.epochs"] = float64(k.Epochs)

	probe := map[string]*measure.Probe{}
	for _, ph := range dumpPhases {
		p := k.Probes.Get(ph)
		probe[ph] = p
		add("probe %s %d %d %d %d", ph, p.Count, p.Total, p.Min, p.Max)
	}
	c["nova.vm_switch_us"] = probe[measure.PhaseVMSwitch].MeanMicros()
	c["nova.hypercall_us"] = probe[measure.PhaseHypercall].MeanMicros()
	c["nova.ipc_fast_share"] = ratio(float64(k.IPCFastCalls()), float64(probe[measure.PhaseIPCCall].Count))
	c["ipc_rt_cycles"] = probe[measure.PhaseIPCCall].MeanCycles()
	c["hwtask.mgr_entry_us"] = probe[measure.PhaseMgrEntry].MeanMicros()
	c["hwtask.mgr_exec_us"] = probe[measure.PhaseMgrExec].MeanMicros()
	c["hwtask.mgr_exit_us"] = probe[measure.PhaseMgrExit].MeanMicros()
	c["hwtask.plirq_entry_us"] = probe[measure.PhasePLIRQEntry].MeanMicros()
	c["hwmgr_total_us"] = c["hwtask.mgr_entry_us"] + c["hwtask.mgr_exec_us"] + c["hwtask.mgr_exit_us"]
	c["reconfig.qwait_us"] = probe[measure.PhaseReconfigQWait].MeanMicros()

	// Cold and warm reconfigurations are pooled: the latency a client
	// sees, whichever way the cache answered.
	var recon []float64
	for _, ph := range keptPhases {
		for _, v := range probe[ph].Samples() {
			recon = append(recon, v.Micros())
		}
	}
	slices.Sort(recon)
	c["reconfig.samples"] = float64(len(recon))
	if len(recon) > 0 {
		c["reconfig_p50_us"] = percentile(recon, 50)
		c["reconfig_p90_us"] = percentile(recon, 90)
	}

	gs := k.GIC.Stats()
	add("gic %+v", gs)
	c["gic.raised"] = float64(gs.Raised)
	c["gic.sgis"] = float64(gs.SGIsSent)

	cs := k.CapStats()
	add("capspace %+v ipcfast %d", cs, k.IPCFastCalls())
	c["capspace.lookups"] = float64(cs.Lookups)
	c["capspace.denials"] = float64(cs.Denials())

	if p := k.Reconfig; p != nil {
		add("reconfig %+v cache %+v queue %+v prefetch %+v pcap %d %d",
			p.Stats, p.Cache.Stats, p.Queue.Stats, p.Prefetch.Stats, p.Fabric.PCAP.Transfers, p.Fabric.PCAP.Errors)
		c["reconfig.requests"] = float64(p.Stats.Requests)
		c["reconfig.cache_hit_ratio"] = p.HitRatio()
		c["reconfig.prefetch_useful_ratio"] = ratio(float64(p.Prefetch.Stats.Hits), float64(p.Prefetch.Stats.Issued))
		c["reconfig.queue_max_depth"] = float64(p.Queue.Stats.MaxDepth)
		c["reconfig.retries"] = float64(p.Stats.Retries)
		c["pl.pcap_transfers"] = float64(p.Fabric.PCAP.Transfers)
	}
	return o
}

func addCache(dst *cache.Stats, s cache.Stats) {
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.Evictions += s.Evictions
	dst.Writebacks += s.Writebacks
	dst.Flushes += s.Flushes
}

func addManagerCounts(c map[string]float64, st hwtask.Stats) {
	c["hwtask.requests"] = float64(st.Requests)
	c["hwtask.hit_ratio"] = ratio(float64(st.Hits), float64(st.Requests))
	c["hwtask.busy_ratio"] = ratio(float64(st.Busy), float64(st.Requests))
	c["hwtask.reclaims"] = float64(st.Reclaims)
}
