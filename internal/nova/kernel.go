package nova

import (
	"fmt"
	"iter"
	"strings"
	"sync"

	"repro/internal/cache"
	"repro/internal/capspace"
	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/gic"
	"repro/internal/measure"
	"repro/internal/mmu"
	"repro/internal/physmem"
	"repro/internal/pl"
	"repro/internal/reconfig"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/timer"
	"repro/internal/trace"
)

// pcapOwner is one completed PCAP transfer awaiting completion-IRQ
// delivery: the client PD whose reconfiguration finished and the trace
// flow id of the request (0 when untraced).
type pcapOwner struct {
	pd   *PD
	flow uint64
}

// deliverCompletion injects PCAP completion interrupt irq into own's
// client and wakes it, unless the client exited between the completion
// and its delivery.
func (k *Kernel) deliverCompletion(own pcapOwner, irq int) {
	if own.pd.dead {
		return
	}
	k.traceCompletionIRQ(own, irq)
	if own.pd.VGIC.Inject(irq) {
		k.wakeIfIdle(own.pd)
		k.maybePreemptFor(own.pd)
	}
}

// CostDeviceAccess is the cycle cost of one strongly-ordered device
// register access (GIC, devcfg, PRR controller) — uncached, so constant.
const CostDeviceAccess = 20

// yieldReason says why a PD handed the CPU back to the kernel loop.
type yieldReason int

const (
	yieldPreempt yieldReason = iota // quantum expiry or higher-prio wakeup
	yieldBlocked                    // blocked in a hypercall
	yieldExited                     // guest Main returned
)

// killSentinel is the panic that unwinds a guest once its coroutine is
// stopped (Shutdown, DestroyClone, RestoreInPlace): the parked yield
// returns false and Env.yield raises it. Only the PD's coroutine body
// recovers it, so nested coroutines in the guest (ucos tasks) unwind too.
type killSentinel struct{}

// Kernel is the Mini-NOVA microkernel instance: the abstraction layer
// between the simulated Zynq PS/PL hardware and the protection domains it
// hosts (paper Fig. 1). The kernel owns one CoreCtx per simulated
// Cortex-A9 core — the paper's evaluation pins everything on CPU0
// (NewKernel), while NewKernelSMP(2) models the full dual-core part with
// per-core runqueues and SGI-based cross-core reschedule.
type Kernel struct {
	Clock *simclock.Clock
	Bus   *physmem.Bus
	GIC   *gic.GIC

	// Cores are the simulated CPUs; CPU aliases Cores[0].CPU for the
	// single-core call sites and reports.
	Cores []*CoreCtx
	CPU   *cpu.CPU

	Fabric *pl.Fabric // nil until AttachFabric
	// Reconfig is the managed reconfiguration pipeline (bitstream cache,
	// PCAP request queue, prefetcher) built by AttachFabric, so it is nil
	// exactly when Fabric is; all manager-portal reconfigurations flow
	// through it.
	Reconfig *reconfig.Pipeline
	Alloc    *mmu.FrameAllocator

	// Sched is the scheduler (per-CPU runqueues). Replace it before
	// creating any PD (its CPU count must match len(Cores)).
	Sched  *sched.Scheduler
	Probes *measure.Set

	// Tracer is the structured-event tracing layer (nil = disabled, the
	// default; EnableTrace switches it on). Emission never touches
	// checksummed state, so traced and untraced runs produce identical
	// scenario digests.
	Tracer *trace.Tracer

	PDs []*PD

	// Epochs counts the barrier windows a multi-core run executed (see
	// DefaultEpoch), for the idle fast-forward diagnostics (not part of
	// any scenario digest). A single-core run counts none.
	Epochs uint64

	kernelPT *mmu.PageTable

	running bool

	// committer collects cross-core effects posted during an epoch and
	// replays them in deterministic (time, core, seq) order at the
	// barrier; inCommit marks that replay so wake paths turn immediate.
	committer *simclock.Committer
	inCommit  bool

	// prrBusySnap is the barrier-refreshed PRR busy snapshot cores poll
	// through PRRBusy during an epoch.
	prrBusySnap []bool

	// Capability layer: the global service-portal objects (selector-
	// indexed), the kernel's own root space (device objects are minted
	// here and delegated out), and the device-authority objects the
	// Hardware Task Manager receives at registration.
	portalObjs []*capspace.Object
	rootSpace  *capspace.Space
	hwqObj     *capspace.Object   // request-queue semaphore
	pcapObj    *capspace.Object   // PCAP/reconfiguration authority
	storeObj   *capspace.Object   // bitstream store region
	slotObjs   []*capspace.Object // one hw-task slot per PRR

	// Hardware-task request plumbing (§IV-E).
	hwQueue   []*hwRequest
	hwByID    map[uint32]*hwRequest
	nextReqID uint32
	hwSvc     *PD

	// QoS guard configuration for the manager portal (see qos.go);
	// qosOn gates the admission path so a guard-free kernel pays one
	// boolean test.
	qos   QoSConfig
	qosOn bool

	// PL interrupt routing (§IV-D). pcapDone lists the owners of PCAP
	// transfers that completed since the last interrupt was handled — with
	// the request queue, back-to-back completions for different VMs can
	// share one physical interrupt. Each entry keeps the trace flow id of
	// the reconfiguration request it closes, so the completion IRQ lands
	// in the same causal chain as the hypercall that started it.
	plirqOwner [gic.NumPLIRQs]*PD
	pcapDone   []pcapOwner

	// Measurement stamps for the Table III phases.
	mgrEntryFrom  simclock.Cycles
	mgrEntryArmed bool
	mgrExitFrom   simclock.Cycles
	mgrExitArmed  bool
	mgrExecFrom   simclock.Cycles
	mgrExecArmed  bool

	// Console accumulates supervised UART output.
	Console strings.Builder

	// sd is the simulated SD card (block number -> 512-byte block).
	// sdMu guards the map header only — cores on concurrent goroutines
	// read and replace whole blocks; block contents are immutable once
	// stored.
	sd   map[uint32][]byte
	sdMu sync.Mutex

	// EagerVFP disables the lazy-switch policy of Table I: the full VFP
	// context is saved and restored on every world switch (ablation).
	EagerVFP bool

	// FlushTLBOnSwitch disables ASID tagging: the whole TLB is flushed on
	// every world switch, as a kernel without CONTEXTIDR management would
	// have to (ablation for the §III-C design choice).
	FlushTLBOnSwitch bool

	asidNext uint8

	// ddrNext is the DDR cursor (takeDDR): the next guest RAM or fresh
	// clone arena goes at or above it. cloneArenaFree is a LIFO free list
	// of reaped clones' arenas, so a reaped clone's tables-and-copies arena
	// is handed to the next fork (clone.go).
	ddrNext        physmem.Addr
	cloneArenaFree []physmem.Addr
	// cloneTables holds each image's captured clone page table
	// (cloneTable), so that every fork after an image's first shares its
	// frames.
	cloneTables map[*checkpoint.Image]*mmu.TableImage
}

// NewKernel boots a Mini-NOVA kernel on a fresh single-core machine — the
// paper's CPU0-only configuration.
func NewKernel() *Kernel { return NewKernelSMP(1) }

// NewKernelSMP boots a Mini-NOVA kernel on a machine with ncores
// simulated Cortex-A9 cores: shared bus, per-core clock cursors, L1
// caches, TLBs, private timers and GIC CPU interfaces — the dual-core
// Zynq-7000 at ncores == 2. Clock aliases core 0's clock; on a
// single-core machine it is the only one. A multi-core machine carries
// way-partitioned L2 slices so concurrent core goroutines never share
// mutable cache state.
func NewKernelSMP(ncores int) *Kernel {
	if ncores < 1 {
		panic("nova: need at least one core")
	}
	clock := simclock.New()
	bus := physmem.NewBus()
	// The kernel's own regions, its text through the bitstream store.
	bus.Carve(physKernelCode, uint32(physGuests-physKernelCode))
	g := gic.NewMP(ncores)
	k := &Kernel{
		Clock:     clock,
		Bus:       bus,
		GIC:       g,
		Alloc:     mmu.NewFrameAllocator(physTables, 8<<20),
		Sched:     sched.New(ncores, simclock.FromMillis(DefaultQuantumMs)),
		Probes:    measure.NewSet(),
		committer: simclock.NewCommitter(ncores),
		hwByID:    make(map[uint32]*hwRequest),
		sd:        make(map[uint32][]byte),
		asidNext:  1,
		ddrNext:   physGuests,
	}
	// Kernel address space: global mappings only; ASID 0. One table,
	// shared by every core (§III-C: kernel mappings are global).
	k.kernelPT = mmu.NewPageTable(bus, k.Alloc)
	mapKernelInto(k.kernelPT)

	// Capability layer: mint the service portals and the kernel's own
	// device objects into the root space. PRR slot objects follow in
	// AttachFabric (their count is fabric-specific); everything is
	// delegated to the manager's domain by RegisterHwService.
	k.buildPortalObjects()
	k.rootSpace = capspace.NewSpace(rootSelSlotBase)
	k.hwqObj = capspace.NewObject(capspace.ObjSem, "hwq", nil)
	k.pcapObj = capspace.NewObject(capspace.ObjPortal, "pcap", nil)
	k.storeObj = capspace.NewObject(capspace.ObjMemRegion, "bitstore",
		regionWindow{Base: BitstreamStorePA(), Size: 22 << 20})
	k.rootSpace.Insert(rootSelQueue, k.hwqObj, capspace.RightsAll)
	k.rootSpace.Insert(rootSelPCAP, k.pcapObj, capspace.RightsAll)
	k.rootSpace.Insert(rootSelStore, k.storeObj, capspace.RightsAll)

	hier := cache.NewA9WayPartitionedL2(ncores)
	for i := 0; i < ncores; i++ {
		cclk := clock
		if i > 0 {
			cclk = simclock.New()
		}
		c := &CoreCtx{
			ID:    i,
			Clock: cclk,
			CPU:   cpu.NewCore(cclk, bus, g, i, hier[i]),
			Timer: timer.NewFor(cclk, g, i),
		}
		c.CPU.Mode = cpu.ModeSVC
		c.CPU.CP15Write(cpu.CP15TTBR0, uint32(k.kernelPT.Base))
		c.CPU.CP15Write(cpu.CP15CONTEXTIDR, 0)
		c.CPU.CP15Write(cpu.CP15DACR, dacrFor(true))
		c.CPU.CP15Write(cpu.CP15SCTLR, 1)
		c.kctx = cpu.NewExecContext(c.CPU, fmt.Sprintf("mininova/cpu%d", i), KernelCodeVA, KernelCodeSize)
		c.edge.Fire = func(simclock.Cycles) { c.needResched = true }

		// Vector table (banked per core; handlers close over the core).
		c.CPU.Vectors.SWI = func(num int, args [4]uint32) uint32 { return k.onSWI(c, num, args) }
		c.CPU.Vectors.IRQ = func() { k.onIRQ(c) }
		c.CPU.Vectors.Undef = func(u cpu.UndefInfo) bool { return k.onUndef(c, u) }
		c.CPU.Vectors.DataAbort = func(f *mmu.Fault) bool { return k.onAbort(c, f) }
		c.CPU.Vectors.PrefetchAbort = func(f *mmu.Fault) bool { return k.onAbort(c, f) }
		k.Cores = append(k.Cores, c)
	}
	k.CPU = k.Cores[0].CPU

	if ncores > 1 {
		// SMP bring-up: each secondary core executes the kernel's init path
		// before guests start, leaving the kernel text resident in its cache
		// hierarchy — otherwise a mostly-idle service core pays a cold DDR
		// fetch for every line of its rarely-run IRQ/wake path for the whole
		// first lap of the fetch cursor. Warmed at time zero, before the
		// workload, so no clock is charged. The single-core machine keeps
		// the seed's cold-boot layout.
		for _, c := range k.Cores {
			for off := uint32(0); off < KernelCodeSize; off += cache.LineSize {
				c.CPU.Caches.FetchCost(physKernelCode + physmem.Addr(off))
			}
		}
	}

	// Kernel-owned interrupts. Banked ids enable on every core's
	// interface (each core's private timer drives its own quantum).
	g.Enable(gic.PrivateTimerIRQ)
	g.SetPriority(gic.PrivateTimerIRQ, 0x10)
	g.Enable(SGIReschedule)
	g.SetPriority(SGIReschedule, 0x08)
	g.Enable(gic.PCAPIRQ)
	g.SetPriority(gic.PCAPIRQ, 0x30)
	return k
}

// AttachFabric connects the programmable-logic model (built by the caller
// so its PRR capacities are scenario-specific) and stands up the managed
// reconfiguration pipeline over its PCAP.
func (k *Kernel) AttachFabric(f *pl.Fabric) {
	k.Fabric = f
	k.Reconfig = reconfig.New(k.Clock, f, k.Bus, BitstreamStorePA())
	k.Reconfig.Probes = k.Probes
	if k.Tracer != nil {
		k.Reconfig.Trace = k.Tracer.Core(k.reconfigCore().ID)
	}
	// Mint one hardware-task slot object per PRR into the root space.
	if len(f.PRRs) > maxPRRSlots {
		panic(fmt.Sprintf("nova: %d PRRs exceed the %d-selector hw-slot window", len(f.PRRs), maxPRRSlots))
	}
	k.slotObjs = k.slotObjs[:0]
	for i := range f.PRRs {
		o := capspace.NewObject(capspace.ObjHwSlot, fmt.Sprintf("prr%d", i), i)
		k.slotObjs = append(k.slotObjs, o)
		k.rootSpace.Insert(rootSelSlotBase+i, o, capspace.RightsAll)
	}
	if k.hwSvc != nil {
		k.delegateManagerPowers(k.hwSvc)
		k.bindManagerClocks()
	}
}

// bindManagerClocks pins the reconfiguration machinery to the manager
// service's home core: the PCAP completion line targets that core's GIC
// bank, and the fabric/pipeline default clocks become that core's
// cursor, so reconfiguration events fire on the goroutine that owns
// them. On a single-core machine all of it is core 0's already.
func (k *Kernel) bindManagerClocks() {
	if k.hwSvc == nil {
		return
	}
	clk := k.hwSvc.Core.Clock
	k.GIC.SetTarget(gic.PCAPIRQ, k.hwSvc.Core.ID)
	if k.Fabric != nil {
		k.Fabric.Clock = clk
		k.Reconfig.Clock = clk
		if k.Tracer != nil {
			// The pipeline's events fire on the manager core's goroutine
			// now; move its ring along with its clock.
			k.Reconfig.Trace = k.Tracer.Core(k.hwSvc.Core.ID)
		}
	}
}

// BindPLIRQ routes PL interrupt line (0..gic.NumPLIRQs-1) to pd as a
// synthetic level-triggered device: the line is registered and enabled in
// the PD's vGIC, targeted at the PD's home core, and its routing entry is
// installed — the construction hook scenario harnesses use to attach
// interrupt sources that do not come from a fabric PRR (IRQ-storm
// generators, modelled peripherals). Returns the GIC interrupt ID.
// Lines handed out by Fabric.AllocateIRQ grow from line 0 upward, so
// synthetic devices should bind from gic.NumPLIRQs-1 downward.
func (k *Kernel) BindPLIRQ(line int, pd *PD) int {
	if line < 0 || line >= gic.NumPLIRQs {
		panic("nova: PL line out of range")
	}
	irq := gic.PLIRQBase + line
	k.plirqOwner[line] = pd
	k.GIC.SetTarget(irq, pd.Core.ID)
	k.GIC.SetPriority(irq, 0x60)
	pd.VGIC.Register(irq)
	pd.VGIC.Enable(irq)
	if pd == pd.Core.Current {
		k.GIC.Enable(irq)
		pd.Core.Clock.Advance(CostDeviceAccess)
	}
	return irq
}

// RaisePL pulses PL interrupt line at the physical GIC — the model of an
// external device asserting its level-triggered line. The kernel's IRQ
// path routes it to the owning PD's vGIC on delivery.
func (k *Kernel) RaisePL(line int) {
	k.GIC.Raise(gic.PLIRQBase + line)
}

// PDConfig parameterizes CreatePD.
type PDConfig struct {
	Name     string
	Priority int
	Caps     Capability
	Guest    Guest
	// Affinity restricts which cores may host the PD (zero = any). The
	// scheduler chooses the home core from this mask; the PD's vCPU,
	// contexts and interrupt routing bind to that core.
	Affinity sched.CPUMask
	// CodeBase/CodeSize locate the guest's text inside its address space
	// (defaults: GuestKernelBase, 64 KB).
	CodeBase uint32
	CodeSize uint32
	// StartSuspended creates the PD in the suspend queue (user services,
	// paper §III-D: "some user service applications of Mini-NOVA are in
	// the suspend queue because they are only invoked when necessary").
	StartSuspended bool
}

// nextASID hands out the next address-space identifier. ASIDs are 8-bit
// on the A9; once clone fleets push past 255 domains the allocator wraps
// (skipping the reserved 0) and from then on every world switch flushes
// the TLB — correct, just slower, exactly like an ASID-rollover flush on
// real hardware.
func (k *Kernel) nextASID() uint8 {
	a := k.asidNext
	k.asidNext++
	if k.asidNext == 0 {
		k.asidNext = 1
		k.FlushTLBOnSwitch = true
	}
	return a
}

// CreatePD builds a protection domain: address space, vCPU, vGIC, and the
// guest's execution context, then places it on its home core's run or
// suspend queue. Its RAM comes from the DDR cursor (takeDDR), so it panics
// once DDR is full.
func (k *Kernel) CreatePD(cfg PDConfig) *PD {
	if cfg.CodeBase == 0 {
		cfg.CodeBase = GuestKernelBase
	}
	if cfg.CodeSize == 0 {
		cfg.CodeSize = 64 << 10
	}
	ramBase := k.takeDDR("guest RAM of PD", cfg.Name, GuestRAMSize, physmem.FrameSize, guestStagger)
	table := guestTable(k.Bus, k.allocFor(), guestRegions(ramBase), mmu.APFull)
	pd := k.newPD(cfg.Name, cfg.Priority, cfg.Caps, table, cfg.Guest)
	pd.RAMBase, pd.RAMSize = ramBase, GuestRAMSize
	if k.hwSvc != nil && pd != k.hwSvc {
		// The manager acts on clients through delegated PD capabilities:
		// every domain born after the service registers is handed over.
		k.delegateClientHandle(pd)
	}
	if k.qosOn {
		k.initQoS(pd)
	}
	pd.VCPU.TTBR = uint32(pd.Table.Base)
	pd.VCPU.ASID = pd.ASID
	pd.VCPU.DACR = dacrFor(true) // guests boot in guest-kernel context
	pd.VCPU.QuantumLeft = k.Sched.Quantum()
	k.startPD(pd, cfg.Affinity, cfg.CodeBase, cfg.CodeSize)
	if !cfg.StartSuspended && k.Sched.Enqueue(&pd.node) {
		k.traceSched(trace.KindSchedWake, pd)
	}
	return pd
}

// newPD gives a new PD its identity: the next ID, a capability space
// minted from its boot grants, a vGIC, an ASID, its kernel-data slot and
// its virtual timer. table is built first, so the ASID is drawn after it.
func (k *Kernel) newPD(name string, prio int, grants Capability, table *mmu.PageTable, guest Guest) *PD {
	id := len(k.PDs)
	pd := &PD{
		ID:       id,
		Name_:    name,
		Priority: prio,
		Caps:     grants,
		Space:    capspace.NewSpace(SelSelf + 1), // grows for the manager's and granted selectors
		VGIC:     NewVGIC(),
		Table:    table,
		ASID:     k.nextASID(),
		Guest:    guest,
		kdata:    KernelDataVA + uint32(id)*0x400,
	}
	k.bindVirtualTimer(pd)
	k.populateCaps(pd, grants)
	return pd
}

// startPD places pd on a home core within affinity (zero = any), gives it
// its execution context over [codeBase, codeBase+codeSize) and its guest
// coroutine, and registers it with the kernel. The PD runs once something
// enqueues or wakes it.
func (k *Kernel) startPD(pd *PD, affinity sched.CPUMask, codeBase, codeSize uint32) {
	pd.node = sched.NewNode(pd, pd.Priority, affinity)
	pd.Core = k.Cores[k.Sched.Place(&pd.node)]
	pd.Env = &Env{K: k, PD: pd, Ctx: cpu.NewExecContext(pd.Core.CPU, pd.Name_, codeBase, codeSize)}
	k.spawn(pd)
	k.PDs = append(k.PDs, pd)
	if k.Tracer != nil {
		k.traceVGIC(pd)
	}
}

// RegisterHwService names the PD running the Hardware Task Manager; the
// HcHwTaskRequest path wakes it (§IV-E). Registration is the boot-time
// delegation step: the kernel hands the service its powers — the
// request-queue semaphore, the PCAP, the bitstream store region, every
// PRR's hardware-task slot, and a client capability per existing PD —
// as capabilities in the service's table. The manager portals then
// rights-check those capabilities; there is no ambient privilege.
func (k *Kernel) RegisterHwService(pd *PD) {
	if pd.Caps&CapHwManager == 0 {
		panic("nova: hardware service PD lacks CapHwManager")
	}
	k.hwSvc = pd
	k.delegateManagerPowers(pd)
	k.bindManagerClocks()
}

// delegateManagerPowers copies the kernel's device objects out of the
// root space into the manager's table (call-only), plus a client
// capability for every PD created before registration.
func (k *Kernel) delegateManagerPowers(svc *PD) {
	k.rootSpace.Delegate(rootSelQueue, svc.Space, SelMgrQueue, capspace.RightCall)
	k.rootSpace.Delegate(rootSelPCAP, svc.Space, SelMgrPCAP, capspace.RightCall)
	k.rootSpace.Delegate(rootSelStore, svc.Space, SelMgrStore, capspace.RightCall)
	for i := range k.slotObjs {
		k.rootSpace.Delegate(rootSelSlotBase+i, svc.Space, SelMgrSlotBase+i, capspace.RightCall)
	}
	for _, pd := range k.PDs {
		if pd != svc {
			k.delegateClientHandle(pd)
		}
	}
}

// delegateClientHandle hands pd's identity to the registered manager as
// a call-only client capability, at the lowest free selector from
// SelGrantBase up, which the PD keeps: a re-delegation (AttachFabric
// after RegisterHwService) refreshes it and the manager's table does not
// grow.
func (k *Kernel) delegateClientHandle(pd *PD) {
	if pd.clientSel != 0 {
		pd.Space.Delegate(SelSelf, k.hwSvc.Space, pd.clientSel, capspace.RightCall)
		return
	}
	if sel, err := pd.Space.DelegateFree(SelSelf, k.hwSvc.Space, SelGrantBase, capspace.RightCall); err == capspace.OK {
		pd.clientSel = sel
	}
}

// spawn makes pd's guest a runtime coroutine: nothing runs until the
// first activate, every activate resumes it until its next yield, and
// stop unwinds it with killSentinel. A panic other than killSentinel
// leaves the coroutine and re-raises in the caller of next, so a guest
// fault surfaces on the goroutine that runs the kernel loop.
func (k *Kernel) spawn(pd *PD) {
	pd.next, pd.stop = iter.Pull(func(yield func(yieldReason) bool) {
		defer func() {
			if r := recover(); r != nil && r != (killSentinel{}) {
				panic(r)
			}
		}()
		pd.yield = yield
		pd.Guest.RunSlice(pd.Env)
		// Retire the PD and release its scheduler placement. Portal callers
		// parked on the dead PD (queued, or awaiting its reply) would block
		// forever — fail them out.
		pd.dead = true
		if k.Sched.Unplace(&pd.node) {
			k.traceSched(trace.KindSchedBlock, pd)
		}
		k.failPortalCallers(pd)
		k.reconfigPurge(pd)
	})
}

// reconfigPurge sheds a dead PD's reconfiguration state: queued requests
// leave the PCAP queue before they can download into a PRR whose owner
// is gone, in-flight work is orphaned (its callbacks disarmed), and
// already-completed transfers awaiting their interrupt are dropped from
// pcapDone — the completion would otherwise inject into a retired vGIC.
// The pipeline and pcapDone belong to the manager core, so a victim
// homed elsewhere defers the purge to the barrier.
func (k *Kernel) reconfigPurge(pd *PD) {
	if k.Reconfig == nil {
		return
	}
	k.onCore(pd.Core, k.reconfigCore(), func(pd *PD) {
		k.Reconfig.PurgeOwner(pd)
		kept := k.pcapDone[:0]
		for _, own := range k.pcapDone {
			if own.pd != pd {
				kept = append(kept, own)
			}
		}
		for i := len(kept); i < len(k.pcapDone); i++ {
			k.pcapDone[i] = pcapOwner{}
		}
		k.pcapDone = kept
	}, pd)
}

// yield hands the core from the active PD back to the kernel loop,
// preserving the architectural mode across the switch-out, and unwinds
// the guest with killSentinel if the PD was stopped while parked.
func (e *Env) yield(r yieldReason) {
	c := e.PD.Core.CPU
	savedMode, savedMask := c.Mode, c.IRQMasked
	// A ucos task coroutine nested in this guest reaches here on its own
	// goroutine, not on the one running RunSlice. That is sound because
	// runtime.coroswitch is goroutine-agnostic — runtime/coro.go: "if
	// another goroutine calls coroswitch(c), the caller becomes the
	// goroutine blocked in c" — so the task's goroutine parks in the PD's
	// coroutine and the next activate resumes it where it trapped.
	if !e.PD.yield(r) {
		panic(killSentinel{})
	}
	c.Mode, c.IRQMasked = savedMode, savedMask
}

// CheckPreempt is the guest's chunk-boundary poll: deliver pending vIRQs,
// then give up the core if the kernel asked for it.
func (e *Env) CheckPreempt() {
	e.PendingVIRQ()
	if e.PD.Core.needResched {
		e.yield(yieldPreempt)
		e.PendingVIRQ()
	}
}

// Block suspends the calling PD until another event re-enqueues it. Used
// by kernel handlers running in the caller's goroutine.
func (e *Env) block() {
	if e.K.Sched.Dequeue(&e.PD.node) {
		e.K.traceSched(trace.KindSchedBlock, e.PD)
	}
	e.PD.Core.needResched = true
	e.yield(yieldBlocked)
}

// Run executes the system until the given absolute simulated time on
// one host goroutine: RunParallel with a single shard.
func (k *Kernel) Run(until simclock.Cycles) { k.RunParallel(until, 1) }

// RunFor advances the system by d cycles.
func (k *Kernel) RunFor(d simclock.Cycles) { k.Run(k.Clock.Now() + d) }

// Shutdown stops every guest coroutine, in PD order, on the caller's
// goroutine; each guest unwinds its nested coroutines (ucos tasks) on the
// way out. The kernel is unusable afterwards; tests and benchmarks call
// it so no guest goroutine outlives its kernel. Calling it again is a
// no-op.
func (k *Kernel) Shutdown() {
	for _, pd := range k.PDs {
		if pd.stop != nil { // a destroyed clone's coroutine is gone
			pd.stop()
		}
	}
}

// touchPDState charges the kernel-data traffic of saving or restoring one
// PD's descriptor + vCPU (vcpuActiveWords words). Distinct PDs occupy
// distinct kernel-data lines, so more VMs means a larger switch-path
// working set — one of Table III's two growth mechanisms.
func (k *Kernel) touchPDState(c *CoreCtx, pd *PD, write bool) {
	c.kctx.StreamRange(pd.kdata, vcpuActiveWords*4, 4, write)
}

// physicalLine reports whether irq is a per-VM maskable hardware line
// (the PL-to-PS interrupts). Virtual lines (the guest timer PPI) and
// kernel-owned lines (PCAP) are never touched on switches.
func physicalLine(irq int) bool {
	return irq >= gic.PLIRQBase && irq < gic.PLIRQBase+gic.NumPLIRQs
}

// armVirtualTimer schedules the current PD's next virtual tick from its
// preserved remaining time.
func (k *Kernel) armVirtualTimer(pd *PD) {
	if pd.VCPU.TimerPeriod == 0 || pd.vtimer.Queued() {
		return
	}
	d := pd.timerRemaining
	if d == 0 {
		d = pd.VCPU.TimerPeriod
	}
	clk := pd.Core.Clock
	clk.Schedule(&pd.vtimer, clk.Now()+d)
}

// bindVirtualTimer points the PD's owned virtual-timer event at its tick
// handler, once, when the PD is built.
func (k *Kernel) bindVirtualTimer(pd *PD) {
	pd.vtimer.Fire = func(simclock.Cycles) {
		pd.timerRemaining = 0
		if pd.dead || pd.VCPU.TimerPeriod == 0 {
			return
		}
		pd.VGIC.Inject(gic.PrivateTimerIRQ)
		k.wakeIfIdle(pd)
		if pd.Core.Current == pd || pd.idleWaiting {
			k.armVirtualTimer(pd)
		}
	}
}

// parkVirtualTimer suspends the PD's virtual tick, preserving the time
// remaining until the next expiry.
func (k *Kernel) parkVirtualTimer(pd *PD) {
	if !pd.vtimer.Queued() {
		return
	}
	clk := pd.Core.Clock
	pd.timerRemaining = since(pd.vtimer.When, clk.Now())
	clk.Cancel(&pd.vtimer)
}

// worldSwitch performs the full VM switch of §III-A/B/C on core c: save
// the outgoing vCPU, read back and mask its interrupt set, restore the
// incoming vCPU (TTBR/ASID/DACR via CP15 — the address-space switch),
// unmask its enabled interrupts, and arm lazy VFP.
func (k *Kernel) worldSwitch(c *CoreCtx, next *PD) {
	if c.Current == next {
		return
	}
	t0 := c.Clock.Now()
	c.kctx.Exec(48) // scheduler pick + switch trampoline

	prev := c.Current
	if prev != nil {
		prev.VCPU.SaveActive(c.CPU)
		if !prev.idleWaiting {
			// An idle-waiting VM keeps its virtual timer live so its next
			// tick can wake it (guest WFI semantics).
			k.parkVirtualTimer(prev)
		}
		k.touchPDState(c, prev, true)
		// Mask the outgoing VM's hardware lines. The 16 PL_IRQs share one
		// distributor enable word, so the whole set costs a single
		// GICD_ICENABLER write regardless of how many lines the VM holds.
		masked := false
		for irq := range prev.VGIC.lines() {
			if physicalLine(irq) {
				k.GIC.Disable(irq)
				masked = true
			}
		}
		if masked {
			c.kctx.Exec(8)
			c.Clock.Advance(CostDeviceAccess)
		}
	}

	k.touchPDState(c, next, false)
	next.VCPU.RestoreActive(c.CPU) // CP15 writes: TTBR, ASID, DACR
	unmasked := false
	for irq, enabled := range next.VGIC.lines() {
		if enabled && physicalLine(irq) {
			k.GIC.Enable(irq)
			unmasked = true
		}
	}
	if unmasked {
		c.kctx.Exec(8)
		c.Clock.Advance(CostDeviceAccess)
	}
	if k.EagerVFP {
		// Ablation: unconditional VFP save + restore on every switch.
		c.Clock.Advance(2 * cpu.VFPContextCost())
		c.CPU.VFPEnabled = true
	} else {
		// Lazy switch (Table I): VFP stays with its owner until touched.
		c.CPU.VFPEnabled = false
	}
	if k.FlushTLBOnSwitch {
		c.CPU.CP15Write(cpu.CP15TLBIALL, 0)
	}
	c.kctx.Exec(24) // exception return path

	c.Current = next
	k.armVirtualTimer(next)
	next.Switches++
	prevID := uint64(0) // 0 = idle; PD ids are shifted by one
	if prev != nil {
		prevID = uint64(prev.ID) + 1
	}
	k.hotSpan(c, hotVMSwitch, t0, prevID, uint64(next.ID)+1)
}

// onUndef handles undefined-instruction traps: privileged-op emulation and
// the lazy VFP switch of Table I.
func (k *Kernel) onUndef(c *CoreCtx, u cpu.UndefInfo) bool {
	c.kctx.Exec(20)
	switch u.Kind {
	case cpu.UndefVFP:
		return k.lazyVFPSwitch(c)
	case cpu.UndefCP15:
		// A guest touched a privileged system register directly. Mini-NOVA
		// emulates harmless reads and rejects writes (guests must use
		// hypercalls, §III-A).
		c.kctx.Exec(30)
		return !u.Wr
	default:
		return false
	}
}

func (k *Kernel) lazyVFPSwitch(c *CoreCtx) bool {
	cur := c.Current
	if cur == nil {
		c.CPU.VFPEnabled = true
		return true
	}
	// Save the previous owner's context, restore the current PD's.
	if c.vfpOwner != nil && c.vfpOwner != cur {
		c.Clock.Advance(cpu.VFPContextCost())
		c.vfpOwner.VCPU.VFPValid = true
	}
	if cur.VCPU.VFPValid {
		c.Clock.Advance(cpu.VFPContextCost())
	}
	c.vfpOwner = cur
	c.CPU.VFPEnabled = true
	c.kctx.Exec(25)
	return true
}

// onAbort handles MMU faults. Faults inside a guest's own space are the
// guest's business (delivered as a vIRQ-like upcall is out of scope —
// Mini-NOVA kills the offender per "a permission-denied error will
// occur"); the kernel only logs and refuses.
func (k *Kernel) onAbort(c *CoreCtx, f *mmu.Fault) bool {
	c.kctx.Exec(40)
	if c.Current != nil {
		c.Current.Faults++
		// A write through a clone's read-only mapping of a shared frame is
		// not an offence — it is the copy-on-write break (clone.go).
		if c.Current.clone != nil && f.Write && f.Kind == mmu.FaultPermission {
			return k.cowBreak(c, c.Current, f)
		}
	}
	return false
}

// onIRQ is the physical interrupt path of §III-B/§IV-D on one core:
// acknowledge at that core's GIC interface, EOI, then route — quantum
// timer to the core's scheduler, reschedule SGI to the core's resched
// flag, PCAP to the launching VM, PL lines to their owning VM's vGIC.
func (k *Kernel) onIRQ(c *CoreCtx) {
	t0 := c.Clock.Now() - cpu.CostExceptionEntry
	c.kctx.Exec(26) // vector + IRQ-mode entry + GIC interface read
	c.Clock.Advance(2 * CostDeviceAccess)
	id := k.GIC.Acknowledge(c.ID)
	if id == gic.SpuriousID {
		return
	}
	k.GIC.EOI(c.ID, id)
	switch {
	case id == gic.PrivateTimerIRQ:
		c.kctx.Exec(14)
		c.quantumExpired = true
		c.needResched = true
	case id == SGIReschedule:
		// A peer core demanded a reschedule (cross-core wake, §III-D
		// generalized): re-enter the scheduler at the next boundary
		// without charging the current PD's quantum.
		c.kctx.Exec(12)
		c.needResched = true
	case id == gic.PCAPIRQ:
		c.kctx.Exec(18)
		// Drain every completion since the last interrupt: with the
		// reconfiguration queue, the next transfer starts before this one
		// is acknowledged, so the single pending bit can cover several
		// owners. The line is pinned to the manager's core; completions for
		// clients homed elsewhere defer their vGIC injection to the barrier
		// (the owning core's goroutine must not be written mid-epoch).
		for _, own := range k.pcapDone {
			if own.pd.Core == c {
				k.deliverCompletion(own, id)
			} else {
				// The owner may die this epoch on its own core; its dead
				// flag is safe to read only at the barrier.
				k.post(c, func() { k.deliverCompletion(own, id) })
			}
		}
		k.pcapDone = k.pcapDone[:0]
	case physicalLine(id):
		c.kctx.Exec(22)
		c.kctx.Touch(KernelDataVA+0x8000+uint32(id)*8, false) // routing table
		if pd := k.plirqOwner[id-gic.PLIRQBase]; pd != nil {
			// Distribution walks the owner VM's vGIC record list (Fig. 2)
			// and updates the virtual IRQ state — per-VM kernel data that
			// gets colder as more VMs rotate through the caches: six
			// record reads, then two state writes.
			c.kctx.StreamRange(pd.kdata+0x100, 48, 8, false)
			c.kctx.StreamRange(pd.kdata+0x130, 16, 8, true)
			c.kctx.Exec(14)
			if pd.VGIC.Inject(id) {
				k.wakeIfIdle(pd)
				k.Probes.Add(measure.PhasePLIRQEntry, c.Clock.Now()-t0)
			}
		}
	default:
		c.kctx.Exec(10)
	}
}

// wakeIfIdle re-enqueues a PD parked in paravirtualized idle when an
// injection arrives for it.
func (k *Kernel) wakeIfIdle(pd *PD) {
	if pd.idleWaiting {
		k.wake(pd)
	}
}

// maybePreemptFor requests a reschedule on pd's home core when pd
// outranks what that core is running. A same-core wake flags the core; a
// cross-core wake arrives here only inside a barrier commit (wakeFrom
// posts it), where the SGI is latched on the peer's GIC interface so the
// target takes it at its next epoch entry — the model's inter-processor
// interrupt, with its doorbell cost charged on the posting core.
func (k *Kernel) maybePreemptFor(pd *PD) {
	target := pd.Core
	// Only a runnable resident PD of equal or higher priority shields its
	// core from the wake; a blocked one (including the woken PD itself,
	// resident but just re-enqueued) will be rescheduled anyway.
	cur := target.Current
	if cur != nil && cur != pd && cur.node.Queued() && pd.Priority <= cur.Priority {
		return
	}
	if k.inCommit {
		k.GIC.RaiseSGI(target.ID, SGIReschedule)
		return
	}
	target.needResched = true
}

// wake moves a PD into its home core's run queue and preempts if it
// outranks that core's current PD.
func (k *Kernel) wake(pd *PD) {
	if pd.dead || pd.frozen {
		return
	}
	pd.node.Priority = pd.Priority
	if k.Sched.Enqueue(&pd.node) {
		k.traceSched(trace.KindSchedWake, pd)
	}
	k.maybePreemptFor(pd)
}

// ConsoleString returns everything guests printed so far.
func (k *Kernel) ConsoleString() string { return k.Console.String() }

// SDWriteImage preloads the simulated SD card (tests, examples).
func (k *Kernel) SDWriteImage(block uint32, data []byte) {
	for len(data) > 0 {
		b := make([]byte, 512)
		n := copy(b, data)
		k.sd[block] = b
		data = data[n:]
		block++
	}
}

func (k *Kernel) String() string {
	return fmt.Sprintf("mininova: %d cores, %d PDs, %s", len(k.Cores), len(k.PDs), k.Clock.Now())
}
