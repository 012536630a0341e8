package ucos

import (
	"strings"

	"repro/internal/abi"
	"repro/internal/cpu"
	"repro/internal/gic"
	"repro/internal/hwtask"
	"repro/internal/measure"
	"repro/internal/mmu"
	"repro/internal/physmem"
	"repro/internal/pl"
	"repro/internal/simclock"
	"repro/internal/timer"
)

// Native memory layout (flat VA==PA, privileged).
const (
	nativeKernelCode = 0x0030_0000
	nativeTaskCode   = 0x0040_0000
	nativeMgrCode    = 0x0050_0000
	nativeDataBase   = 0x0100_0000
	nativeStorePA    = physmem.DDRBase + 0xA0_0000
)

// NativeMachine is the paper's baseline platform: uC/OS-II running
// natively in SVC mode on the bare (simulated) Zynq PS, with the Hardware
// Task Manager "implemented as a uCOS-II function" (§V-B) — a direct call
// with no traps, no world switch and no page-table updates.
type NativeMachine struct {
	Clock  *simclock.Clock
	Bus    *physmem.Bus
	GIC    *gic.GIC
	CPU    *cpu.CPU
	Timer  *timer.PrivateTimer
	Fabric *pl.Fabric
	Mgr    *hwtask.Manager

	actions *hwtask.NativeActions
	mgrCtx  *cpu.ExecContext

	irqEntry func(irq int)
	console  strings.Builder
	dataNext physmem.Addr
	dataWin  pl.Window
	reqSeq   uint32

	// MgrInvocations counts direct manager calls (the native "requests").
	MgrInvocations uint64

	// Probes records the baseline's Table III phases: natively only the
	// manager execution is nonzero — there is no trap, no world switch
	// and no vGIC injection (§V-B: entry/exit/IRQ-entry measured as 0).
	Probes *measure.Set
}

// NewNativeMachine assembles the baseline system: machine, flat address
// space, fabric with the paper's PRR layout and behavioural cores, and a
// manager with the paper's task set.
func NewNativeMachine() *NativeMachine {
	clock := simclock.New()
	bus := physmem.NewBus()
	g := gic.New()
	c := cpu.New(clock, bus, g)

	caps := hwtask.PaperPRRCapacities()
	fabric := hwtask.NewPaperFabric(clock, bus, g, caps)
	mgr := hwtask.NewManager(len(caps), nativeMgrCode+0x8000)
	if err := hwtask.InstallTaskSet(mgr, bus, nativeStorePA, caps); err != nil {
		panic(err)
	}

	nm := &NativeMachine{
		Clock:  clock,
		Bus:    bus,
		GIC:    g,
		CPU:    c,
		Timer:  timer.New(clock, g),
		Fabric: fabric,
		Mgr:    mgr,
		actions: &hwtask.NativeActions{
			Fabric:   fabric,
			Sections: map[int]pl.Window{},
			StorePA:  uint32(nativeStorePA),
		},
		dataNext: nativeDataBase,
		Probes:   measure.NewSet(),
	}
	nm.mgrCtx = cpu.NewExecContext(c, "native/hwmgr", nativeMgrCode, 8<<10)

	// Flat privileged address space: sections over RAM and devices, all
	// domain 0 as client, so caches and (section-grained) TLB behave as
	// on the real baseline.
	alloc := mmu.NewFrameAllocator(physmem.DDRBase+0x0390_0000, 4<<20)
	pt := mmu.NewPageTable(bus, alloc)
	for va := uint32(physmem.DDRBase); va < uint32(physmem.DDRBase)+0x0390_0000; va += 1 << 20 {
		pt.MapSection(va, physmem.Addr(va), 0, mmu.APPriv)
	}
	for _, dev := range []uint32{uint32(physmem.AXIGP0Base), 0xF800_0000, 0xF8F0_0000, uint32(physmem.UARTBase)} {
		pt.MapSection(dev, physmem.Addr(dev), 0, mmu.APPriv)
	}
	c.Mode = cpu.ModeSVC
	c.CP15Write(cpu.CP15TTBR0, uint32(pt.Base))
	c.CP15Write(cpu.CP15DACR, uint32(mmu.DomainClient))
	c.CP15Write(cpu.CP15SCTLR, 1)
	c.VFPEnabled = true // no lazy switching natively

	// Interrupt entry: acknowledge and hand to the OS (EOI comes from the
	// OS's ISR epilogue via Machine.EOI).
	c.Vectors.IRQ = func() {
		clock.Advance(2 * 20)
		id := g.Acknowledge(0)
		if id == gic.SpuriousID {
			return
		}
		if nm.irqEntry != nil {
			nm.irqEntry(id)
		}
	}
	g.Enable(gic.PrivateTimerIRQ)
	g.SetPriority(gic.PrivateTimerIRQ, 0x10)
	g.Enable(gic.PCAPIRQ)
	return nm
}

// NewContext implements Machine.
func (nm *NativeMachine) NewContext(name string, base, size uint32) *cpu.ExecContext {
	return cpu.NewExecContext(nm.CPU, name, base, size)
}

// KernelCodeBase implements Machine.
func (nm *NativeMachine) KernelCodeBase() uint32 { return nativeKernelCode }

// TaskCodeBase implements Machine.
func (nm *NativeMachine) TaskCodeBase(prio int) uint32 {
	return nativeTaskCode + uint32(prio)*(16<<10)
}

// Now implements Machine.
func (nm *NativeMachine) Now() simclock.Cycles { return nm.Clock.Now() }

// SetIRQEntry implements Machine.
func (nm *NativeMachine) SetIRQEntry(fn func(irq int)) { nm.irqEntry = fn }

// EnableIRQ implements Machine: direct GIC access (the native OS owns it).
func (nm *NativeMachine) EnableIRQ(irq int) {
	nm.Clock.Advance(20)
	nm.GIC.Enable(irq)
}

// DisableIRQ implements Machine.
func (nm *NativeMachine) DisableIRQ(irq int) {
	nm.Clock.Advance(20)
	nm.GIC.Disable(irq)
}

// EOI implements Machine.
func (nm *NativeMachine) EOI(irq int) {
	nm.Clock.Advance(20)
	nm.GIC.EOI(0, irq)
}

// SetTickTimer implements Machine: the physical private timer.
func (nm *NativeMachine) SetTickTimer(period simclock.Cycles) {
	if period == 0 {
		nm.Timer.Stop()
		return
	}
	nm.Timer.Start(period, false)
}

// CheckPreempt implements Machine: nothing above the OS natively; the
// interrupt poll already happens inside every Exec.
func (nm *NativeMachine) CheckPreempt() {}

// Idle implements Machine: native WFI — advance to the next timer event
// so the spin does not dominate simulation time.
func (nm *NativeMachine) Idle() {
	nm.Clock.Advance(64)
	nm.CPU.PollIRQ()
}

// Print implements Machine: direct UART.
func (nm *NativeMachine) Print(s string) {
	for range s {
		nm.Clock.Advance(20)
	}
	nm.console.WriteString(s)
}

// Console returns everything printed.
func (nm *NativeMachine) Console() string { return nm.console.String() }

// CacheFlush implements Machine.
func (nm *NativeMachine) CacheFlush() { nm.CPU.CP15Write(cpu.CP15DCCISW, 0) }

// EnterUserCtx implements Machine: no privilege split natively.
func (nm *NativeMachine) EnterUserCtx() {}

// EnterKernelCtx implements Machine.
func (nm *NativeMachine) EnterKernelCtx() {}

// VMID implements Machine.
func (nm *NativeMachine) VMID() int { return 0 }

// SetupDataSection implements Machine: carve a physically contiguous
// window and register it with the manager's hwMMU actions.
func (nm *NativeMachine) SetupDataSection(size uint32) (uint32, bool) {
	size = (size + 0xFFF) &^ 0xFFF
	base := nm.dataNext
	nm.dataNext += physmem.Addr(size)
	nm.dataWin = pl.Window{Base: base, Size: size, Valid: true}
	nm.actions.Sections[0] = nm.dataWin
	return uint32(base), true
}

// RequestHwTask implements Machine: the direct manager call of the native
// baseline — no hypercall, no context switch.
func (nm *NativeMachine) RequestHwTask(taskID uint16) HwGrant {
	nm.MgrInvocations++
	nm.reqSeq++
	if !nm.Fabric.PCAP.Busy() {
		for r := range nm.Mgr.PRRs {
			nm.Mgr.NotifyLoaded(r)
		}
	}
	req := abi.Request{
		Kind:     abi.ReqAcquire,
		ID:       nm.reqSeq,
		ClientID: 0,
		TaskID:   taskID,
		DataVA:   uint32(nm.dataWin.Base),
	}
	t0 := nm.Clock.Now()
	reply := nm.Mgr.Handle(nm.mgrCtx, req, nm.actions)
	d := nm.Clock.Now() - t0
	nm.Probes.Get(measure.PhaseMgrExec).Add(d)
	g := HwGrant{
		Status: abi.ReplyStatus(reply),
		PRR:    abi.ReplyPRR(reply),
		IRQ:    abi.ReplyIRQ(reply),
		DataVA: uint32(nm.dataWin.Base),
	}
	if g.PRR >= 0 {
		g.IfaceVA = uint32(nm.Fabric.GroupBase(g.PRR))
	}
	return g
}

// ReleaseHwTask implements Machine.
func (nm *NativeMachine) ReleaseHwTask(taskID uint16) {
	nm.reqSeq++
	req := abi.Request{Kind: abi.ReqRelease, ID: nm.reqSeq, ClientID: 0, TaskID: taskID}
	nm.Mgr.Handle(nm.mgrCtx, req, nm.actions)
}

// ReconfigStatus implements Machine: the native baseline has no fault
// plan, so the download either runs or is done.
func (nm *NativeMachine) ReconfigStatus() uint32 {
	if nm.Fabric.PCAP.Busy() {
		return abi.StatusReconfig
	}
	return abi.StatusOK
}

var _ Machine = (*NativeMachine)(nil)
var _ Machine = (*VirtMachine)(nil)
