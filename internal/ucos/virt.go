package ucos

import (
	"repro/internal/abi"
	"repro/internal/cpu"
	"repro/internal/hwtask"
	"repro/internal/nova"
	"repro/internal/simclock"
)

// VirtMachine is the paravirtualized port: uC/OS-II de-privileged into a
// Mini-NOVA protection domain. Every method that touches sensitive state
// issues one of the kernel's hypercalls — 17 distinct calls in total,
// matching the paper's count of hypercalls used by the ported uCOS-II:
//
//	HcUARTWrite, HcVMID, HcYield, HcTimerSet, HcTimerCancel,
//	HcIRQEnable, HcIRQDisable, HcIRQEOI, HcCacheFlush, HcTLBFlush,
//	HcMapPage, HcRegionCreate, HcDACRSwitch, HcHwTaskRequest,
//	HcHwTaskRelease, HcHwTaskStatus, HcSuspend
type VirtMachine struct {
	Env *nova.Env

	dataVA    uint32
	dataSize  uint32
	ifaceNext uint32
	ramNext   uint32 // next unassigned RAM offset for data sections
}

// NewVirtMachine wraps a PD environment.
func NewVirtMachine(env *nova.Env) *VirtMachine {
	return &VirtMachine{
		Env:       env,
		ifaceNext: nova.GuestIfaceBase,
		ramNext:   3 << 20, // data sections carved from the last RAM MB
	}
}

// Name implements Machine.
func (m *VirtMachine) Name() string { return "virt/" + m.Env.PD.Name_ }

// NewContext implements Machine: task contexts execute on the PD's home
// core (the CPU its root context is bound to).
func (m *VirtMachine) NewContext(name string, base, size uint32) *cpu.ExecContext {
	return cpu.NewExecContext(m.Env.Ctx.CPU, name, base, size)
}

// KernelCodeBase implements Machine: the de-privileged kernel image.
func (m *VirtMachine) KernelCodeBase() uint32 { return nova.GuestKernelBase }

// TaskCodeBase implements Machine: tasks live in guest-user space.
func (m *VirtMachine) TaskCodeBase(prio int) uint32 {
	return nova.GuestUserBase + uint32(prio)*(16<<10)
}

// Now implements Machine.
func (m *VirtMachine) Now() simclock.Cycles { return m.Env.Now() }

// SetIRQEntry implements Machine: register the VM's IRQ entry with its
// vGIC (§III-B "the entry address of the virtual machine's IRQ handler is
// registered in vGIC").
func (m *VirtMachine) SetIRQEntry(fn func(irq int)) { m.Env.PD.VGIC.Entry = fn }

// EnableIRQ implements Machine.
func (m *VirtMachine) EnableIRQ(irq int) { m.Env.Hypercall(abi.HcIRQEnable, uint32(irq)) }

// DisableIRQ implements Machine.
func (m *VirtMachine) DisableIRQ(irq int) { m.Env.Hypercall(abi.HcIRQDisable, uint32(irq)) }

// EOI implements Machine.
func (m *VirtMachine) EOI(irq int) { m.Env.Hypercall(abi.HcIRQEOI, uint32(irq)) }

// SetTickTimer implements Machine: the guest timer is a virtual timer
// allocated by Mini-NOVA (§V-A).
func (m *VirtMachine) SetTickTimer(period simclock.Cycles) {
	if period == 0 {
		m.Env.Hypercall(abi.HcTimerCancel)
		return
	}
	m.Env.Hypercall(abi.HcTimerSet, uint32(period))
}

// CheckPreempt implements Machine: vIRQ delivery + hypervisor yield.
func (m *VirtMachine) CheckPreempt() { m.Env.CheckPreempt() }

// RestoreCursors rewinds the machine's allocation cursors to a
// checkpointed position, so a restored guest that later calls
// SetupDataSection or RequestHwTask carves the same addresses the
// template would have.
func (m *VirtMachine) RestoreCursors(s MachineSnap) {
	m.dataVA, m.dataSize = s.DataVA, s.DataSize
	m.ifaceNext, m.ramNext = s.IfaceNext, s.RamNext
}

// Idle implements Machine: paravirtualized WFI (HcSuspend mode 1).
func (m *VirtMachine) Idle() {
	m.Env.Hypercall(abi.HcSuspend, 1)
	m.Env.CheckPreempt()
}

// Print implements Machine (supervised UART).
func (m *VirtMachine) Print(s string) {
	for _, ch := range []byte(s) {
		m.Env.Hypercall(abi.HcUARTWrite, uint32(ch))
	}
}

// CacheFlush implements Machine.
func (m *VirtMachine) CacheFlush() { m.Env.Hypercall(abi.HcCacheFlush) }

// EnterUserCtx implements Machine (Table II DACR flip).
func (m *VirtMachine) EnterUserCtx() { m.Env.Hypercall(abi.HcDACRSwitch, 0) }

// EnterKernelCtx implements Machine.
func (m *VirtMachine) EnterKernelCtx() { m.Env.Hypercall(abi.HcDACRSwitch, 1) }

// VMID implements Machine.
func (m *VirtMachine) VMID() int { return int(m.Env.Hypercall(abi.HcVMID)) }

// SetupDataSection implements Machine: map pages at the conventional
// data-section VA from the tail of the VM's RAM, then register the region
// with the kernel (HcMapPage × n + HcRegionCreate).
func (m *VirtMachine) SetupDataSection(size uint32) (uint32, bool) {
	size = (size + 0xFFF) &^ 0xFFF
	va := uint32(nova.GuestDataSect)
	for off := uint32(0); off < size; off += 0x1000 {
		if m.Env.Hypercall(abi.HcMapPage, va+off, m.ramNext+off) != abi.StatusOK {
			return 0, false
		}
	}
	if m.Env.Hypercall(abi.HcRegionCreate, va, size) != abi.StatusOK {
		return 0, false
	}
	m.ramNext += size
	m.dataVA, m.dataSize = va, size
	return va, true
}

// RequestHwTask implements Machine (§IV-E: three arguments — task ID,
// interface VA, data-section VA).
func (m *VirtMachine) RequestHwTask(taskID uint16) HwGrant {
	iface := m.ifaceNext
	m.ifaceNext += 0x1000
	reply := m.Env.Hypercall(abi.HcHwTaskRequest, uint32(taskID), iface, m.dataVA)
	g := HwGrant{
		Status:  hwtask.StatusOf(reply),
		PRR:     hwtask.PRROf(reply),
		IRQ:     hwtask.IRQOf(reply),
		IfaceVA: iface,
		DataVA:  m.dataVA,
	}
	if g.Status != hwtask.ReplyOK && g.Status != hwtask.ReplyReconfig {
		m.ifaceNext -= 0x1000 // nothing was mapped
		g.IfaceVA = 0
	}
	return g
}

// ReleaseHwTask implements Machine.
func (m *VirtMachine) ReleaseHwTask(taskID uint16) {
	m.Env.Hypercall(abi.HcHwTaskRelease, uint32(taskID))
}

// ReconfigBusy implements Machine (PCAP completion polling, §IV-E).
func (m *VirtMachine) ReconfigBusy() bool {
	return m.Env.Hypercall(abi.HcHwTaskStatus, 0) == abi.StatusReconfig
}

// ReconfigStatus implements Machine: the raw HcHwTaskStatus reply, which
// distinguishes a download still in flight (StatusReconfig) from one the
// kernel gave up on (StatusFaulted).
func (m *VirtMachine) ReconfigStatus() uint32 {
	return m.Env.Hypercall(abi.HcHwTaskStatus, 0)
}

// Guest adapts an OS factory to nova.Guest so a uC/OS-II instance can be
// created as a protection domain. Setup runs once after boot to create
// the instance's tasks.
type Guest struct {
	GuestName string
	Setup     func(os *OS)
	// OS is populated when the PD first runs.
	OS *OS
}

// Name implements nova.Guest.
func (g *Guest) Name() string { return g.GuestName }

// RunSlice implements nova.Guest: construct the machine and boot. The
// deferred Shutdown unwinds this OS's task coroutines when the
// hypervisor tears the PD down.
func (g *Guest) RunSlice(env *nova.Env) {
	m := NewVirtMachine(env)
	g.OS = NewOS(g.GuestName, m)
	defer g.OS.Shutdown()
	if g.Setup != nil {
		g.Setup(g.OS)
	}
	g.OS.Run()
}
