package ucos

import (
	"repro/internal/abi"
	"repro/internal/cpu"
	"repro/internal/nova"
	"repro/internal/simclock"
)

// VirtMachine is the paravirtualized port: uC/OS-II de-privileged into a
// Mini-NOVA protection domain. Every method that touches sensitive state
// issues one of the kernel's hypercalls — 15 distinct calls in total,
// where the paper's ported uCOS-II uses 17:
//
//	HcUARTWrite, HcVMID, HcTimerSet, HcTimerCancel,
//	HcIRQEnable, HcIRQDisable, HcIRQEOI, HcCacheFlush,
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
		Status:  abi.ReplyStatus(reply),
		PRR:     abi.ReplyPRR(reply),
		IRQ:     abi.ReplyIRQ(reply),
		IfaceVA: iface,
		DataVA:  m.dataVA,
	}
	if g.Status != abi.StatusOK && g.Status != abi.StatusReconfig {
		m.ifaceNext -= 0x1000 // nothing was mapped
		g.IfaceVA = 0
	}
	return g
}

// ReleaseHwTask implements Machine.
func (m *VirtMachine) ReleaseHwTask(taskID uint16) {
	m.Env.Hypercall(abi.HcHwTaskRelease, uint32(taskID))
}

// ReconfigStatus implements Machine: the raw HcHwTaskStatus reply, which
// distinguishes a download still in flight (StatusReconfig) from one the
// kernel gave up on (StatusFaulted).
func (m *VirtMachine) ReconfigStatus() uint32 {
	return m.Env.Hypercall(abi.HcHwTaskStatus, 0)
}

// Guest adapts an OS factory to nova.Guest so a uC/OS-II instance can be
// created as a protection domain. Setup runs once to create the
// instance's tasks. With Snap set, the guest resumes that snapshot in a
// cloned or restored-in-place PD instead of booting (see resume).
type Guest struct {
	GuestName string
	Setup     func(os *OS)
	Snap      *Snapshot
	// OS is populated when the PD first runs.
	OS *OS
}

// RunSlice implements nova.Guest: construct the machine, then boot or
// resume. The deferred Shutdown unwinds this OS's task coroutines when
// the hypervisor tears the PD down.
func (g *Guest) RunSlice(env *nova.Env) {
	g.OS = NewOS(g.GuestName, NewVirtMachine(env))
	defer g.OS.Shutdown()
	if g.Setup != nil {
		g.Setup(g.OS)
	}
	if g.Snap != nil {
		g.resume(env)
		return
	}
	g.OS.Run()
}
