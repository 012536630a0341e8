package ucos

import (
	"repro/internal/cpu"
	"repro/internal/simclock"
)

// HwGrant is the decoded result of a hardware-task request: where the
// task's register interface is reachable, which PRR hosts it, which GIC
// interrupt line signals completion, and the data-section address its
// DMA window covers.
type HwGrant struct {
	Status  uint32 // hwtask.Reply* status byte
	PRR     int    // granted region (-1 on failure)
	IRQ     int    // completion interrupt id (0 when none)
	IfaceVA uint32 // register-group address in this OS's address space
	DataVA  uint32 // data-section base in this OS's address space
}

// Machine is the uC/OS-II port interface: everything the kernel needs
// from its platform. The paravirtualized implementation backs each method
// with Mini-NOVA hypercalls (the paper's 17-call porting patch, §V-A);
// the native implementation programs the simulated hardware directly.
type Machine interface {
	// NewContext makes an execution context inside this OS's code space.
	NewContext(name string, base, size uint32) *cpu.ExecContext
	// KernelCodeBase is where the guest kernel's text begins.
	KernelCodeBase() uint32
	// TaskCodeBase is where task prio's text begins.
	TaskCodeBase(prio int) uint32
	// Now reads the global cycle counter.
	Now() simclock.Cycles

	// SetIRQEntry registers the OS's interrupt entry point.
	SetIRQEntry(fn func(irq int))
	// EnableIRQ unmasks a line (vGIC under virtualization).
	EnableIRQ(irq int)
	// DisableIRQ masks a line.
	DisableIRQ(irq int)
	// EOI signals completion of a delivered interrupt.
	EOI(irq int)
	// SetTickTimer programs the periodic OS tick.
	SetTickTimer(period simclock.Cycles)
	// CheckPreempt is the chunk boundary: deliver pending interrupts and
	// honor hypervisor preemption (no-op natively). Under virtualization
	// it may switch out of the PD's coroutine, and if the hypervisor tears
	// the PD down meanwhile it never returns: the kill unwinds the task and
	// then the OS.
	CheckPreempt()
	// Idle is the guest's WFI: under virtualization it gives the CPU back
	// to the hypervisor until the next virtual interrupt, so an idle RTOS
	// does not starve lower-priority VMs; natively it is a plain wait.
	Idle()

	// Print writes to the supervised console.
	Print(s string)
	// CacheFlush performs the guest cache-maintenance operation.
	CacheFlush()
	// EnterUserCtx/EnterKernelCtx flip the DACR between guest-kernel and
	// guest-user contexts (Table II; no-op natively where uCOS owns PL1).
	EnterUserCtx()
	EnterKernelCtx()
	// VMID identifies this OS instance.
	VMID() int

	// SetupDataSection builds and registers the hardware-task data
	// section of the given size, returning its base VA (§IV-B).
	SetupDataSection(size uint32) (uint32, bool)
	// RequestHwTask asks the Hardware Task Manager for a task (§IV-E).
	RequestHwTask(taskID uint16) HwGrant
	// ReleaseHwTask gives a held task back.
	ReleaseHwTask(taskID uint16)
	// ReconfigStatus polls the PCAP completion signal (§IV-E polling
	// mode), fault-aware: StatusReconfig while the download is still in
	// flight, StatusFaulted when the hypervisor's retry budget ran out
	// (the guest must release and re-request), and StatusOK once the
	// region is ready.
	ReconfigStatus() uint32
}
