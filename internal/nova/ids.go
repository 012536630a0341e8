// Package nova implements the Mini-NOVA microkernel — the paper's primary
// contribution: a lightweight paravirtualization microkernel for the ARM
// Cortex-A9 side of a Zynq-7000, with first-class support for dispatching
// dynamically partially reconfigured (DPR) hardware tasks to virtual
// machines.
//
// The kernel runs in each simulated core's SVC mode and owns the
// exception vector tables; guests run de-privileged in USR mode and reach
// the kernel through hypercalls (SWI), undefined-instruction traps and
// aborts, exactly as §III of the paper lays out. The four microkernel
// properties of §III — CPU virtualization (vcpu.go), memory management
// (memory.go), communication (portal IPC in hypercall.go) and scheduling
// (delegated to the internal/sched Scheduler) — plus the
// virtual interrupt layer (vgic.go) are tied together by the Kernel
// object (kernel.go), which owns one CoreCtx (core.go) per simulated
// Cortex-A9 core.
//
// Since the capability-space refactor every request path runs on
// internal/capspace: kernel objects are typed (PD, portal, semaphore,
// memory region, hardware-task slot), each PD holds a capability table,
// and a hypercall number is a selector the dispatcher resolves through
// the caller's table before invoking the object's portal handler
// (portals.go). The selectors, status codes and the request descriptor
// the manager sees live in internal/abi, the single source of truth
// shared with the guest-side stubs; kernel code spells them abi.*.
package nova

// Priority levels (paper Fig. 3: idle=0, guest OSes=1, user services such
// as the bootloader and the Hardware Task Manager=2).
const (
	PrioIdle    = 0
	PrioGuest   = 1
	PrioService = 2
	// NumPriorities bounds the scheduler's priority array.
	NumPriorities = 4
)

// DefaultQuantum is the guest time slice: "Mini-NOVA provides each guest
// OS with a time slice of 33 ms" (§V-B).
const DefaultQuantumMs = 33

// SGIReschedule is the software-generated interrupt a core raises on a
// peer's GIC interface to demand a reschedule there (cross-core wake of a
// higher-priority PD — the kernel's only IPI).
const SGIReschedule = 1

// Domains used in every VM's page table (per-space numbering; the kernel
// domain is shared/global).
const (
	DomainGuestUser   = 1
	DomainGuestKernel = 2
	DomainKernel      = 15
)
