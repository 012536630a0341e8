package nova

import (
	"repro/internal/capspace"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/mmu"
	"repro/internal/physmem"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// Guest is the software hosted inside a protection domain: a
// paravirtualized OS, a user service (the Hardware Task Manager), or a
// bare application. RunSlice runs once, as the body of the PD's runtime
// coroutine (iter.Pull): the kernel loop resumes it and it switches back
// at every yield, on the same OS thread and without waking another P, so
// exactly one logical thread of execution exists — the model of a single
// Cortex-A9 core. All of the guest's instruction and memory
// traffic must go through env.Ctx so it is charged to the shared machine,
// and the guest must call env.CheckPreempt() at chunk boundaries.
type Guest interface {
	// Name labels the guest in traces.
	Name() string
	// RunSlice is the guest's entry point; it runs for the lifetime of
	// the VM (it is resumed transparently across preemptions).
	RunSlice(env *Env)
}

// Capability is a boot-time grant descriptor: PDConfig.Caps names the
// powers a domain is born with, and CreatePD translates each bit into
// actual capability-table contents (see populateCaps). At run time the
// kernel never tests these bits — rights live in pd.Space.
type Capability uint32

// Boot grants.
const (
	// CapHwManager installs the HcMgr* portal capabilities; the kernel's
	// device objects (request queue, PCAP, bitstream store, PRR slots,
	// client PDs) are delegated when the PD is registered as the Hardware
	// Task Manager service (RegisterHwService).
	CapHwManager Capability = 1 << iota
	// CapIODirect grants RightCall on the supervised SD-write portal
	// (every PD holds the capability, but without the grant it carries
	// no rights and invoking it is Denied).
	CapIODirect
)

// PD is a protection domain: "a resource container and a capability
// interface between a virtual machine and the microkernel. It holds the
// state of a virtual machine (the ID number, the priority level, etc)"
// (paper §III-A).
type PD struct {
	ID       int
	Name_    string
	Priority int
	Caps     Capability

	// Space is the PD's capability table: every kernel request resolves
	// a selector through it (§III-A's capability interface, rebuilt on
	// internal/capspace). selfObj is the PD's own kernel object — the
	// identity other domains hold capabilities to (IPC destinations, the
	// manager's client handles).
	Space   *capspace.Space
	selfObj *capspace.Object

	// Core is the PD's home core, chosen by the scheduling policy from
	// the PD's affinity mask at creation. The vCPU, all of the guest's
	// execution contexts, and the PD's interrupt routing bind to it.
	Core *CoreCtx

	VCPU VCPU
	VGIC *VGIC

	// Address space.
	Table *mmu.PageTable
	ASID  uint8

	// RAM is the VM's physical allocation [RAMBase, RAMBase+RAMSize).
	RAMBase physmem.Addr
	RAMSize uint32

	// DataSection is the registered hardware-task data section (§IV-B):
	// guest VA, physical translation and size.
	DataSectionVA   uint32
	DataSectionPA   physmem.Addr
	DataSectionSize uint32

	// ifaceVA remembers where each PRR's register page is mapped in this
	// space (0 = not mapped), so the kernel can demap on reclaim.
	ifaceVA map[int]uint32

	// Guest program + its execution environment.
	Guest Guest
	Env   *Env

	// kdata is the VA of this PD's kernel-resident descriptor; the world
	// switch touches it so per-PD kernel state competes for cache space.
	kdata uint32

	// Virtual timer state: the timer advances only while the VM runs
	// (vCPU active state, Table I row "Platform-specific timer"): parked
	// on switch-out with the remaining time preserved, re-armed on
	// switch-in.
	timerEvent     *simclock.Event
	timerRemaining simclock.Cycles

	// Portal IPC state (call/reply through PD-object capabilities):
	// callers queue on the callee, the callee replies to the caller it
	// last received from; a caller parks its outgoing word and resumes
	// when ipcReply is posted.
	ipcCallers  []*PD
	replyTo     *PD
	recvBlocked bool
	ipcWord     uint32
	ipcReply    uint32

	// idleWaiting marks a PD blocked in paravirtualized idle (HcSuspend
	// mode 1): any vIRQ injection wakes it, and its virtual timer keeps
	// running while it sleeps.
	idleWaiting bool

	// frozen marks a checkpointed template (or a warm, not-yet-activated
	// clone): the PD keeps its address space and kernel objects but never
	// wakes — injections are dropped by wake() and its virtual timer is
	// parked. Cleared only by ActivateClone.
	frozen bool

	// clone is non-nil on PDs forked from a checkpoint image (clone.go):
	// the private frame arena, the backing image, and the COW counters.
	clone *cloneState

	// lastHcEntry is the entry timestamp of the most recent hypercall,
	// recorded so a restored guest can replay the suspend exit (probe and
	// trace span) exactly as the uninterrupted timeline would have.
	lastHcEntry simclock.Cycles

	// QoS guard state (manager-portal admission, see qos.go): the token
	// bucket and breaker are touched by this PD's own hypercall path and
	// — for failure charges — by barrier commits; reconfigFault latches a
	// failed reconfiguration for the next HcHwTaskStatus poll
	// (clear-on-read), under the same ownership discipline.
	bucket        fault.TokenBucket
	breaker       fault.Breaker
	reconfigFault bool

	// Coroutine plumbing (spawn): next runs the guest until it yields (ok
	// is false once RunSlice has returned), stop unwinds it, and yield is
	// the guest-side switch back to whoever called next.
	next  func() (yieldReason, bool)
	stop  func()
	yield func(yieldReason) bool
	dead  bool

	// node is the PD's handle on the scheduling subsystem (intrusive;
	// lives on its home core's runqueue when runnable).
	node sched.Node

	// Statistics.
	Switches   uint64
	Hypercalls uint64
	Faults     uint64
}

// Name returns the PD's human-readable name.
func (pd *PD) Name() string { return pd.Name_ }

// Dead reports whether the guest's Main has returned.
func (pd *PD) Dead() bool { return pd.dead }

// Env is the per-PD view of the machine handed to guest code: its
// ExecContext plus the entry points a de-privileged guest may use.
type Env struct {
	K   *Kernel
	PD  *PD
	Ctx *cpu.ExecContext
}

// Hypercall issues SWI n with up to four arguments, as the paravirtualized
// port layer does for every sensitive operation (§III-A). The trap is
// taken on the PD's home core.
func (e *Env) Hypercall(n int, args ...uint32) uint32 {
	var a [4]uint32
	copy(a[:], args)
	return e.PD.Core.CPU.SWI(n, a)
}

// Preempted reports whether the kernel wants the core back (quantum
// expiry or a higher-priority PD became ready). Guests poll it between
// chunks.
func (e *Env) Preempted() bool { return e.PD.Core.needResched }

// PendingVIRQ drains and dispatches injected virtual interrupts through
// the VM's registered IRQ entry — the model's equivalent of taking the
// injected jump on return to guest context (§III-B).
func (e *Env) PendingVIRQ() {
	v := e.PD.VGIC
	if !v.HasPending() || v.Entry == nil {
		return
	}
	for _, irq := range v.DrainPending() {
		e.Ctx.Exec(12) // guest-side vector dispatch
		v.Entry(irq)
	}
}

// Now returns the simulated time as this PD's core sees it (guests read
// their own core's counter; cores drift within an epoch in parallel runs).
func (e *Env) Now() simclock.Cycles { return e.PD.Core.Clock.Now() }
