package nova

import (
	"repro/internal/cpu"
	"repro/internal/simclock"
)

// VCPU holds, in kernel memory, "the states of hardware resources that are
// used by the virtual machine" (paper §III-A, Table I). Resources split
// into two classes:
//
//   - actively switched on every VM switch: general-purpose registers, the
//     virtual timer, the privileged coprocessor state (TTBR/DACR/ASID) and
//     the GIC mask set (via the vGIC);
//   - lazily switched: the VFP context and L2 cache control settings,
//     which are "relatively less frequently accessed and quite expensive
//     to save". The VFP context moves only when a VM actually executes a
//     VFP instruction after a switch (UND trap, cpu.UndefVFP).
type VCPU struct {
	// Active-switch state (Table I, rows 1–2 and 4–6).
	Regs cpu.Regs // general-purpose registers + CPSR

	// Privileged CP15 state programmed on switch-in.
	TTBR uint32
	DACR uint32
	ASID uint8

	// Virtual timer: period and phase of the guest's tick (0 = off).
	TimerPeriod simclock.Cycles

	// Lazy-switch state (Table I, VFP + L2 control). The model charges
	// the VFP context's moves (cpu.VFPContextCost) and keeps no register
	// values, only whether the context holds state.
	VFPValid bool // context holds real state (saved at least once)
	L2Ctrl   uint32

	// Quantum bookkeeping: remaining slice, preserved across preemption
	// (paper §III-D: "its time quantum is also resumed so that its total
	// execution time slice is constant").
	QuantumLeft simclock.Cycles
}

// vcpuActiveWords is how many 32-bit words the active switch moves; the
// world-switch path charges one kernel data access per word, so the cost
// scales with Table I's active set rather than a magic constant.
const vcpuActiveWords = 17 /* r0-r15 + cpsr */ + 4 /* ttbr,dacr,asid,timer */

// The PD's kernel descriptor also holds its capability table (the
// per-PD window of §III-A's capability interface): 8-byte slots —
// object pointer + rights/generation word — starting capTableOff into
// the descriptor. The hypercall dispatcher touches the resolved slot's
// line on every capability lookup, so cap-table state competes for
// cache space exactly like the vCPU words above (one of Table III's
// per-VM working-set growth mechanisms). Only the low capTableMask+1
// selectors alias distinct modelled lines; higher selectors wrap.
const (
	capTableOff  = 0x200
	capSlotBytes = 8
	capTableMask = 63
)

// SaveActive copies the CPU's live register file into the vCPU.
func (v *VCPU) SaveActive(c *cpu.CPU) {
	v.Regs = c.Regs
	v.TTBR = c.CP15Read(cpu.CP15TTBR0)
	v.DACR = c.CP15Read(cpu.CP15DACR)
	v.ASID = uint8(c.CP15Read(cpu.CP15CONTEXTIDR))
}

// RestoreActive programs the CPU with the vCPU's active state. The CP15
// writes bump the CPU's translation generation, which is what invalidates
// every ExecContext micro-TLB — the architectural effect of an address-
// space switch.
func (v *VCPU) RestoreActive(c *cpu.CPU) {
	c.Regs = v.Regs
	c.CP15Write(cpu.CP15TTBR0, v.TTBR)
	c.CP15Write(cpu.CP15CONTEXTIDR, uint32(v.ASID))
	c.CP15Write(cpu.CP15DACR, v.DACR)
}
