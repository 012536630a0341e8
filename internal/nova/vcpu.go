package nova

import (
	"repro/internal/checkpoint"
	"repro/internal/cpu"
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
//
// The restorable part is a checkpoint.VCPUState, which checkpoints, forks
// and in-place restores copy whole; the translation state stays per
// space, so a clone keeps its own table and ASID.
type VCPU struct {
	checkpoint.VCPUState

	// Per-space CP15 state programmed on switch-in.
	TTBR uint32
	ASID uint8
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
