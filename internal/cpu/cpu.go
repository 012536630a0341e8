// Package cpu models the ARM Cortex-A9 core of the Zynq-7000 processing
// system at the level Mini-NOVA cares about: operating modes and their
// privilege split, banked exception entry, the CP15 system-control
// coprocessor (TTBR/DACR/ASID/cache/TLB maintenance), the VFP coprocessor
// with an enable bit (the hook for lazy context switching, paper Table I),
// and IRQ delivery from the GIC.
//
// No ARM machine code is interpreted. "Software" in this repository is Go
// code that executes against an ExecContext (see exec.go), which charges
// the simulated clock for every abstract instruction and memory access
// through the MMU, TLB and cache models. Control transfers — SWI
// (hypercalls), undefined-instruction traps, aborts, interrupts — run the
// handler functions installed in the vector table, exactly as the hardware
// would redirect the program counter, so privilege is enforced by this
// model rather than trusted.
package cpu

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/gic"
	"repro/internal/mmu"
	"repro/internal/physmem"
	"repro/internal/simclock"
	"repro/internal/tlb"
)

// Mode is an ARM operating mode. USR is the only non-privileged mode; the
// five privileged modes are entered through exceptions (paper §III).
type Mode int

// The six Cortex-A9 modes Mini-NOVA uses.
const (
	ModeUSR Mode = iota // guests (kernel and user) run here
	ModeSVC             // Mini-NOVA proper
	ModeIRQ             // interrupt entry
	ModeFIQ             // fast interrupt entry (unused by Mini-NOVA, modelled for completeness)
	ModeUND             // undefined-instruction traps (privileged-op emulation)
	ModeABT             // prefetch/data aborts (page faults)
)

func (m Mode) String() string {
	switch m {
	case ModeUSR:
		return "USR"
	case ModeSVC:
		return "SVC"
	case ModeIRQ:
		return "IRQ"
	case ModeFIQ:
		return "FIQ"
	case ModeUND:
		return "UND"
	case ModeABT:
		return "ABT"
	}
	return "?"
}

// Privileged reports whether the mode is PL1.
func (m Mode) Privileged() bool { return m != ModeUSR }

// Exception-path cycle costs (pipeline flush + mode switch + vector fetch).
const (
	CostExceptionEntry  = 12
	CostExceptionReturn = 9
	CostCP15Op          = 3  // mcr/mrc latency
	CostVFPWord         = 2  // per 32-bit word of VFP context moved
	VFPContextWords     = 66 // 32 double registers + FPSCR/FPEXC
)

// Regs is the general-purpose register file visible to one context.
// R0..R3 carry hypercall arguments and return values (AAPCS), R13 is SP,
// R14 LR, R15 PC. The vCPU switch cost in nova is proportional to this.
type Regs struct {
	R    [16]uint32
	CPSR uint32
}

// Vectors is the exception vector table the kernel installs. Handlers run
// synchronously in the corresponding privileged mode.
type Vectors struct {
	// SWI receives hypercalls: number plus r0..r3; its return value is
	// placed in the caller's R0.
	SWI func(num int, args [4]uint32) uint32
	// Undef receives undefined-instruction traps (privileged-op emulation,
	// VFP lazy switch). Return true when emulated/fixed so the faulting
	// operation retries or proceeds.
	Undef func(u UndefInfo) bool
	// PrefetchAbort and DataAbort receive MMU faults. Return true when the
	// kernel resolved the fault (mapping installed) and the access should
	// be retried; false delivers the fault to the current VM's handler or
	// kills it (kernel policy).
	PrefetchAbort func(f *mmu.Fault) bool
	DataAbort     func(f *mmu.Fault) bool
	// IRQ receives the asserted nIRQ line; the handler acknowledges the
	// GIC itself.
	IRQ func()
}

// UndefKind says why the UND trap fired.
type UndefKind int

// Undefined-instruction trap causes.
const (
	UndefCP15 UndefKind = iota // privileged CP15 op from USR
	UndefVFP                   // VFP op while CP10/11 disabled (lazy switch)
	UndefOp                    // any other privileged instruction
)

// UndefInfo describes an undefined-instruction trap.
type UndefInfo struct {
	Kind UndefKind
	Reg  CP15Reg // for UndefCP15
	Val  uint32
	Wr   bool
}

// CP15Reg names the system-control registers the model implements.
type CP15Reg int

// CP15 registers.
const (
	CP15SCTLR      CP15Reg = iota // system control (MMU enable bit)
	CP15TTBR0                     // translation table base
	CP15DACR                      // domain access control
	CP15CONTEXTIDR                // ASID
	CP15TLBIALL                   // TLB invalidate all (write-only)
	CP15TLBIASID                  // TLB invalidate by ASID (write-only)
	CP15TLBIMVA                   // TLB invalidate by VA (write-only)
	CP15ICIALLU                   // I-cache invalidate all (write-only)
	CP15DCCISW                    // D-cache clean+invalidate all (write-only)
	CP15VFPEN                     // model register: CP10/11 access enable
)

// CPU is one modelled A9 core with its memory system. ID is the core's
// index — it selects the core's GIC CPU interface, so banked interrupts
// (SGIs, the private-timer PPI) and targeted SPIs reach the right core.
type CPU struct {
	ID     int
	Clock  *simclock.Clock
	Bus    *physmem.Bus
	Caches *cache.Hierarchy
	TLB    *tlb.TLB
	MMU    *mmu.MMU
	GIC    *gic.GIC

	Mode      Mode
	IRQMasked bool
	Regs      Regs // live register file of the current context

	VFPEnabled bool // CP10/11 enable: cleared on VM switch for lazy VFP

	// ScalarMemPath forces the reference per-access memory path in place
	// of the batched streaming engine (see exec.go). The two are
	// bit-identical in simulated results; the flag exists for the
	// equivalence tests and the wall-clock speedup benchmarks.
	ScalarMemPath bool

	Vectors Vectors

	// generation invalidates ExecContext micro-TLBs on any translation-
	// affecting change (TTBR/ASID write, TLB maintenance).
	generation uint64

	stats CPUStats

	inIRQ bool // prevents re-entrant IRQ delivery
}

// CPUStats counts architectural events.
type CPUStats struct {
	Instructions uint64
	SWIs         uint64
	Undefs       uint64
	Aborts       uint64
	IRQsTaken    uint64
	VFPTraps     uint64
}

// New assembles core 0 over fresh memory-system models.
func New(clock *simclock.Clock, bus *physmem.Bus, g *gic.GIC) *CPU {
	return NewCore(clock, bus, g, 0, cache.NewA9Hierarchy())
}

// NewCore assembles core id of an MPCore over the given cache hierarchy
// (callers share one L2 across cores via cache.NewA9SharedL2). Each core
// gets its own TLB and MMU state, as on silicon.
func NewCore(clock *simclock.Clock, bus *physmem.Bus, g *gic.GIC, id int, h *cache.Hierarchy) *CPU {
	t := tlb.NewA9()
	c := &CPU{
		ID:     id,
		Clock:  clock,
		Bus:    bus,
		Caches: h,
		TLB:    t,
		MMU:    mmu.New(bus, t, h),
		GIC:    g,
		Mode:   ModeSVC, // reset enters a privileged mode
	}
	return c
}

// Stats returns a copy of the counters.
func (c *CPU) Stats() CPUStats { return c.stats }

func (c *CPU) bumpGeneration() { c.generation++ }

// InvalidateTLBVA flushes one page from the main TLB and forces the
// micro-TLBs to revalidate, without charging CP15-op cost. The parallel
// kernel performs deferred TLB maintenance at epoch barriers, where the
// initiating core has already been charged the modeled cost and the target
// core's clock must not move.
func (c *CPU) InvalidateTLBVA(va uint32, asid uint8) {
	c.TLB.FlushVA(va&^0xFFF, asid)
	c.bumpGeneration()
}

// CP15Read performs an mrc. Reading from USR mode traps to the UND vector
// (sensitive instruction, paper §II-A) and returns the handler-provided
// emulation if any; unhandled traps return 0.
func (c *CPU) CP15Read(r CP15Reg) uint32 {
	c.Clock.Advance(CostCP15Op)
	if !c.Mode.Privileged() {
		c.trapUndef(UndefInfo{Kind: UndefCP15, Reg: r})
		return 0
	}
	switch r {
	case CP15SCTLR:
		if c.MMU.Enabled {
			return 1
		}
		return 0
	case CP15TTBR0:
		return uint32(c.MMU.TTBR)
	case CP15DACR:
		return c.MMU.DACR
	case CP15CONTEXTIDR:
		return uint32(c.MMU.ASID)
	case CP15VFPEN:
		if c.VFPEnabled {
			return 1
		}
		return 0
	}
	return 0
}

// CP15Write performs an mcr. From USR mode it traps (the mechanism that
// forces guests to use hypercalls for sensitive state, paper §III-A).
func (c *CPU) CP15Write(r CP15Reg, v uint32) {
	c.Clock.Advance(CostCP15Op)
	if !c.Mode.Privileged() {
		c.trapUndef(UndefInfo{Kind: UndefCP15, Reg: r, Val: v, Wr: true})
		return
	}
	switch r {
	case CP15SCTLR:
		c.MMU.Enabled = v&1 != 0
		c.bumpGeneration()
	case CP15TTBR0:
		c.MMU.TTBR = physmem.Addr(v)
		c.bumpGeneration()
	case CP15DACR:
		c.MMU.SetDACR(v)
		// permission-only change: micro-TLBs recheck DACR, no bump needed
	case CP15CONTEXTIDR:
		c.MMU.ASID = uint8(v)
		c.bumpGeneration()
	case CP15TLBIALL:
		c.TLB.FlushAll()
		c.bumpGeneration()
	case CP15TLBIASID:
		c.TLB.FlushASID(uint8(v))
		c.bumpGeneration()
	case CP15TLBIMVA:
		c.TLB.FlushVA(v&^0xFFF, c.MMU.ASID)
		c.bumpGeneration()
	case CP15ICIALLU:
		c.Caches.L1I.InvalidateAll()
	case CP15DCCISW:
		wb := c.Caches.L1D.CleanInvalidateAll() + c.Caches.L2.CleanInvalidateAll()
		c.Clock.Advance(simclock.Cycles(wb * cache.PenaltyLineWB))
	case CP15VFPEN:
		c.VFPEnabled = v&1 != 0
	default:
		panic(fmt.Sprintf("cpu: CP15 write to unknown reg %d", r))
	}
}

// trapUndef enters UND mode and runs the installed handler.
func (c *CPU) trapUndef(u UndefInfo) bool {
	c.stats.Undefs++
	if u.Kind == UndefVFP {
		c.stats.VFPTraps++
	}
	prev, prevMask := c.Mode, c.IRQMasked
	c.Mode, c.IRQMasked = ModeUND, true
	c.Clock.Advance(CostExceptionEntry)
	handled := false
	if c.Vectors.Undef != nil {
		handled = c.Vectors.Undef(u)
	}
	c.Clock.Advance(CostExceptionReturn)
	c.Mode, c.IRQMasked = prev, prevMask
	return handled
}

// SWI executes a software interrupt (hypercall). Arguments travel in the
// register file as on real hardware; the handler's return value lands in
// R0 (paper §III-A: hypercalls replace frequently-used sensitive ops).
func (c *CPU) SWI(num int, args [4]uint32) uint32 {
	c.stats.SWIs++
	prev, prevMask := c.Mode, c.IRQMasked
	savedRegs := c.Regs
	c.Mode, c.IRQMasked = ModeSVC, true
	c.Clock.Advance(CostExceptionEntry)
	copy(c.Regs.R[0:4], args[:])
	var ret uint32
	if c.Vectors.SWI != nil {
		ret = c.Vectors.SWI(num, args)
	}
	c.Clock.Advance(CostExceptionReturn)
	c.Regs = savedRegs
	c.Regs.R[0] = ret
	c.Mode, c.IRQMasked = prev, prevMask
	return ret
}

// deliverAbort routes an MMU fault to the ABT vector; reports whether the
// kernel fixed the mapping (access should retry).
func (c *CPU) deliverAbort(f *mmu.Fault) bool {
	c.stats.Aborts++
	prev, prevMask := c.Mode, c.IRQMasked
	c.Mode, c.IRQMasked = ModeABT, true
	c.Clock.Advance(CostExceptionEntry)
	fixed := false
	if f.Fetch {
		if c.Vectors.PrefetchAbort != nil {
			fixed = c.Vectors.PrefetchAbort(f)
		}
	} else if c.Vectors.DataAbort != nil {
		fixed = c.Vectors.DataAbort(f)
	}
	c.Clock.Advance(CostExceptionReturn)
	c.Mode, c.IRQMasked = prev, prevMask
	return fixed
}

// PollIRQ takes a pending GIC interrupt if unmasked; it is called by
// ExecContext at instruction boundaries, mimicking the nIRQ sample point.
func (c *CPU) PollIRQ() {
	if c.IRQMasked || c.inIRQ || c.Vectors.IRQ == nil || !c.GIC.PendingDeliverable(c.ID) {
		return
	}
	c.stats.IRQsTaken++
	prev := c.Mode
	c.inIRQ = true
	c.Mode, c.IRQMasked = ModeIRQ, true
	c.Clock.Advance(CostExceptionEntry)
	c.Vectors.IRQ()
	c.Clock.Advance(CostExceptionReturn)
	c.Mode, c.IRQMasked = prev, false
	c.inIRQ = false
}

// VFPContextCost is the cycle cost of saving or restoring one full VFP
// context — what the lazy-switch policy (Table I) avoids paying on every
// VM switch.
func VFPContextCost() simclock.Cycles {
	return simclock.Cycles(VFPContextWords * CostVFPWord)
}
