// Package gic models the ARM Generic Interrupt Controller (PL390) found on
// the Zynq-7000: a distributor that latches and prioritizes interrupt
// sources, and per-CPU interfaces with the acknowledge / end-of-interrupt
// protocol.
//
// Mini-NOVA keeps the physical GIC strictly to itself (paper §III-A: "
// interrupt status registers can only be accessed by the privileged code")
// and exposes virtual GICs to guests; this package is the physical half of
// that split. Following the GIC architecture, interrupt IDs split into
// three banks:
//
//   - SGIs (0..15): software-generated interrupts, the inter-processor
//     interrupt mechanism. Each CPU interface banks its own pending state,
//     so a core can IPI a peer for cross-core reschedule.
//   - PPIs (16..31): private peripheral interrupts — per-CPU state, raised
//     by that CPU's private devices (the A9 private timer is PPI #29).
//   - SPIs (32..): shared peripheral interrupts with a distributor-side
//     target CPU (GICD_ITARGETSR); the 16 PL-to-PS lines from the FPGA
//     fabric (PL_IRQ[15:0], §IV-D) live at PLIRQBase..PLIRQBase+15.
package gic

import "fmt"

// Interrupt ID layout, following the Zynq TRM.
const (
	// NumIRQs is the number of interrupt IDs the distributor tracks.
	NumIRQs = 96
	// NumSGIs is the number of software-generated interrupt IDs (0..15).
	NumSGIs = 16
	// PrivateBase is the first non-banked (shared peripheral) interrupt
	// ID; everything below it is per-CPU (SGI or PPI).
	PrivateBase = 32
	// PrivateTimerIRQ is PPI #29, the per-CPU A9 private timer.
	PrivateTimerIRQ = 29
	// PCAPIRQ signals completion of a device-configuration (PCAP) DMA.
	PCAPIRQ = 40
	// UARTIRQ is the PS UART interrupt.
	UARTIRQ = 59
	// PLIRQBase is the first of the 16 PL-to-PS interrupt lines.
	PLIRQBase = 61
	// NumPLIRQs is the number of PL-to-PS lines (PL_IRQ[15:0]).
	NumPLIRQs = 16
	// SpuriousID is returned by Acknowledge when nothing is pending.
	SpuriousID = 1023
)

type irqState struct {
	enabled  bool
	pending  bool
	active   bool
	priority uint8 // lower value = higher priority (ARM convention)
}

// GIC is the distributor plus ncpu CPU interfaces. The paper pins
// everything on CPU0 of the dual-core part; New() reproduces that, while
// NewMP(2) models the full dual-core Zynq.
type GIC struct {
	ncpu int

	// shared holds the SPI state (ids >= PrivateBase); banked holds each
	// CPU's private SGI+PPI state (ids < PrivateBase).
	shared [NumIRQs]irqState
	banked [][PrivateBase]irqState

	// target is the distributor's per-SPI target CPU (GICD_ITARGETSR
	// reduced to a single destination, which is how Mini-NOVA programs
	// it: every line is routed to exactly the core that owns it).
	target [NumIRQs]int

	// priorityMask is each CPU interface's PMR: only prios < mask taken.
	priorityMask []uint8
	ctrlEnabled  bool

	// npending counts latched pending sources per CPU interface (an SPI
	// counts against its target), so the nIRQ sample the CPU takes at
	// every instruction boundary (PendingDeliverable) is O(1) in the
	// common nothing-pending case. Sharding the counter per interface
	// keeps each simulated core's hot path on its own cache line when
	// cores run on concurrent host goroutines.
	npending []int

	// Signal is invoked on the rising edge of "an enabled interrupt is
	// pending and not masked" for a CPU — the nIRQ wire to that core.
	Signal func(cpu int)

	// stats is sharded per CPU interface for the same reason as npending:
	// an event is always counted on the goroutine of the interface it is
	// delivered to, so no two cores write the same bucket. Stats() sums.
	stats []Stats
}

// Stats counts distributor events.
type Stats struct {
	Raised       uint64
	SGIsSent     uint64
	Acknowledged uint64
	Completed    uint64
	Spurious     uint64
}

// New returns a single-CPU-interface GIC (the paper's CPU0-only setup)
// with all interrupts disabled at default priority 0xA0 and the CPU
// interface accepting everything.
func New() *GIC { return NewMP(1) }

// NewMP returns a GIC with ncpu CPU interfaces.
func NewMP(ncpu int) *GIC {
	if ncpu < 1 {
		panic("gic: need at least one CPU interface")
	}
	g := &GIC{
		ncpu:         ncpu,
		banked:       make([][PrivateBase]irqState, ncpu),
		priorityMask: make([]uint8, ncpu),
		ctrlEnabled:  true,
		npending:     make([]int, ncpu),
		stats:        make([]Stats, ncpu),
	}
	for i := range g.shared {
		g.shared[i].priority = 0xA0
	}
	for c := range g.banked {
		g.priorityMask[c] = 0xFF
		for i := range g.banked[c] {
			g.banked[c][i].priority = 0xA0
		}
	}
	return g
}

// NumCPUs returns the number of CPU interfaces.
func (g *GIC) NumCPUs() int { return g.ncpu }

func (g *GIC) check(id int) {
	if id < 0 || id >= NumIRQs {
		panic(fmt.Sprintf("gic: interrupt id %d out of range", id))
	}
}

func (g *GIC) checkCPU(cpu int) {
	if cpu < 0 || cpu >= g.ncpu {
		panic(fmt.Sprintf("gic: cpu %d out of range (%d interfaces)", cpu, g.ncpu))
	}
}

// banked ids (< PrivateBase) resolve to the per-CPU bank; SPIs to shared.
func (g *GIC) state(cpu, id int) *irqState {
	if id < PrivateBase {
		return &g.banked[cpu][id]
	}
	return &g.shared[id]
}

// Enable unmasks one interrupt source at the distributor. For banked ids
// the enable applies to every CPU's bank (the kernel configures its
// private peripherals symmetrically across cores).
func (g *GIC) Enable(id int) {
	g.check(id)
	if id < PrivateBase {
		for c := 0; c < g.ncpu; c++ {
			g.banked[c][id].enabled = true
			g.maybeSignal(c)
		}
		return
	}
	g.shared[id].enabled = true
	g.maybeSignal(g.target[id])
}

// EnableOn unmasks a banked (SGI/PPI) source on one CPU's bank only — the
// form a core must use from its own context when cores run concurrently,
// so it never writes a peer's bank. SPIs fall back to Enable.
func (g *GIC) EnableOn(cpu, id int) {
	g.check(id)
	g.checkCPU(cpu)
	if id >= PrivateBase {
		g.Enable(id)
		return
	}
	g.banked[cpu][id].enabled = true
	g.maybeSignal(cpu)
}

// Disable masks one interrupt source (all banks for banked ids). A
// pending interrupt stays latched (as on hardware) and fires when
// re-enabled.
func (g *GIC) Disable(id int) {
	g.check(id)
	if id < PrivateBase {
		for c := 0; c < g.ncpu; c++ {
			g.banked[c][id].enabled = false
		}
		return
	}
	g.shared[id].enabled = false
}

// DisableOn masks a banked source on one CPU's bank only (see EnableOn).
func (g *GIC) DisableOn(cpu, id int) {
	g.check(id)
	g.checkCPU(cpu)
	if id >= PrivateBase {
		g.Disable(id)
		return
	}
	g.banked[cpu][id].enabled = false
}

// IsEnabled reports the distributor enable bit for id (bank 0 for banked
// ids).
func (g *GIC) IsEnabled(id int) bool {
	g.check(id)
	return g.state(0, id).enabled
}

// IsPending reports whether id is latched pending on any CPU interface.
func (g *GIC) IsPending(id int) bool {
	g.check(id)
	if id < PrivateBase {
		for c := 0; c < g.ncpu; c++ {
			if g.banked[c][id].pending {
				return true
			}
		}
		return false
	}
	return g.shared[id].pending
}

// SetPriority assigns a priority (0 = highest, 255 = lowest; all banks
// for banked ids).
func (g *GIC) SetPriority(id int, prio uint8) {
	g.check(id)
	if id < PrivateBase {
		for c := 0; c < g.ncpu; c++ {
			g.banked[c][id].priority = prio
		}
		return
	}
	g.shared[id].priority = prio
}

// SetPriorityMask programs cpu's CPU-interface PMR.
func (g *GIC) SetPriorityMask(cpu int, m uint8) {
	g.checkCPU(cpu)
	g.priorityMask[cpu] = m
	g.maybeSignal(cpu)
}

// SetTarget routes an SPI to one CPU interface (GICD_ITARGETSR). Banked
// ids have no target; calls for them are rejected. A latched pending
// state migrates with the line: it counts against the new target.
func (g *GIC) SetTarget(id, cpu int) {
	g.check(id)
	g.checkCPU(cpu)
	if id < PrivateBase {
		panic(fmt.Sprintf("gic: interrupt %d is banked, it has no target", id))
	}
	if old := g.target[id]; old != cpu && g.shared[id].pending {
		g.npending[old]--
		g.npending[cpu]++
	}
	g.target[id] = cpu
	g.maybeSignal(cpu)
}

// TargetOf returns the CPU an SPI is routed to (0 for banked ids).
func (g *GIC) TargetOf(id int) int {
	g.check(id)
	if id < PrivateBase {
		return 0
	}
	return g.target[id]
}

// Raise latches an interrupt pending (device-side edge). SPIs latch at
// the distributor and signal their target CPU; banked ids latch on CPU0
// (single-core compatibility — per-CPU devices use RaiseOn).
func (g *GIC) Raise(id int) {
	g.check(id)
	if id < PrivateBase {
		g.RaiseOn(0, id)
		return
	}
	g.stats[g.target[id]].Raised++
	g.setPending(g.target[id], &g.shared[id], true)
	g.maybeSignal(g.target[id])
}

// RaiseOn latches a banked (SGI/PPI) interrupt pending on one CPU's
// interface — the path a per-core private device (e.g. that core's
// private timer) uses.
func (g *GIC) RaiseOn(cpu, id int) {
	g.check(id)
	g.checkCPU(cpu)
	if id >= PrivateBase {
		g.Raise(id)
		return
	}
	g.stats[cpu].Raised++
	g.setPending(cpu, &g.banked[cpu][id], true)
	g.maybeSignal(cpu)
}

// RaiseSGI sends a software-generated interrupt (id < NumSGIs) to the
// target CPU — the inter-processor interrupt a core uses to demand a
// reschedule on a peer (GICD_SGIR).
func (g *GIC) RaiseSGI(target, id int) {
	if id < 0 || id >= NumSGIs {
		panic(fmt.Sprintf("gic: SGI id %d out of range", id))
	}
	g.checkCPU(target)
	g.stats[target].SGIsSent++
	g.setPending(target, &g.banked[target][id], true)
	g.maybeSignal(target)
}

// setPending flips one source's pending latch, keeping the per-interface
// count coherent (cpu is the interface the source delivers to). Every
// mutation of irqState.pending must go through it.
func (g *GIC) setPending(cpu int, s *irqState, v bool) {
	if s.pending != v {
		if v {
			g.npending[cpu]++
		} else {
			g.npending[cpu]--
		}
		s.pending = v
	}
}

// deliverable reports whether s may be taken on cpu right now.
func (g *GIC) deliverable(cpu int, s *irqState) bool {
	return s.enabled && s.pending && !s.active && s.priority < g.priorityMask[cpu]
}

// highestPending returns the best deliverable IRQ for cpu, or -1. SGIs
// and PPIs come from cpu's bank; SPIs only when targeted at cpu.
func (g *GIC) highestPending(cpu int) int {
	best := -1
	bestPrio := uint8(0xFF)
	consider := func(id int, s *irqState) {
		if !g.deliverable(cpu, s) {
			return
		}
		if best < 0 || s.priority < bestPrio {
			best, bestPrio = id, s.priority
		}
	}
	for id := 0; id < PrivateBase; id++ {
		consider(id, &g.banked[cpu][id])
	}
	for id := PrivateBase; id < NumIRQs; id++ {
		if g.target[id] == cpu {
			consider(id, &g.shared[id])
		}
	}
	return best
}

// PendingDeliverable reports whether cpu's nIRQ line would be asserted.
// The no-latch fast path makes the per-instruction-boundary nIRQ sample a
// pair of compares.
func (g *GIC) PendingDeliverable(cpu int) bool {
	g.checkCPU(cpu)
	if g.npending[cpu] == 0 {
		return false
	}
	return g.ctrlEnabled && g.highestPending(cpu) >= 0
}

func (g *GIC) maybeSignal(cpu int) {
	if g.PendingDeliverable(cpu) && g.Signal != nil {
		g.Signal(cpu)
	}
}

// Acknowledge implements a read of cpu's GICC_IAR: it returns the
// highest-priority pending interrupt for that interface, marks it active,
// and clears its pending latch. Returns SpuriousID when nothing is
// deliverable.
func (g *GIC) Acknowledge(cpu int) int {
	g.checkCPU(cpu)
	id := g.highestPending(cpu)
	if id < 0 {
		g.stats[cpu].Spurious++
		return SpuriousID
	}
	s := g.state(cpu, id)
	g.setPending(cpu, s, false)
	s.active = true
	g.stats[cpu].Acknowledged++
	return id
}

// EOI implements a write of cpu's GICC_EOIR: deactivates the interrupt,
// allowing the next delivery.
func (g *GIC) EOI(cpu, id int) {
	g.check(id)
	g.checkCPU(cpu)
	s := g.state(cpu, id)
	if !s.active {
		return // stray EOI is ignored, as on hardware in EOImode 0
	}
	s.active = false
	g.stats[cpu].Completed++
	g.maybeSignal(cpu)
}

// Stats returns the counters summed across every CPU interface.
func (g *GIC) Stats() Stats {
	var total Stats
	for i := range g.stats {
		total.Raised += g.stats[i].Raised
		total.SGIsSent += g.stats[i].SGIsSent
		total.Acknowledged += g.stats[i].Acknowledged
		total.Completed += g.stats[i].Completed
		total.Spurious += g.stats[i].Spurious
	}
	return total
}

// EnabledSet snapshots the distributor enable bits as seen by cpu 0 (used
// by the VM switch path to mask/unmask per-VM interrupt sets; §III-B).
func (g *GIC) EnabledSet() []int {
	var out []int
	for id := 0; id < NumIRQs; id++ {
		if g.state(0, id).enabled {
			out = append(out, id)
		}
	}
	return out
}
