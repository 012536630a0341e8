// Package checkpoint defines the serialized form of a quiesced virtual
// machine: the immutable Image a kernel checkpoint produces and a
// restore or fork consumes. The package sits below the kernel in the
// import graph and holds no live kernel references — capability-table
// entries are re-minted by the kernel on restore (an image carries only
// the boot-grant bits, never object pointers), and guest memory is a
// frame set on the bus that clones map read-only. The image holds
// hypervisor state only: the software inside the domain is captured
// separately by its hosting layer (ucos.OS.Snapshot), which the caller
// keeps next to the image and hands to the resumed guest. Each record the
// image captures — the vCPU's VCPUState, the vGIC's VGICLine records, the
// root context's cpu.ExecState — is the type the live object holds, so
// capture and restore copy it whole and no restorable field can be left
// behind by a hand-written copy.
package checkpoint

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cpu"
	"repro/internal/physmem"
	"repro/internal/simclock"
)

// VCPUState is the restorable part of a vCPU (paper Table I): the
// register file, the CP15 state that is not derivable from the restored
// space (DACR), the virtual timer's period, the lazy-switch state and the
// remaining quantum. The kernel's live vCPU holds one beside its
// per-space TTBR and ASID, so a checkpoint, fork or restore copies it
// whole.
type VCPUState struct {
	Regs cpu.Regs // general-purpose registers + CPSR
	DACR uint32

	// TimerPeriod is the guest tick's period (0 = off).
	TimerPeriod simclock.Cycles

	// Lazy-switch state (Table I, VFP + L2 control). The model charges
	// the VFP context's moves (cpu.VFPContextCost) and keeps no register
	// values, only whether the context holds state (saved at least once).
	VFPValid bool
	L2Ctrl   uint32

	// QuantumLeft is the remaining slice, preserved across preemption
	// (paper §III-D: "its time quantum is also resumed so that its total
	// execution time slice is constant").
	QuantumLeft simclock.Cycles
}

// VGICLine is the virtual state of one interrupt line: a record of the
// VM's vGIC record list (paper §III-B, Fig. 2), which keeps them in
// ascending IRQ order. The live vGIC holds these records, so a capture
// copies the list whole.
type VGICLine struct {
	IRQ       int
	Enabled   bool
	InService bool // injected, not yet EOI'd by the guest
	RePending bool // re-raised while in service; redelivered on EOI
}

// Region is one linearly-mapped stretch of the guest's address space:
// Size bytes at VA backed by the template's physical frames starting at
// PA. A clone maps the same frames copy-on-write; an in-place restore
// reloads their contents from the image's Frames.
type Region struct {
	VA     uint32
	PA     physmem.Addr
	Size   uint32
	Domain uint8
}

// Frame is one captured 4 KB frame's contents (only present on images
// taken WithContents, which in-place restore requires).
type Frame struct {
	PA   physmem.Addr
	Data []byte
}

// Image is an immutable capture of a quiesced protection domain. The
// kernel builds it with every frame of the guest's space materialized on
// the bus, and keeps the image and its frames as long as the kernel, so
// the template's bytes survive however many clones come and go.
type Image struct {
	// Domain identity to re-mint on restore: scheduling priority and the
	// boot-grant bits (the kernel rebuilds actual capability-table
	// contents from these — raw cap-table entries never enter an image).
	Priority int
	CapBits  uint32

	// Execution-context geometry of the guest's root context.
	CodeBase uint32
	CodeSize uint32

	// VCPU is the vCPU's restorable state; TimerRemaining is the virtual
	// timer's phase.
	VCPU           VCPUState
	TimerRemaining simclock.Cycles

	// LastHcEntry anchors the replayed suspend-exit (the hypercall the VM
	// was parked in when captured) so a restored timeline reproduces the
	// uninterrupted one's probe samples exactly.
	LastHcEntry simclock.Cycles

	// Exec is the root execution context's replay state (fetch cursor,
	// micro-TLBs, residency streak, Stalled), opaque by design.
	Exec cpu.ExecState

	// Virtual interrupt controller: record list + queued injections.
	VGIC        []VGICLine
	VGICPending []int

	// Regions is the guest space's linear VA→PA map, frame-granular.
	Regions []Region

	// Frames holds captured frame contents; empty unless the checkpoint
	// was taken WithContents.
	Frames []Frame
}

// FrameCount is the number of 4 KB frames the image's regions cover.
func (img *Image) FrameCount() int {
	n := 0
	for _, r := range img.Regions {
		n += int(r.Size / physmem.FrameSize)
	}
	return n
}

// EachFrame calls f for every (VA, PA) frame pair, region by region in
// image order, so every consumer sees one deterministic order.
func (img *Image) EachFrame(f func(va uint32, pa physmem.Addr)) {
	for _, r := range img.Regions {
		for off := uint32(0); off < r.Size; off += physmem.FrameSize {
			f(r.VA+off, r.PA+physmem.Addr(off))
		}
	}
}

// Validate checks the structural invariants a kernel restore or fork
// relies on: every region is frame-aligned, frame-sized and does not wrap
// past 2^32; no two regions overlap, in VA or in PA (a VA mapped twice
// would count a frame in a clone's Shared that no mapping of its table
// references); and every captured frame is a whole frame inside a
// region.
func (img *Image) Validate() error {
	for _, r := range img.Regions {
		if r.VA%physmem.FrameSize != 0 || uint32(r.PA)%physmem.FrameSize != 0 {
			return fmt.Errorf("checkpoint: region %#x unaligned", r.VA)
		}
		if r.Size == 0 || r.Size%physmem.FrameSize != 0 {
			return fmt.Errorf("checkpoint: region %#x has bad size %d", r.VA, r.Size)
		}
		if uint64(r.VA)+uint64(r.Size) > 1<<32 || uint64(r.PA)+uint64(r.Size) > 1<<32 {
			return fmt.Errorf("checkpoint: region %#x wraps the address space", r.VA)
		}
	}
	byPA := slices.Clone(img.Regions)
	slices.SortFunc(byPA, func(a, b Region) int { return cmp.Compare(a.PA, b.PA) })
	for i := 1; i < len(byPA); i++ {
		if prev := byPA[i-1]; uint64(prev.PA)+uint64(prev.Size) > uint64(byPA[i].PA) {
			return fmt.Errorf("checkpoint: regions %#x and %#x overlap in PA", prev.VA, byPA[i].VA)
		}
	}
	byVA := slices.Clone(img.Regions)
	slices.SortFunc(byVA, func(a, b Region) int { return cmp.Compare(a.VA, b.VA) })
	for i := 1; i < len(byVA); i++ {
		if prev := byVA[i-1]; uint64(prev.VA)+uint64(prev.Size) > uint64(byVA[i].VA) {
			return fmt.Errorf("checkpoint: regions %#x and %#x overlap in VA", prev.VA, byVA[i].VA)
		}
	}
	for _, f := range img.Frames {
		if len(f.Data) != physmem.FrameSize {
			return fmt.Errorf("checkpoint: frame %#x has %d bytes", uint32(f.PA), len(f.Data))
		}
		inside := slices.ContainsFunc(img.Regions, func(r Region) bool {
			return f.PA >= r.PA && uint64(f.PA) < uint64(r.PA)+uint64(r.Size)
		})
		if !inside || uint32(f.PA)%physmem.FrameSize != 0 {
			return fmt.Errorf("checkpoint: captured frame %#x outside every region", uint32(f.PA))
		}
	}
	return nil
}
