// Package checkpoint defines the serialized form of a quiesced virtual
// machine: the immutable Image a kernel checkpoint produces and a
// restore or fork consumes. The package sits below the kernel in the
// import graph and holds no live kernel references — capability-table
// entries are re-minted by the kernel on restore (an image carries only
// the boot-grant bits, never object pointers), guest memory is a frame
// set the image pins on the bus, and the guest's host-side state rides
// along as an opaque value the hosting layer (ucos) knows how to rebuild.
package checkpoint

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/cpu"
	"repro/internal/physmem"
	"repro/internal/simclock"
)

// VGICLine is the captured virtual state of one interrupt line, in the
// order it appears in the VM's record list (ascending IRQ).
type VGICLine struct {
	IRQ       int
	Enabled   bool
	InService bool
	RePending bool
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
// kernel builds it with every frame of the guest's space pinned on the
// bus, so the template's bytes survive however many clones come and go;
// ReleaseImage drops the pins.
type Image struct {
	Name       string
	CapturedAt simclock.Cycles

	// Domain identity to re-mint on restore: scheduling priority and the
	// boot-grant bits (the kernel rebuilds actual capability-table
	// contents from these — raw cap-table entries never enter an image).
	Priority int
	CapBits  uint32

	// Execution-context geometry of the guest's root context.
	CodeBase uint32
	CodeSize uint32

	// vCPU state (paper Table I): register file, CP15 state that is not
	// derivable from the restored space (DACR), lazy-switch state, the
	// remaining quantum, and the virtual-timer phase.
	Regs           cpu.Regs
	DACR           uint32
	VFP            [cpu.VFPContextWords]uint32
	VFPValid       bool
	L2Ctrl         uint32
	QuantumLeft    simclock.Cycles
	TimerPeriod    simclock.Cycles
	TimerRemaining simclock.Cycles

	// LastHcEntry anchors the replayed suspend-exit (the hypercall the VM
	// was parked in when captured) so a restored timeline reproduces the
	// uninterrupted one's probe samples exactly.
	LastHcEntry simclock.Cycles

	// Exec is the root execution context's replay-relevant micro-state
	// (fetch cursor, micro-TLBs, residency streak), opaque by design.
	Exec cpu.ExecState

	// Virtual interrupt controller: record list + queued injections.
	VGIC        []VGICLine
	VGICPending []int

	// Regions is the guest space's linear VA→PA map, frame-granular.
	Regions []Region

	// Frames holds captured frame contents; empty unless the checkpoint
	// was taken WithContents.
	Frames []Frame

	// Guest is the hosting layer's opaque snapshot of the software inside
	// the domain (e.g. a ucos.Snapshot); the kernel never looks at it.
	Guest any
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
// image order — the canonical walk shared by clone mapping, sharing,
// release and pin/unpin, so every consumer sees one deterministic order.
func (img *Image) EachFrame(f func(va uint32, pa physmem.Addr)) {
	for _, r := range img.Regions {
		for off := uint32(0); off < r.Size; off += physmem.FrameSize {
			f(r.VA+off, r.PA+physmem.Addr(off))
		}
	}
}

// Fingerprint is an FNV-1a hash over the image's canonical serialized
// form. Two captures of identical machine state fingerprint identically,
// whatever host produced them; tests use this to prove checkpoint
// stability. The opaque fields (Exec, Guest) are excluded — they carry
// no serializable identity of their own.
func (img *Image) Fingerprint() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(p []byte) {
		for _, b := range p {
			h = (h ^ uint64(b)) * prime
		}
	}
	var w [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		mix(w[:])
	}
	mix([]byte(img.Name))
	u64(uint64(img.CapturedAt))
	u64(uint64(img.Priority))
	u64(uint64(img.CapBits))
	u64(uint64(img.CodeBase)<<32 | uint64(img.CodeSize))
	for _, r := range img.Regs.R {
		u64(uint64(r))
	}
	u64(uint64(img.Regs.CPSR))
	u64(uint64(img.DACR))
	for _, v := range img.VFP {
		u64(uint64(v))
	}
	u64(uint64(img.L2Ctrl))
	if img.VFPValid {
		u64(1)
	}
	u64(uint64(img.QuantumLeft))
	u64(uint64(img.TimerPeriod))
	u64(uint64(img.TimerRemaining))
	u64(uint64(img.LastHcEntry))
	for _, l := range img.VGIC {
		v := uint64(l.IRQ) << 3
		if l.Enabled {
			v |= 1
		}
		if l.InService {
			v |= 2
		}
		if l.RePending {
			v |= 4
		}
		u64(v)
	}
	for _, p := range img.VGICPending {
		u64(uint64(p))
	}
	for _, r := range img.Regions {
		u64(uint64(r.VA)<<32 | uint64(r.PA))
		u64(uint64(r.Size)<<8 | uint64(r.Domain))
	}
	for _, f := range img.Frames {
		u64(uint64(f.PA))
		mix(f.Data)
	}
	return h
}

// Validate checks the structural invariants a kernel restore or fork
// relies on: every region is frame-aligned, frame-sized and does not wrap
// past 2^32; no two regions overlap, in VA or in PA (a VA mapped twice
// would share a frame no clone mapping references, so DestroyClone could
// never release it); and every captured frame is a whole frame inside a
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
