package nova

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/mmu"
	"repro/internal/physmem"
)

// Virtual-address layout.
//
// Every VM's page table contains two halves: the guest's own mappings
// (domains DomainGuestUser / DomainGuestKernel) and the kernel's global
// mappings (DomainKernel, privileged-only AP), which are identical across
// all spaces — that is what lets the kernel run on whatever table is live
// without switching (paper §III-C).
const (
	// Guest-side layout.
	GuestUserBase   = 0x0001_0000 // guest user code+data
	GuestKernelBase = 0x3000_0000 // guest (de-privileged) kernel image
	GuestDataSect   = 0x0800_0000 // conventional hardware-task data section VA
	GuestIfaceBase  = 0x0900_0000 // conventional hardware-task interface VA

	// Kernel-side layout (global, privileged).
	KernelCodeVA = 0xF000_0000
	KernelDataVA = 0xF010_0000

	// KernelCodeSize is the kernel's text footprint: the paper's kernel
	// "compiles to about 40KB" (§V-B); the fetch cursor of kernel code
	// walks this range.
	KernelCodeSize = 40 << 10
)

// Physical layout carved from DDR by the kernel at boot. Above it, the
// DDR cursor (takeDDR) places guest RAM and clone arenas.
const (
	physKernelCode = physmem.DDRBase               // 1 MB
	physKernelData = physmem.DDRBase + 0x0010_0000 // 1 MB
	physTables     = physmem.DDRBase + 0x0020_0000 // page-table pool, 8 MB
	physBitstreams = physmem.DDRBase + 0x00A0_0000 // bitstream store, 22 MB
	physGuests     = physmem.DDRBase + 0x0200_0000 // guest RAM and clone arenas from here
)

// GuestRAMSize is each VM's physical allocation (code + data + sections).
const GuestRAMSize = 4 << 20

// guestStagger is the gap the DDR cursor leaves after each VM's RAM, so
// same-offset guest structures do not collide in the same
// physically-indexed L2 sets — the layout a real allocator's metadata
// produces naturally.
const guestStagger = 0x11000

// mapKernelInto installs the global kernel mappings into a page table:
// kernel text+data, and identity mappings for the device windows the
// kernel drives (GIC, private timer, devcfg/PCAP, UART, and the AXI GP
// aperture holding the PRR register groups). All DomainKernel, APPriv —
// Table II's "Microkernel: Privileged" row.
func mapKernelInto(pt *mmu.PageTable) {
	pt.MapSection(KernelCodeVA, physKernelCode, DomainKernel, mmu.APPriv)
	pt.MapSection(KernelDataVA, physKernelData, DomainKernel, mmu.APPriv)
	// Page-table pool: the kernel edits guest tables through this window.
	for off := uint32(0); off < 8<<20; off += 1 << 20 {
		pt.MapSection(0xF020_0000+off, physTables+physmem.Addr(off), DomainKernel, mmu.APPriv)
	}
	// Device identity sections.
	pt.MapSection(uint32(physmem.AXIGP0Base), physmem.AXIGP0Base, DomainKernel, mmu.APPriv)
	pt.MapSection(0xF8F0_0000, 0xF8F0_0000, DomainKernel, mmu.APPriv)
	pt.MapSection(0xF800_0000, 0xF800_0000, DomainKernel, mmu.APPriv)
	pt.MapSection(uint32(physmem.UARTBase), physmem.UARTBase, DomainKernel, mmu.APPriv)
	// Bitstream store (kernel view; also mapped into the manager service).
	for off := uint32(0); off < 22<<20; off += 1 << 20 {
		pt.MapSection(BitstreamStoreVA+off, physBitstreams+physmem.Addr(off), DomainKernel, mmu.APPriv)
	}
}

// BitstreamStoreVA is where the kernel (and the Hardware Task Manager, in
// its own space) sees the bitstream file region.
const BitstreamStoreVA = 0xF100_0000

// BitstreamStorePA returns the physical base of the bitstream store.
func BitstreamStorePA() physmem.Addr { return physBitstreams }

// dacrFor computes the DACR for a guest context per Table II: the guest-
// user domain is always client; the guest-kernel domain is client only in
// guest-kernel context; the kernel domain is always client (its pages are
// privileged-only via AP, so guests cannot touch them regardless).
func dacrFor(guestKernelCtx bool) uint32 {
	d := uint32(mmu.DomainClient)<<(2*DomainGuestUser) |
		uint32(mmu.DomainClient)<<(2*DomainKernel)
	if guestKernelCtx {
		d |= uint32(mmu.DomainClient) << (2 * DomainGuestKernel)
	}
	return d
}

// takeDDR hands out size bytes of DDR at the cursor, aligned to align,
// and moves the cursor gap bytes past their end. It carves them on the
// bus, so their owner's first touches never grow the frame table. Every
// guest's RAM and every fresh clone arena comes from here, in creation
// order and where no core runs, so no two owners overlap. Past the end of
// DDR it panics, naming the owner (what, name) that did not fit.
func (k *Kernel) takeDDR(what, name string, size, align, gap uint32) physmem.Addr {
	a := (k.ddrNext + physmem.Addr(align-1)) &^ physmem.Addr(align-1)
	if end := uint64(physmem.DDRBase) + physmem.DDRSize; uint64(a)+uint64(size) > end {
		panic(fmt.Sprintf("nova: %s %q (%d KB at %#x) runs past the end of DDR at %#x", what, name, size>>10, uint32(a), end))
	}
	k.Bus.Carve(a, size)
	k.ddrNext = a + physmem.Addr(size+gap)
	return a
}

// Each PD's kernel-resident descriptor fills one kdataSlotSize slot of the
// 1 MB kernel-data section at KernelDataVA, which holds kdataSlots.
const (
	kdataSlotSize = 0x400
	kdataSlots    = 1 << 20 / kdataSlotSize
)

// takeKData hands out the kernel-data slot of a new PD named name: slot n
// to the PD with ID n while fresh slots last, then a destroyed clone's.
// With every slot held by a live PD it panics, naming the section. (DDR
// runs out first: it fits the RAM or arenas of fewer than 1,000 PDs.)
func (k *Kernel) takeKData(name string) uint32 {
	if id := len(k.PDs); id < kdataSlots {
		return KernelDataVA + uint32(id)*kdataSlotSize
	}
	n := len(k.kdataFree)
	if n == 0 {
		panic(fmt.Sprintf("nova: PD %q finds all %d slots of the kernel-data section at %#x held by live PDs", name, kdataSlots, uint32(KernelDataVA)))
	}
	a := k.kdataFree[n-1]
	k.kdataFree = k.kdataFree[:n-1]
	return a
}

// guestRegions is a VM's layout over its RAM at ramBase: the first
// quarter backs the guest kernel image (1 MB is plenty for a uCOS image),
// the rest backs guest user memory, including wherever the guest later
// places its hardware-task data section. A PD maps it read-write,
// Checkpoint records it as an image's regions, and an image's clones map
// those read-only.
func guestRegions(ramBase physmem.Addr) []checkpoint.Region {
	const kernelPart = GuestRAMSize / 4
	return []checkpoint.Region{
		{VA: GuestKernelBase, PA: ramBase, Size: kernelPart, Domain: DomainGuestKernel},
		{VA: GuestUserBase, PA: ramBase + kernelPart, Size: GuestRAMSize - kernelPart, Domain: DomainGuestUser},
	}
}

// guestTable builds a page table in alloc: the kernel's global half, then
// every region's frames with access ap, one region at a time, in the
// region's domain. Small pages throughout, since GuestUserBase is not
// 1 MB aligned and so no user slot can hold a section.
func guestTable(bus *physmem.Bus, alloc *mmu.FrameAllocator, regions []checkpoint.Region, ap uint8) *mmu.PageTable {
	pt := mmu.NewPageTable(bus, alloc)
	mapKernelInto(pt)
	for _, r := range regions {
		pt.MapPages(r.VA, r.PA, int(r.Size/physmem.FrameSize), r.Domain, ap)
	}
	return pt
}

// allocFor returns the frame allocator backing the page tables of a new
// PD named name. On a single-core machine every space shares the global
// pool (the layout the single-core goldens pin); a multi-core machine
// carves a private 256 KB arena per PD out of the pool, so lazy
// second-level table allocation on concurrent cores never races on the
// shared cursor. 256 KB holds the 16 KB L1 plus every 1 KB L2 a guest can
// need. When the pool has no arena left it panics, naming the PD.
func (k *Kernel) allocFor(name string) *mmu.FrameAllocator {
	if len(k.Cores) == 1 {
		return k.Alloc
	}
	a, ok := k.Alloc.TryAlloc(256<<10, 16<<10)
	if !ok {
		panic(fmt.Sprintf("nova: page tables of PD %q (256 KB) do not fit in the 8 MB page-table pool at %#x", name, uint32(physTables)))
	}
	return mmu.NewFrameAllocator(a, 256<<10)
}

// translateGuestVA resolves a guest VA through the PD's table, for kernel
// paths that need the physical view (data-section registration, §IV-E).
func translateGuestVA(pd *PD, va uint32) (physmem.Addr, error) {
	pa, _, _, ok := pd.Table.Lookup(va)
	if !ok {
		return 0, fmt.Errorf("va %#x not mapped in pd %s", va, pd.Name_)
	}
	return pa, nil
}
