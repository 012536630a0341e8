package nova

import (
	"fmt"

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

// Physical layout carved from DDR by the kernel at boot.
const (
	physKernelCode = physmem.DDRBase               // 1 MB
	physKernelData = physmem.DDRBase + 0x0010_0000 // 1 MB
	physTables     = physmem.DDRBase + 0x0020_0000 // page-table pool, 8 MB
	physBitstreams = physmem.DDRBase + 0x00A0_0000 // bitstream store, 22 MB
	physGuests     = physmem.DDRBase + 0x0200_0000 // guest RAM from here
)

// GuestRAMSize is each VM's physical allocation (code + data + sections).
const GuestRAMSize = 4 << 20

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

// AddressSpace describes a constructed VM space.
type AddressSpace struct {
	Table   *mmu.PageTable
	RAMBase physmem.Addr
	RAMSize uint32
}

// buildGuestSpace allocates a VM's RAM and page table: guest user pages,
// guest kernel pages, and the kernel's global half.
//
// The guest's physical RAM block is split: first quarter backs the guest
// kernel image, the rest backs guest user memory (including wherever the
// guest later places its hardware-task data section).
func (k *Kernel) buildGuestSpace(id int) AddressSpace {
	// Stagger VM blocks by an extra 68 KB so same-offset guest structures
	// do not collide in the same physically-indexed L2 sets — the layout
	// a real allocator's metadata produces naturally.
	ramBase := physGuests + physmem.Addr(id*(GuestRAMSize+0x11000))
	pt := mmu.NewPageTable(k.Bus, k.allocFor(id))
	mapKernelInto(pt)

	const kernelPart = GuestRAMSize / 4
	// Guest kernel image: 1 MB of small pages is plenty for a uCOS image.
	pt.MapPages(GuestKernelBase, ramBase, kernelPart/physmem.FrameSize, DomainGuestKernel, mmu.APFull)
	// Guest user region: small pages too, since GuestUserBase is not
	// 1 MB aligned and so no user slot can hold a section.
	pt.MapPages(GuestUserBase, ramBase+kernelPart, (GuestRAMSize-kernelPart)/physmem.FrameSize,
		DomainGuestUser, mmu.APFull)
	return AddressSpace{Table: pt, RAMBase: ramBase, RAMSize: GuestRAMSize}
}

// allocFor returns the frame allocator backing PD id's page tables. On a
// single-core machine every space shares the global pool (the layout the
// single-core goldens pin); a multi-core machine carves a private
// 256 KB arena per PD out of the pool, so lazy second-level table
// allocation on concurrent cores never races on the shared cursor.
// 256 KB holds the 16 KB L1 plus every 1 KB L2 a guest can need.
func (k *Kernel) allocFor(id int) *mmu.FrameAllocator {
	if len(k.Cores) == 1 {
		return k.Alloc
	}
	return mmu.NewFrameAllocator(k.Alloc.Alloc(256<<10, 16<<10), 256<<10)
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
