package mmu

import (
	"errors"
	"fmt"

	"repro/internal/physmem"
)

// L1TableSize is the byte size of a first-level table (4096 word entries
// covering the 4 GB space in 1 MB steps).
const L1TableSize = 16 << 10

// L2TableSize is the byte size of a coarse second-level table (256 word
// entries covering 1 MB in 4 KB steps).
const L2TableSize = 1 << 10

// FrameAllocator hands out physically-contiguous, aligned regions of RAM
// for page tables. Mini-NOVA's kernel owns one; the native-baseline system
// owns another.
type FrameAllocator struct {
	base physmem.Addr
	next physmem.Addr
	end  physmem.Addr
}

// NewFrameAllocator serves allocations from [base, base+size).
func NewFrameAllocator(base physmem.Addr, size uint32) *FrameAllocator {
	return &FrameAllocator{base: base, next: base, end: base + physmem.Addr(size)}
}

// Alloc returns size bytes aligned to align, or panics when the pool is
// exhausted (a configuration error, not a runtime condition).
func (a *FrameAllocator) Alloc(size, align uint32) physmem.Addr {
	p, ok := a.TryAlloc(size, align)
	if !ok {
		panic(fmt.Sprintf("mmu: frame allocator exhausted (want %d bytes)", size))
	}
	return p
}

// TryAlloc is Alloc for a pool that may run out at run time: it reports
// false, and allocates nothing, when the pool has no room.
func (a *FrameAllocator) TryAlloc(size, align uint32) (physmem.Addr, bool) {
	p, ok := a.fit(size, align)
	if ok {
		a.next = p + physmem.Addr(size)
	}
	return p, ok
}

// fit returns where Alloc(size, align) would place its block, and
// whether the pool has room for it.
func (a *FrameAllocator) fit(size, align uint32) (physmem.Addr, bool) {
	p := (a.next + physmem.Addr(align-1)) &^ physmem.Addr(align-1)
	return p, p+physmem.Addr(size) <= a.end
}

// Remaining reports unallocated bytes.
func (a *FrameAllocator) Remaining() uint32 { return uint32(a.end - a.next) }

// PageTable manipulates one address space's two-level table in physical
// memory. All mutation goes through the bus so the hardware walker and any
// DMA observer see the same bytes. The *caller* (kernel code running under
// an ExecContext) is responsible for charging cycle costs of these edits;
// PageTable itself is pure mechanism.
type PageTable struct {
	Base  physmem.Addr // L1 table base (TTBR value)
	bus   *physmem.Bus
	alloc *FrameAllocator
}

// NewPageTable allocates and zeroes a fresh L1 table.
func NewPageTable(bus *physmem.Bus, alloc *FrameAllocator) *PageTable {
	base := alloc.Alloc(L1TableSize, L1TableSize)
	mustZero(bus, base, L1TableSize)
	return &PageTable{Base: base, bus: bus, alloc: alloc}
}

func mustZero(b *physmem.Bus, a physmem.Addr, n int) {
	if err := b.Zero(a, n); err != nil {
		panic(fmt.Sprintf("mmu: page-table clear failed: %v", err))
	}
}

func mustWrite(b *physmem.Bus, a physmem.Addr, v uint32) {
	if err := b.Write32(a, v); err != nil {
		panic(fmt.Sprintf("mmu: page-table write failed: %v", err))
	}
}

func mustRead(b *physmem.Bus, a physmem.Addr) uint32 {
	v, err := b.Read32(a)
	if err != nil {
		panic(fmt.Sprintf("mmu: page-table read failed: %v", err))
	}
	return v
}

func (pt *PageTable) l1addr(va uint32) physmem.Addr {
	return pt.Base + physmem.Addr(va>>20*4)
}

// MapSection installs a 1 MB section mapping va→pa with the given domain
// and AP bits. va and pa must be 1 MB aligned.
func (pt *PageTable) MapSection(va uint32, pa physmem.Addr, domain, ap uint8) {
	if va&0xFFFFF != 0 || uint32(pa)&0xFFFFF != 0 {
		panic("mmu: MapSection requires 1MB alignment")
	}
	d := uint32(pa)&0xFFF0_0000 | uint32(ap)<<10 | uint32(domain)<<5 | descSection
	mustWrite(pt.bus, pt.l1addr(va), d)
}

// MapPage installs a 4 KB small-page mapping va→pa, creating the L2 table
// on demand. The L2 table inherits the domain of its first mapping; mapping
// pages of different domains into the same 1 MB slot is rejected, matching
// how Mini-NOVA lays out guest spaces (one domain per region).
func (pt *PageTable) MapPage(va uint32, pa physmem.Addr, domain, ap uint8) {
	pt.MapPages(va, pa, 1, domain, ap)
}

// MapPages maps n consecutive 4 KB pages va→pa with MapPage's rules, and
// leaves the same bytes as n MapPage calls: per 1 MB slot it reads the L1
// descriptor once (creating the L2 table on demand) and then writes the
// slot's L2 descriptors in a row.
func (pt *PageTable) MapPages(va uint32, pa physmem.Addr, n int, domain, ap uint8) {
	if va&0xFFF != 0 || uint32(pa)&0xFFF != 0 {
		panic("mmu: MapPage requires 4KB alignment")
	}
	for n > 0 {
		l1a := pt.l1addr(va)
		l1d := mustRead(pt.bus, l1a)
		var l2base physmem.Addr
		switch l1d & 3 {
		case descFault:
			l2base = pt.alloc.Alloc(L2TableSize, L2TableSize)
			mustZero(pt.bus, l2base, L2TableSize)
			mustWrite(pt.bus, l1a, uint32(l2base)&^0x3FF|uint32(domain)<<5|descCoarse)
		case descCoarse:
			if uint8(l1d>>5&0xF) != domain {
				panic(fmt.Sprintf("mmu: domain mismatch in 1MB slot %#x: table has %d, mapping wants %d",
					va&^0xFFFFF, l1d>>5&0xF, domain))
			}
			l2base = physmem.Addr(l1d &^ 0x3FF)
		default:
			panic(fmt.Sprintf("mmu: MapPage over a section at %#x", va))
		}
		// Pages left in this slot, capped at n.
		m := min(n, int(256-va>>12&0xFF))
		for i := 0; i < m; i++ {
			l2a := l2base + physmem.Addr(va>>12&0xFF*4)
			mustWrite(pt.bus, l2a, uint32(pa)&^0xFFF|uint32(ap)<<4|descSmall)
			va += physmem.FrameSize
			pa += physmem.FrameSize
		}
		n -= m
	}
}

// Reasons CheckMapPage refuses a mapping.
var (
	// ErrSlotInUse: the 1 MB slot holds a section, or a second-level
	// table of another domain.
	ErrSlotInUse = errors.New("mmu: 1MB slot holds a section or another domain's table")
	// ErrNoTableRoom: the slot has no second-level table and the
	// allocator has no room for one.
	ErrNoTableRoom = errors.New("mmu: no room for a second-level table")
)

// CheckMapPage reports, without touching the table, why MapPage(va, _,
// domain, _) would panic, or nil when it would succeed.
func (pt *PageTable) CheckMapPage(va uint32, domain uint8) error {
	l1d := mustRead(pt.bus, pt.l1addr(va))
	switch l1d & 3 {
	case descFault:
		if _, ok := pt.alloc.fit(L2TableSize, L2TableSize); !ok {
			return ErrNoTableRoom
		}
		return nil
	case descCoarse:
		if uint8(l1d>>5&0xF) == domain {
			return nil
		}
	}
	return ErrSlotInUse
}

// RemapPage rewrites an existing 4 KB small-page mapping in place: the
// VA moves to a new frame with new AP bits without touching the table
// structure. This is the copy-on-write break — a shared read-only page
// becomes a private writable one — so a missing mapping is a kernel bug
// and panics. The caller charges the edit and flushes the TLB entry.
func (pt *PageTable) RemapPage(va uint32, pa physmem.Addr, ap uint8) {
	if va&0xFFF != 0 || uint32(pa)&0xFFF != 0 {
		panic("mmu: RemapPage requires 4KB alignment")
	}
	l1d := mustRead(pt.bus, pt.l1addr(va))
	if l1d&3 != descCoarse {
		panic(fmt.Sprintf("mmu: RemapPage in unmapped 1MB slot %#x", va))
	}
	l2a := physmem.Addr(l1d&^0x3FF) + physmem.Addr(va>>12&0xFF*4)
	if mustRead(pt.bus, l2a)&3 != descSmall {
		panic(fmt.Sprintf("mmu: RemapPage of unmapped page %#x", va))
	}
	mustWrite(pt.bus, l2a, uint32(pa)&^0xFFF|uint32(ap)<<4|descSmall)
}

// UnmapPage removes a 4 KB mapping (descriptor → fault). Unmapping an
// absent page is a no-op; the caller must flush the TLB entry.
func (pt *PageTable) UnmapPage(va uint32) {
	l1d := mustRead(pt.bus, pt.l1addr(va))
	if l1d&3 != descCoarse {
		return
	}
	l2a := physmem.Addr(l1d&^0x3FF) + physmem.Addr(va>>12&0xFF*4)
	mustWrite(pt.bus, l2a, 0)
}

// Lookup reads the table the way the walker would (without TLB or cost)
// and reports the mapped PA, or ok=false. Tests and assertions use it.
func (pt *PageTable) Lookup(va uint32) (pa physmem.Addr, domain, ap uint8, ok bool) {
	l1d := mustRead(pt.bus, pt.l1addr(va))
	switch l1d & 3 {
	case descSection:
		return physmem.Addr(l1d&0xFFF0_0000 | va&0xFFFFF), uint8(l1d >> 5 & 0xF), uint8(l1d >> 10 & 3), true
	case descCoarse:
		l2a := physmem.Addr(l1d&^0x3FF) + physmem.Addr(va>>12&0xFF*4)
		l2d := mustRead(pt.bus, l2a)
		if l2d&3 != descSmall {
			return 0, 0, 0, false
		}
		return physmem.Addr(l2d&^0xFFF | va&0xFFF), uint8(l1d >> 5 & 0xF), uint8(l2d >> 4 & 3), true
	}
	return 0, 0, 0, false
}

// WalkDepth returns how many descriptors a walk of va reads: two through
// a coarse L1 entry, one otherwise. Kernel code charges a page-table
// edit's cache traffic per level.
func (pt *PageTable) WalkDepth(va uint32) int {
	if mustRead(pt.bus, pt.l1addr(va))&3 == descCoarse {
		return 2
	}
	return 1
}
