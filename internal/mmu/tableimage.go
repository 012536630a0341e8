package mmu

import (
	"encoding/binary"
	"fmt"

	"repro/internal/physmem"
)

// TableImage is a page table captured for copying: the frames of the
// allocator range it was built in, shared on the host (physmem
// SharedFrame) rather than copied. Instantiate lays the same table out in
// another allocator's range. Two such tables differ only in the coarse L1
// entries that point at their own L2 tables, so only the frames holding
// those entries are written; every other frame, L2 tables included,
// shares the captured buffer until its first write.
type TableImage struct {
	bus    *physmem.Bus
	base   physmem.Addr // the captured allocator's base
	used   uint32       // bytes the captured table allocated from base
	l1     uint32       // offset of the L1 table from base
	frames []physmem.SharedFrame
	// coarse holds the offsets from base of the L1 entries that point at
	// L2 tables inside [base, base+used).
	coarse []uint32
}

// CaptureTable captures pt. Everything pt's allocator handed out must
// belong to pt, and its small pages must not map frames of that range: an
// instance's L2 tables are copies, so they map the same frames. pt's
// later edits leave the image as it was.
func CaptureTable(pt *PageTable) *TableImage {
	a := pt.alloc
	used := uint32(a.next - a.base)
	im := &TableImage{bus: pt.bus, base: a.base, used: used, l1: uint32(pt.Base - a.base)}
	l1, err := pt.bus.ReadBytes(pt.Base, L1TableSize)
	if err != nil {
		panic(fmt.Sprintf("mmu: page-table read failed: %v", err))
	}
	for i := 0; i < L1TableSize; i += 4 {
		d := binary.LittleEndian.Uint32(l1[i:])
		if l2 := physmem.Addr(d &^ 0x3FF); d&3 == descCoarse && l2 >= a.base && l2 < a.next {
			im.coarse = append(im.coarse, im.l1+uint32(i))
		}
	}
	for off := uint32(0); off < used; off += physmem.FrameSize {
		im.frames = append(im.frames, pt.bus.CaptureFrame(a.base+physmem.Addr(off)))
	}
	return im
}

// Instantiate builds the captured table in alloc, which must be unused,
// have room for it, and start at the captured base plus a multiple of
// L1TableSize, so that every block lands at the offset it had. The new
// table's bytes and alloc's next block are what building it descriptor by
// descriptor would have given; the bytes past the table in its last frame
// are the captured ones.
func (im *TableImage) Instantiate(alloc *FrameAllocator) *PageTable {
	delta := uint32(alloc.base - im.base)
	if alloc.next != alloc.base || delta%L1TableSize != 0 || alloc.Remaining() < im.used {
		panic(fmt.Sprintf("mmu: table image of %d bytes at %#x cannot move to allocator at %#x with %d bytes free",
			im.used, uint32(im.base), uint32(alloc.base), alloc.Remaining()))
	}
	for i, f := range im.frames {
		im.bus.InstallFrame(alloc.base+physmem.Addr(i)<<physmem.FrameShift, f)
	}
	for _, off := range im.coarse {
		a := alloc.base + physmem.Addr(off)
		mustWrite(im.bus, a, mustRead(im.bus, a)+delta)
	}
	alloc.next = alloc.base + physmem.Addr(im.used)
	return &PageTable{Base: alloc.base + physmem.Addr(im.l1), bus: im.bus, alloc: alloc}
}
