package mmu

import (
	"bytes"
	"testing"

	"repro/internal/physmem"
)

// tableBytes returns every byte the allocator has handed out: the L1
// table and each L2 table created since.
func tableBytes(t *testing.T, bus *physmem.Bus, alloc *FrameAllocator) []byte {
	t.Helper()
	used := 8<<20 - int(alloc.Remaining())
	p, err := bus.ReadBytes(physmem.DDRBase+1<<20, used)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mapRun is one MapPages call; prep runs first on both tables.
type mapRun struct {
	name   string
	prep   func(pt *PageTable)
	va     uint32
	pa     physmem.Addr
	n      int
	domain uint8
	panics bool
}

// TestMapPagesMatchesMapPageLoop: MapPages leaves the bus bytes, the
// allocator cursor and the allocated frames exactly as n MapPage calls
// do — also when both panic part-way.
func TestMapPagesMatchesMapPageLoop(t *testing.T) {
	runs := []mapRun{
		{name: "mid-slot start", va: 0x0040_3000, pa: physmem.DDRBase + 0x20_0000, n: 10, domain: 1},
		{name: "crosses a 1MB slot", va: 0x004F_E000, pa: physmem.DDRBase + 0x30_0000, n: 300, domain: 1},
		{name: "extends a coarse table",
			prep: func(pt *PageTable) { pt.MapPage(0x0060_0000, physmem.DDRBase+0x50_0000, 2, APFull) },
			va:   0x0060_1000, pa: physmem.DDRBase + 0x50_1000, n: 20, domain: 2},
		{name: "domain mismatch in the second slot",
			prep: func(pt *PageTable) { pt.MapPage(0x0070_0000, physmem.DDRBase+0x60_0000, 1, APFull) },
			va:   0x006F_F000, pa: physmem.DDRBase + 0x61_0000, n: 2, domain: 2, panics: true},
		{name: "over a section in the second slot",
			prep: func(pt *PageTable) { pt.MapSection(0x0090_0000, physmem.DDRBase+0x70_0000, 1, APFull) },
			va:   0x008F_F000, pa: physmem.DDRBase + 0x81_0000, n: 2, domain: 1, panics: true},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			loopBus, _, loopPT, loopAlloc := rig()
			bulkBus, _, bulkPT, bulkAlloc := rig()
			if r.prep != nil {
				r.prep(loopPT)
				r.prep(bulkPT)
			}
			loopPanicked := panics(func() {
				for i := 0; i < r.n; i++ {
					loopPT.MapPage(r.va+uint32(i)<<12, r.pa+physmem.Addr(i)<<12, r.domain, APUserRO)
				}
			})
			bulkPanicked := panics(func() { bulkPT.MapPages(r.va, r.pa, r.n, r.domain, APUserRO) })
			if loopPanicked != r.panics || bulkPanicked != r.panics {
				t.Fatalf("panicked: MapPage loop %v, MapPages %v, want %v", loopPanicked, bulkPanicked, r.panics)
			}
			if loopAlloc.Remaining() != bulkAlloc.Remaining() {
				t.Fatalf("allocator remaining: MapPage loop %d, MapPages %d", loopAlloc.Remaining(), bulkAlloc.Remaining())
			}
			if !bytes.Equal(tableBytes(t, loopBus, loopAlloc), tableBytes(t, bulkBus, bulkAlloc)) {
				t.Fatal("MapPages left different table bytes than the MapPage loop")
			}
			if loopBus.TouchedFrames() != bulkBus.TouchedFrames() {
				t.Fatalf("touched frames: MapPage loop %d, MapPages %d", loopBus.TouchedFrames(), bulkBus.TouchedFrames())
			}
			if !r.panics {
				last := r.va + uint32(r.n-1)<<12
				if pa, _, ap, ok := bulkPT.Lookup(last); !ok || pa != r.pa+physmem.Addr(r.n-1)<<12 || ap != APUserRO {
					t.Fatalf("last page %#x: pa %#x ap %d ok %v", last, pa, ap, ok)
				}
			}
		})
	}
}

func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// TestTableImageInstantiate: a table captured in one allocator and
// instantiated in others, above and below it, has the bytes, the
// allocator cursor and the translations a build in place gives, and a
// write to one instance changes neither the captured table nor another
// instance.
func TestTableImageInstantiate(t *testing.T) {
	const size = 64 << 10
	build := func(bus *physmem.Bus, alloc *FrameAllocator) *PageTable {
		pt := NewPageTable(bus, alloc)
		pt.MapSection(0xF000_0000, physmem.DDRBase, 15, APPriv)
		pt.MapPages(0x0001_0000, physmem.DDRBase+0x100_0000, 300, 1, APUserRO)
		pt.MapPages(0x3000_0000, physmem.DDRBase+0x200_0000, 16, 2, APUserRO)
		return pt
	}
	vas := []uint32{0xF000_0000, 0xF00F_F000, 0x0001_0000, 0x0013_B000, 0x3000_0000, 0x3000_F000, 0x3001_0000, 0x4000_0000}
	bus := physmem.NewBus()
	srcBase := physmem.DDRBase + 0x400_0000
	src := build(bus, NewFrameAllocator(srcBase, size))
	im := CaptureTable(src)
	want := func(base physmem.Addr) ([]byte, *PageTable, uint32) {
		ref := physmem.NewBus()
		alloc := NewFrameAllocator(base, size)
		pt := build(ref, alloc)
		p, err := ref.ReadBytes(base, size)
		if err != nil {
			t.Fatal(err)
		}
		return p, pt, alloc.Remaining()
	}
	var insts []*PageTable
	for _, base := range []physmem.Addr{srcBase + 0x10_0000, srcBase - 0x10_0000} {
		alloc := NewFrameAllocator(base, size)
		pt := im.Instantiate(alloc)
		insts = append(insts, pt)
		wantBytes, ref, left := want(base)
		got, err := bus.ReadBytes(base, size)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantBytes) || pt.Base != ref.Base || alloc.Remaining() != left {
			t.Fatalf("instance at %#x differs from a build in place (base %#x, %d bytes left; want %#x, %d)",
				uint32(base), uint32(pt.Base), alloc.Remaining(), uint32(ref.Base), left)
		}
		for _, va := range vas {
			pa, dom, ap, ok := pt.Lookup(va)
			wpa, wdom, wap, wok := ref.Lookup(va)
			if pa != wpa || dom != wdom || ap != wap || ok != wok {
				t.Fatalf("instance at %#x: Lookup(%#x) = %#x %d %d %v, want %#x %d %d %v",
					uint32(base), va, pa, dom, ap, ok, wpa, wdom, wap, wok)
			}
		}
	}
	before, _ := bus.ReadBytes(srcBase, size)
	other, _ := bus.ReadBytes(insts[1].Base, size)
	insts[0].RemapPage(0x0001_0000, physmem.DDRBase+0x500_0000, APFull)
	if pa, _, _, _ := insts[0].Lookup(0x0001_0000); pa != physmem.DDRBase+0x500_0000 {
		t.Fatalf("remapped instance maps %#x", pa)
	}
	after, _ := bus.ReadBytes(srcBase, size)
	otherAfter, _ := bus.ReadBytes(insts[1].Base, size)
	if !bytes.Equal(before, after) || !bytes.Equal(other, otherAfter) {
		t.Fatal("a write to one instance changed the captured table or another instance")
	}
}
