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
