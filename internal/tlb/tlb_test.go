package tlb

import (
	"testing"
	"testing/quick"
)

func tr(pfn uint32) Translation { return Translation{PFN: pfn, Domain: 1, AP: 3} }

func TestInsertLookup(t *testing.T) {
	tl := NewA9()
	tl.Insert(0x1000_0000, 5, false, tr(0x12345))
	got, ok := tl.Lookup(0x1000_0ABC, 5)
	if !ok {
		t.Fatal("lookup missed after insert (same page)")
	}
	if got.PFN != 0x12345 {
		t.Errorf("PFN = %#x, want 0x12345", got.PFN)
	}
	if got.PhysAddr(0x1000_0ABC) != 0x12345ABC {
		t.Errorf("PhysAddr = %#x, want 0x12345ABC", got.PhysAddr(0x1000_0ABC))
	}
}

func TestASIDIsolation(t *testing.T) {
	tl := NewA9()
	tl.Insert(0x1000_0000, 5, false, tr(0x11111))
	if _, ok := tl.Lookup(0x1000_0000, 6); ok {
		t.Error("ASID 6 hit ASID 5's entry")
	}
	tl.Insert(0x1000_0000, 6, false, tr(0x22222))
	a, _ := tl.Lookup(0x1000_0000, 5)
	b, _ := tl.Lookup(0x1000_0000, 6)
	if a.PFN == b.PFN {
		t.Error("ASIDs 5 and 6 share a translation")
	}
}

func TestGlobalMatchesAllASIDs(t *testing.T) {
	tl := NewA9()
	tl.Insert(0xC000_0000, 0, true, tr(0x99999))
	for asid := uint8(0); asid < 8; asid++ {
		if _, ok := tl.Lookup(0xC000_0000, asid); !ok {
			t.Errorf("global entry missed under ASID %d", asid)
		}
	}
}

func TestSectionEntryCoversMegabyte(t *testing.T) {
	tl := NewA9()
	sec := Translation{PFN: 0x40000, Large: true, Domain: 0, AP: 3}
	tl.Insert(0x0010_0000, 1, false, sec)
	if _, ok := tl.Lookup(0x001F_FFFC, 1); !ok {
		t.Error("section entry did not cover its 1MB range")
	}
	if _, ok := tl.Lookup(0x0020_0000, 1); ok {
		t.Error("section entry leaked past 1MB")
	}
	got, _ := tl.Lookup(0x0012_3456, 1)
	if pa := got.PhysAddr(0x0012_3456); pa != 0x4002_3456 {
		t.Errorf("section PhysAddr = %#x, want 0x40023456", pa)
	}
}

func TestFlushASID(t *testing.T) {
	tl := NewA9()
	tl.Insert(0x1000_0000, 5, false, tr(1))
	tl.Insert(0x2000_0000, 6, false, tr(2))
	tl.Insert(0xC000_0000, 0, true, tr(3))
	tl.FlushASID(5)
	if _, ok := tl.Lookup(0x1000_0000, 5); ok {
		t.Error("flushed ASID still hits")
	}
	if _, ok := tl.Lookup(0x2000_0000, 6); !ok {
		t.Error("FlushASID(5) removed ASID 6's entry")
	}
	if _, ok := tl.Lookup(0xC000_0000, 5); !ok {
		t.Error("FlushASID removed a global entry")
	}
}

func TestFlushVA(t *testing.T) {
	tl := NewA9()
	tl.Insert(0x1000_0000, 5, false, tr(1))
	tl.Insert(0x1000_1000, 5, false, tr(2))
	tl.FlushVA(0x1000_0000, 5)
	if _, ok := tl.Lookup(0x1000_0000, 5); ok {
		t.Error("FlushVA left the entry")
	}
	if _, ok := tl.Lookup(0x1000_1000, 5); !ok {
		t.Error("FlushVA removed a different page")
	}
}

func TestFlushAll(t *testing.T) {
	tl := NewA9()
	for i := uint32(0); i < 50; i++ {
		tl.Insert(0x1000_0000+i<<12, uint8(i%4), i%7 == 0, tr(i))
	}
	tl.FlushAll()
	if tl.Resident() != 0 {
		t.Errorf("%d entries resident after FlushAll", tl.Resident())
	}
}

func TestEvictionLRU(t *testing.T) {
	tl := New(2, 2) // one set, two ways
	tl.Insert(0x0000_1000, 1, false, tr(1))
	tl.Insert(0x0000_2000, 1, false, tr(2))
	tl.Lookup(0x0000_1000, 1) // make entry 1 MRU
	tl.Insert(0x0000_3000, 1, false, tr(3))
	if _, ok := tl.Lookup(0x0000_1000, 1); !ok {
		t.Error("MRU entry evicted")
	}
	if _, ok := tl.Lookup(0x0000_2000, 1); ok {
		t.Error("LRU entry survived")
	}
}

func TestRefillInPlace(t *testing.T) {
	tl := NewA9()
	tl.Insert(0x1000_0000, 5, false, tr(1))
	tl.Insert(0x1000_0000, 5, false, tr(42)) // updated mapping
	got, ok := tl.Lookup(0x1000_0000, 5)
	if !ok || got.PFN != 42 {
		t.Errorf("refill: got %#x,%v want 42,true", got.PFN, ok)
	}
	if tl.Stats().Evictions != 0 {
		t.Error("in-place refill counted as eviction")
	}
}

func TestStatsAccounting(t *testing.T) {
	tl := NewA9()
	tl.Lookup(0x1000, 1) // miss
	tl.Insert(0x1000, 1, false, tr(1))
	tl.Lookup(0x1000, 1) // hit
	tl.Lookup(0x2000, 1) // miss
	st := tl.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Accesses() != 3 {
		t.Errorf("stats = %+v, want 1 hit 2 misses", st)
	}
}

// Property: after Insert(va, asid) the very next Lookup(va, asid) hits, and
// a Lookup under a different non-matching ASID never returns another ASID's
// non-global translation.
func TestPropertyInsertThenHit(t *testing.T) {
	tl := NewA9()
	f := func(page uint16, asid, other uint8, pfn uint32) bool {
		va := uint32(page) << 12
		tl.Insert(va, asid, false, tr(pfn&0xFFFFF))
		got, ok := tl.Lookup(va, asid)
		if !ok || got.PFN != pfn&0xFFFFF {
			return false
		}
		if other != asid {
			if g, ok := tl.Lookup(va, other); ok && g.PFN == pfn&0xFFFFF {
				// A hit is only legal if some earlier iteration inserted the
				// same PFN under 'other'; to keep the property crisp, flush
				// and re-verify isolation.
				tl.FlushAll()
				tl.Insert(va, asid, false, tr(pfn&0xFFFFF))
				if _, ok2 := tl.Lookup(va, other); ok2 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the per-size-class population counts that gate Lookup's probe
// skipping stay coherent with the backing array across inserts, evictions,
// in-place refills and every flush flavor — an undercounted class would make
// Lookup skip a probe that could hit.
func TestPropertyPopulationCountsCoherent(t *testing.T) {
	tl := New(32, 2)
	recount := func() (small, large int) {
		for i := range tl.entries {
			if tl.entries[i].valid {
				if tl.entries[i].tr.Large {
					large++
				} else {
					small++
				}
			}
		}
		return
	}
	f := func(ops []uint32) bool {
		for _, op := range ops {
			va := op &^ 0xFFF
			asid := uint8(op >> 1 & 3)
			switch op % 7 {
			case 0, 1, 2:
				tl.Insert(va, asid, op%5 == 0, Translation{PFN: op >> 12, Large: op%3 == 0})
			case 3:
				tl.Lookup(va, asid)
			case 4:
				tl.FlushVA(va, asid)
			case 5:
				tl.FlushASID(asid)
			case 6:
				if op%11 == 0 {
					tl.FlushAll()
				}
			}
			s, l := recount()
			if s != tl.nSmall || l != tl.nLarge || tl.Resident() != s+l {
				t.Logf("counts diverged: have small=%d large=%d, want %d/%d", tl.nSmall, tl.nLarge, s, l)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// A section entry must still be found when small-page entries are absent
// (the small-key probe is skipped) and vice versa.
func TestProbeSkipStillHits(t *testing.T) {
	tl := NewA9()
	tl.Insert(0x2030_0000, 1, false, Translation{PFN: 0x20300, Large: true})
	if _, ok := tl.Lookup(0x2030_4567, 1); !ok {
		t.Error("section entry missed with no small entries resident")
	}
	tl.FlushAll()
	tl.Insert(0x5000, 2, false, Translation{PFN: 5})
	if _, ok := tl.Lookup(0x5FFF, 2); !ok {
		t.Error("small entry missed with no section entries resident")
	}
}

// TestRehitMatchesSecondLookup runs two TLBs through the same trace of
// small-page hits, section hits, inserts after a miss and in-place
// refills. After each step one TLB calls Rehit and the other a second
// Lookup of the same VA and ASID. Each VA has one page size and one
// globalness, as in the kernel's tables, so an Insert refills any entry a
// Lookup of its VA could find. The translations, stats and every entry
// (lru stamps included, so every later victim choice) must stay equal.
func TestRehitMatchesSecondLookup(t *testing.T) {
	for _, geom := range [][2]int{{16, 2}, {8, 4}, {4, 1}} {
		a, b := New(geom[0], geom[1]), New(geom[0], geom[1])
		rng := uint32(0x9E3779B9)
		for i := 0; i < 4000; i++ {
			rng ^= rng << 13
			rng ^= rng >> 17
			rng ^= rng << 5
			var va uint32
			var large, global bool
			switch rng % 4 {
			case 0, 1: // user small pages
				va = 0x0001_0000 + rng>>8%48<<12
			case 2: // user sections
				va, large = 0x4000_0000+rng>>8%6<<20|rng>>16&0xFFFFF, true
			case 3: // kernel pages, global
				va, global = 0xC000_0000+rng>>8%12<<12, true
			}
			asid := uint8(rng >> 20 % 3)
			tr := Translation{PFN: va>>12 + uint32(i), Domain: 1, AP: 3, Large: large}
			for _, x := range [2]*TLB{a, b} {
				if rng>>24%8 == 0 {
					x.Insert(va, asid, global, tr) // in place when resident
				} else if _, ok := x.Lookup(va, asid); !ok {
					x.Insert(va, asid, global, tr)
				}
			}
			got := a.Rehit()
			want, ok := b.Lookup(va, asid)
			if !ok || got != want {
				t.Fatalf("%v step %d: Rehit = %+v, second Lookup = %+v, %v", geom, i, got, want, ok)
			}
			if a.Stats() != b.Stats() || a.stamp != b.stamp {
				t.Fatalf("%v step %d: stats %+v stamp %d, want %+v stamp %d", geom, i, a.Stats(), a.stamp, b.Stats(), b.stamp)
			}
			for j := range a.entries {
				if a.entries[j] != b.entries[j] {
					t.Fatalf("%v step %d: entry %d = %+v, want %+v", geom, i, j, a.entries[j], b.entries[j])
				}
			}
		}
		if st := a.Stats(); st.Evictions == 0 || st.Misses == 0 {
			t.Errorf("%v: trace evicted %d and missed %d times; it must do both", geom, st.Evictions, st.Misses)
		}
	}
}
