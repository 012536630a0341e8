// Package tlb models the Cortex-A9 unified main TLB with ASID tagging.
//
// Mini-NOVA relies on the address space identifier to avoid full TLB
// flushes on VM switches (paper §III-C): each VM gets a unique ASID and the
// kernel just reloads CONTEXTIDR. Entries for different ASIDs coexist, so a
// VM that runs again soon may still hit — and with many VMs the shared TLB
// gets polluted, which is one of the two mechanisms behind Table III's
// growth with VM count.
package tlb

import "repro/internal/physmem"

// Translation is the cached result of a page-table walk — everything the
// MMU needs to complete an access without re-walking.
type Translation struct {
	PFN    uint32 // physical frame number (PA >> 12)
	Domain uint8  // ARM domain (0..15) used against DACR
	AP     uint8  // access-permission bits from the descriptor
	Large  bool   // 1 MB section (true) vs 4 KB small page (false)
}

// PhysAddr reconstructs the physical address for va under this translation.
func (t Translation) PhysAddr(va uint32) physmem.Addr {
	if t.Large {
		return physmem.Addr(t.PFN<<12&0xFFF0_0000 | va&0x000F_FFFF)
	}
	return physmem.Addr(t.PFN<<12 | va&0xFFF)
}

type entry struct {
	vpn    uint32 // virtual page number (VA >> 12; sections store the 1MB-aligned VPN)
	asid   uint8
	global bool
	valid  bool
	lru    uint64
	tr     Translation
}

// Stats counts TLB events.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	FlushAll    uint64
	FlushByASID uint64
}

// Accesses is total lookups.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRate returns misses/accesses or 0.
func (s Stats) MissRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Misses) / float64(a)
	}
	return 0
}

// TLB is a set-associative, ASID-tagged translation cache.
// The A9 main TLB is 128-entry 2-way; that is the default geometry.
// Entries live in one contiguous backing array (set-major: set*ways+way),
// indexed by mask arithmetic; per-size-class population counts let Lookup
// reject a whole probe (small-page or section key) when no entry of that
// class exists.
type TLB struct {
	entries []entry // nsets × ways, flat
	ways    int
	setMask uint32
	stamp   uint64
	nSmall  int // valid 4 KB small-page entries
	nLarge  int // valid 1 MB section entries
	last    int // index of the entry the latest hit or Insert resolved (see Rehit)
	stats   Stats
}

// NewA9 returns the Cortex-A9 main TLB geometry (128 entries, 2-way).
func NewA9() *TLB { return New(128, 2) }

// New builds a TLB with the given total entries and associativity.
// entries/ways must be a power of two.
func New(entries, ways int) *TLB {
	nsets := entries / ways
	if nsets*ways != entries || nsets&(nsets-1) != 0 {
		panic("tlb: geometry must be power-of-two sets")
	}
	return &TLB{ways: ways, entries: make([]entry, entries), setMask: uint32(nsets - 1)}
}

// set returns the flat slice of ways backing vpn's set, and the index in
// entries of its first way.
func (t *TLB) set(vpn uint32) (int, []entry) {
	base := int(vpn&t.setMask) * t.ways
	return base, t.entries[base : base+t.ways]
}

// drop invalidates *e, keeping the size-class population counts coherent.
func (t *TLB) drop(e *entry) {
	if e.valid {
		if e.tr.Large {
			t.nLarge--
		} else {
			t.nSmall--
		}
	}
	*e = entry{}
}

// key normalizes the tag VPN: section entries are tagged on their 1 MB
// frame so any VA inside the section hits the single entry.
func key(va uint32, large bool) uint32 {
	if large {
		return va >> 12 &^ 0xFF // 1MB-aligned VPN
	}
	return va >> 12
}

// Lookup searches for a translation of va under asid. Global entries match
// any ASID.
func (t *TLB) Lookup(va uint32, asid uint8) (Translation, bool) {
	// Probe both the small-page key and the section key: hardware does this
	// with per-entry size bits in one associative search. A probe whose
	// size class has no resident entries at all cannot hit and is skipped
	// outright (stats are untouched by a skipped probe: it could only have
	// missed, and miss accounting happens once below).
	if t.nSmall > 0 {
		if tr, ok := t.probe(key(va, false), false, asid); ok {
			return tr, true
		}
	}
	if t.nLarge > 0 {
		if tr, ok := t.probe(key(va, true), true, asid); ok {
			return tr, true
		}
	}
	t.stats.Misses++
	return Translation{}, false
}

func (t *TLB) probe(vpn uint32, large bool, asid uint8) (Translation, bool) {
	base, set := t.set(vpn)
	for i := range set {
		e := &set[i]
		if e.valid && e.vpn == vpn && e.tr.Large == large && (e.global || e.asid == asid) {
			t.stamp++
			e.lru = t.stamp
			t.stats.Hits++
			t.last = base + i
			return e.tr, true
		}
	}
	return Translation{}, false
}

// Rehit repeats the effects of a Lookup that finds the entry the latest
// hitting Lookup or Insert resolved: one hit, a stamp bump and that entry's
// lru. It returns the entry's translation. It stands in exactly for a
// second Lookup(va, asid) of that same va and asid when nothing touched the
// TLB in between and, after an Insert, the Lookup before the Insert missed:
// the sequence mmu.Translate leaves. That second Lookup would find this
// entry. The micro-TLB refill in cpu uses it to skip the second search.
func (t *TLB) Rehit() Translation {
	e := &t.entries[t.last]
	t.stamp++
	e.lru = t.stamp
	t.stats.Hits++
	return e.tr
}

// Insert caches a walk result for va under asid. Global entries (kernel
// mappings shared by all spaces) match every ASID.
func (t *TLB) Insert(va uint32, asid uint8, global bool, tr Translation) {
	vpn := key(va, tr.Large)
	base, set := t.set(vpn)
	t.stamp++
	victim := 0
	for i := range set {
		e := &set[i]
		if e.valid && e.vpn == vpn && e.tr.Large == tr.Large && (e.global == global) && (global || e.asid == asid) {
			victim = i // refill in place
			goto fill
		}
		if !set[i].valid {
			victim = i
			goto fill
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid {
		t.stats.Evictions++
	}
fill:
	t.last = base + victim
	t.drop(&set[victim])
	if tr.Large {
		t.nLarge++
	} else {
		t.nSmall++
	}
	set[victim] = entry{vpn: vpn, asid: asid, global: global, valid: true, lru: t.stamp, tr: tr}
}

// FlushAll invalidates every entry (TLBIALL).
func (t *TLB) FlushAll() {
	for i := range t.entries {
		t.entries[i] = entry{}
	}
	t.nSmall, t.nLarge = 0, 0
	t.stats.FlushAll++
}

// FlushASID invalidates all non-global entries of one ASID (TLBIASID).
func (t *TLB) FlushASID(asid uint8) {
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && !e.global && e.asid == asid {
			t.drop(e)
		}
	}
	t.stats.FlushByASID++
}

// FlushVA invalidates any entry translating va for asid (TLBIMVA),
// including a covering section entry. Global entries for the page are also
// dropped, matching TLBIMVAA semantics used by the kernel on its own
// mappings.
func (t *TLB) FlushVA(va uint32, asid uint8) {
	for _, large := range [2]bool{false, true} {
		vpn := key(va, large)
		_, set := t.set(vpn)
		for w := range set {
			e := &set[w]
			if e.valid && e.vpn == vpn && e.tr.Large == large && (e.global || e.asid == asid) {
				t.drop(e)
			}
		}
	}
}

// Stats returns a copy of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// Resident counts valid entries.
func (t *TLB) Resident() int { return t.nSmall + t.nLarge }

// WalkPenalty is the base cycle cost of taking a TLB miss: the walker
// issues two descriptor fetches (L1 + L2 table) whose memory cost is
// charged separately through the cache model.
const WalkPenalty = 10
