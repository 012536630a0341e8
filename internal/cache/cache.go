// Package cache models the Cortex-A9 cache hierarchy of the paper's
// evaluation platform: 32 KB 4-way split L1 instruction and data caches and
// a 512 KB 8-way unified L2, all physically indexed and physically tagged
// (PIPT). Physical tagging is what lets Mini-NOVA switch VM address spaces
// without flushing caches (paper §III-C); this model preserves that
// property, which is essential for the Table III trend to emerge for the
// right reason.
//
// The model tracks tag state only — data lives in physmem — because the
// experiments need timing (hit/miss cycles) and pollution behaviour, not a
// second copy of memory.
package cache

import (
	"fmt"

	"repro/internal/physmem"
)

// LineSize is the cache line size in bytes (A9: 32-byte lines).
const LineSize = 32

// lineShift is log2(LineSize).
const lineShift = 5

// Stats counts cache events since the last reset.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
	Flushes    uint64
}

// Accesses is the total number of lookups.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRate returns misses/accesses, or 0 when idle.
func (s Stats) MissRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Misses) / float64(a)
	}
	return 0
}

type line struct {
	tag   uint32
	valid bool
	dirty bool
}

// Cache is one set-associative, write-back, write-allocate cache level.
// Lines live in one contiguous backing array (set-major: set*ways+way) and
// are indexed by shift/mask arithmetic — no per-set slice headers on the
// per-access hot path.
//
// Replacement is pseudo-random, as in the Cortex-A9's L1 caches (TRM r4p1
// §7.1) and the PL310 L2's default; it also produces the gradual
// miss-probability growth with occupancy that strict LRU hides behind a
// capacity cliff.
type Cache struct {
	name     string
	lines    []line // nsets × ways, flat
	ways     int
	setMask  uint32 // nsets - 1
	setShift uint   // log2(nsets); tag = lineAddr >> setShift
	rng      uint32
	stats    Stats
	epoch    uint64 // bumped on every fill/invalidate (residency mutation)
}

// New builds a cache of sizeBytes with the given associativity and
// pseudo-random replacement (the A9 default). sizeBytes must be a
// multiple of ways*LineSize and the set count a power of two (true of
// every A9 configuration).
func New(name string, sizeBytes, ways int) *Cache {
	nlines := sizeBytes / LineSize
	nsets := nlines / ways
	if nsets*ways*LineSize != sizeBytes {
		panic(fmt.Sprintf("cache %s: size %d not divisible by %d ways * %d line", name, sizeBytes, ways, LineSize))
	}
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", name, nsets))
	}
	shift := uint(0)
	for 1<<shift < nsets {
		shift++
	}
	return &Cache{
		name: name, ways: ways,
		lines: make([]line, nsets*ways), setMask: uint32(nsets - 1), setShift: shift,
		rng: 0x2545F491,
	}
}

// Name returns the cache's identifying name (e.g. "L1D").
func (c *Cache) Name() string { return c.name }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// set returns the flat slice of ways backing pa's set, plus the tag.
func (c *Cache) set(pa physmem.Addr) (ways []line, set, tag uint32) {
	lineAddr := uint32(pa) >> lineShift
	set = lineAddr & c.setMask
	tag = lineAddr >> c.setShift
	base := int(set) * c.ways
	return c.lines[base : base+c.ways], set, tag
}

// Victim describes the line displaced by a missing Access: its own
// line-aligned address (reconstructed from tag+set) and whether it was
// dirty. Valid is false when the miss filled an invalid way (no eviction).
type Victim struct {
	Addr  physmem.Addr
	Dirty bool
	Valid bool
}

// Access looks up pa; on a miss it allocates the line, evicting a
// pseudo-random way.
// It returns hit, whether the eviction wrote back a dirty line (the
// caller charges writeback cost to the next level), and the victim line
// info so the next level can be charged at the victim's own address.
func (c *Cache) Access(pa physmem.Addr, write bool) (hit, writeback bool, victim Victim) {
	if c.probeHit(pa, write) {
		return true, false, Victim{}
	}
	writeback, victim = c.fill(pa, write)
	return false, writeback, victim
}

// fill handles the miss half of Access: allocate pa's line, evicting a
// pseudo-random way, and report the displaced victim. The caller must have
// probed and missed (probeHit) with no intervening mutation.
func (c *Cache) fill(pa physmem.Addr, write bool) (writeback bool, victim Victim) {
	ws, set, tag := c.set(pa)
	c.stats.Misses++
	c.epoch++ // the fill below changes which lines are resident
	// Choose a victim: invalid ways first, then the next rng draw.
	way := -1
	for i := range ws {
		if !ws[i].valid {
			way = i
			break
		}
	}
	if way < 0 {
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 17
		c.rng ^= c.rng << 5
		way = int(c.rng) & (c.ways - 1)
		c.stats.Evictions++
		v := &ws[way]
		victim = Victim{
			Addr:  physmem.Addr((v.tag<<c.setShift | set) << lineShift),
			Dirty: v.dirty,
			Valid: true,
		}
		if v.dirty {
			c.stats.Writebacks++
			writeback = true
		}
	}
	ws[way] = line{tag: tag, valid: true, dirty: write}
	return writeback, victim
}

// HitRun records n repeat accesses to pa's resident line in one step: the
// resulting line state (dirty bit) and stats are bit-identical to n
// consecutive Access calls that all hit. The batched memory path uses it
// to collapse same-line streaming accesses into one probe. If the line is
// unexpectedly absent it degrades to n real Access calls, preserving exact
// scalar semantics.
func (c *Cache) HitRun(pa physmem.Addr, write bool, n int) {
	if n <= 0 {
		return
	}
	ws, _, tag := c.set(pa)
	for i := range ws {
		if ws[i].valid && ws[i].tag == tag {
			if write {
				ws[i].dirty = true
			}
			c.stats.Hits += uint64(n)
			return
		}
	}
	for i := 0; i < n; i++ {
		c.Access(pa, write)
	}
}

// Contains reports whether pa's line is resident, without counting a hit.
func (c *Cache) Contains(pa physmem.Addr) bool {
	ws, _, tag := c.set(pa)
	for i := range ws {
		if ws[i].valid && ws[i].tag == tag {
			return true
		}
	}
	return false
}

// InvalidateAll drops every line (without writeback accounting: the A9's
// invalidate-all maintenance op; Mini-NOVA uses clean+invalidate only on
// explicit guest cache hypercalls).
func (c *Cache) InvalidateAll() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	c.epoch++
	c.stats.Flushes++
}

// CleanInvalidateAll writes back dirty lines and drops everything,
// returning the number of lines written back.
func (c *Cache) CleanInvalidateAll() int {
	wb := 0
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].dirty {
			wb++
			c.stats.Writebacks++
		}
		c.lines[i] = line{}
	}
	c.epoch++
	c.stats.Flushes++
	return wb
}

// InvalidateLine drops the line containing pa, returning whether it was
// dirty (caller decides on writeback cost).
func (c *Cache) InvalidateLine(pa physmem.Addr) (wasDirty bool) {
	ws, _, tag := c.set(pa)
	for i := range ws {
		if ws[i].valid && ws[i].tag == tag {
			wasDirty = ws[i].dirty
			ws[i] = line{}
			c.epoch++
			return
		}
	}
	return false
}

// Epoch is a monotonic counter of residency mutations: it advances on
// every fill and every invalidation, and on nothing else. A caller that
// proved a set of lines resident at epoch E may treat them as still
// resident exactly while Epoch() == E.
func (c *Cache) Epoch() uint64 { return c.epoch }

// BulkHits records n guaranteed-hit read probes of resident lines without
// touching them. A hitting read probe's only effect is the hit counter
// (replacement keeps no recency state and a read sets no dirty bit), so
// this is bit-identical to n scalar probes of lines the caller has proven
// resident (see Epoch).
func (c *Cache) BulkHits(n int) {
	c.stats.Hits += uint64(n)
}

// ResidentLines counts valid lines (used by tests and the footprint report).
func (c *Cache) ResidentLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}

// Penalties of the hierarchy in core cycles. The L1 hit cost is folded into
// the 1-cycle issue cost charged by the CPU model; these are *additional*
// cycles on top.
const (
	PenaltyL2Hit  = 8  // L1 miss, L2 hit
	PenaltyDDR    = 60 // L2 miss, DDR fill
	PenaltyWB     = 6  // dirty eviction drain (amortized; write buffer)
	PenaltyLineWB = 10 // explicit clean of one dirty line
)

// Hierarchy bundles the A9's L1I, L1D and shared L2 and converts accesses
// into cycle costs.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
}

// NewA9Hierarchy returns the paper's configuration: 32 KB 4-way L1 I and D,
// 512 KB 8-way L2.
func NewA9Hierarchy() *Hierarchy {
	return &Hierarchy{
		L1I: New("L1I", 32<<10, 4),
		L1D: New("L1D", 32<<10, 4),
		L2:  New("L2", 512<<10, 8),
	}
}

// NewA9SharedL2 returns n per-core hierarchies with private 32 KB L1s over
// one shared 512 KB L2 — the Cortex-A9 MPCore memory system of the
// dual-core Zynq-7000: cross-core interference shows up as L2 contention
// while each core keeps its own L2 working set.
func NewA9SharedL2(n int) []*Hierarchy {
	l2 := New("L2", 512<<10, 8)
	hs := make([]*Hierarchy, n)
	for i := range hs {
		hs[i] = &Hierarchy{
			L1I: New("L1I", 32<<10, 4),
			L1D: New("L1D", 32<<10, 4),
			L2:  l2,
		}
	}
	return hs
}

// NewA9WayPartitionedL2 returns n per-core hierarchies whose 512 KB L2 is
// way-partitioned: core i owns 8/n ways of every set (the PL310's lockdown-
// by-master configuration). Each partition keeps the full 2048 sets, so the
// index function is unchanged and n may be 1, 2, 4 or 8. Because no line or
// replacement-rng state is shared, a core's L2 traffic depends only on its
// own access stream — the property the epoch-barrier parallel run loop
// needs to let cores advance on concurrent host goroutines while staying
// bit-deterministic.
func NewA9WayPartitionedL2(n int) []*Hierarchy {
	if n < 1 || 8%n != 0 {
		panic(fmt.Sprintf("cache: cannot split 8 L2 ways across %d cores", n))
	}
	hs := make([]*Hierarchy, n)
	for i := range hs {
		hs[i] = &Hierarchy{
			L1I: New("L1I", 32<<10, 4),
			L1D: New("L1D", 32<<10, 4),
			L2:  New("L2", 512<<10/n, 8/n),
		}
	}
	return hs
}

// probeHit is the lean L1-hit fast path: on a hit it performs exactly the
// bookkeeping Access would (stats, dirty) and returns true; on a miss it
// touches nothing, so the caller's follow-up Access observes an unchanged
// set and does the single miss accounting itself.
func (c *Cache) probeHit(pa physmem.Addr, write bool) bool {
	lineAddr := uint32(pa) >> lineShift
	base := int(lineAddr&c.setMask) * c.ways
	tag := lineAddr >> c.setShift
	ws := c.lines[base : base+c.ways]
	for i := range ws {
		if ws[i].valid && ws[i].tag == tag {
			if write {
				ws[i].dirty = true
			}
			c.stats.Hits++
			return true
		}
	}
	return false
}

// FetchCost runs an instruction fetch at pa through L1I/L2 and returns the
// additional cycle cost (0 on L1 hit).
func (h *Hierarchy) FetchCost(pa physmem.Addr) uint64 {
	if h.L1I.probeHit(pa, false) {
		return 0
	}
	return h.cost(h.L1I, pa, false)
}

// DataCost runs a data access at pa through L1D/L2 and returns the
// additional cycle cost.
func (h *Hierarchy) DataCost(pa physmem.Addr, write bool) uint64 {
	if h.L1D.probeHit(pa, write) {
		return 0
	}
	return h.cost(h.L1D, pa, write)
}

// cost handles the L1-miss path; the caller has already probed l1 and
// missed, so the line is filled directly and the L2 traffic charged.
func (h *Hierarchy) cost(l1 *Cache, pa physmem.Addr, write bool) uint64 {
	wb, victim := l1.fill(pa, write)
	var cost uint64
	if wb {
		cost += PenaltyWB
		// The dirty victim drains into L2 at its *own* line address (it
		// rarely shares a line with the incoming pa that displaced it).
		h.L2.Access(victim.Addr, true)
	}
	l2hit, l2wb, _ := h.L2.Access(pa, write)
	if l2hit {
		return cost + PenaltyL2Hit
	}
	if l2wb {
		cost += PenaltyWB
	}
	return cost + PenaltyL2Hit + PenaltyDDR
}

// WalkCost charges a hardware page-table walk access (bypasses L1, uses L2,
// as the A9 walker does when page tables are marked outer-cacheable).
func (h *Hierarchy) WalkCost(pa physmem.Addr) uint64 {
	hit, wb, _ := h.L2.Access(pa, false)
	var cost uint64
	if wb {
		cost += PenaltyWB
	}
	if hit {
		return cost + PenaltyL2Hit
	}
	return cost + PenaltyL2Hit + PenaltyDDR
}
