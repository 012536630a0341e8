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
//
// A Hierarchy charges one line per FetchCost or DataCost call, or a run of
// consecutive lines per FetchRun or DataRun call, with the effects of the
// per-line calls in order; every kind reaches the L2 through one L1-miss
// path.
package cache

import (
	"fmt"
	"math"

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

// A way is one packed word, tag<<2 | wayDirty | wayValid, and 0 is an
// invalid way. A tag is at most 27 bits (a 32-bit PA less the 5 line
// bits), so it fits; a probe compares one word per way.
const (
	wayValid = 1
	wayDirty = 2
)

// Cache is one set-associative, write-back, write-allocate cache level.
// Way words live in one contiguous backing array (set-major: set*ways+way)
// and are indexed by shift/mask arithmetic — no per-set slice headers on
// the per-access hot path.
//
// Replacement is pseudo-random, as in the Cortex-A9's L1 caches (TRM r4p1
// §7.1) and the PL310 L2's default; it also produces the gradual
// miss-probability growth with occupancy that strict LRU hides behind a
// capacity cliff.
type Cache struct {
	name     string
	lines    []uint32 // nsets × ways packed way words, flat
	ways     int
	nvalid   int    // valid ways; once every way is valid, fill skips its invalid-way scan
	setMask  uint32 // nsets - 1
	setShift uint   // log2(nsets); tag = lineAddr >> setShift
	rng      uint32
	stats    Stats
	epoch    uint64 // bumped on every fill/invalidate (residency mutation)
}

// New builds a cache of sizeBytes with the given associativity and
// pseudo-random replacement (the A9 default). sizeBytes must be a
// multiple of ways*LineSize, and both the way count (the victim draw masks
// the rng with ways-1) and the set count must be powers of two (true of
// every A9 configuration).
func New(name string, sizeBytes, ways int) *Cache {
	if ways < 1 || ways&(ways-1) != 0 {
		panic(fmt.Sprintf("cache %s: way count %d not a power of two", name, ways))
	}
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
		lines: make([]uint32, nsets*ways), setMask: uint32(nsets - 1), setShift: shift,
		rng: 0x2545F491,
	}
}

// Name returns the cache's identifying name (e.g. "L1D").
func (c *Cache) Name() string { return c.name }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// set returns the flat slice of ways backing pa's set, plus the tag.
func (c *Cache) set(pa physmem.Addr) (ways []uint32, set, tag uint32) {
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
	way := c.replace(ws)
	if w := ws[way]; w != 0 {
		victim = Victim{Addr: c.lineAddr(w, set), Dirty: w&wayDirty != 0, Valid: true}
		if victim.Dirty {
			c.stats.Writebacks++
		}
	}
	ws[way] = word(tag, write)
	return victim.Dirty, victim
}

// replace picks the way of ws, one set's ways, that a fill takes, and
// counts the miss: an invalid way while the cache has one (a full cache has
// none to find), else the next rng draw, whose line is evicted. The caller
// counts a dirty victim's writeback. Either way the resident lines change,
// so the epoch moves.
func (c *Cache) replace(ws []uint32) int {
	c.stats.Misses++
	c.epoch++
	if c.nvalid < len(c.lines) {
		for i, w := range ws {
			if w == 0 {
				c.nvalid++
				return i
			}
		}
	}
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 17
	c.rng ^= c.rng << 5
	c.stats.Evictions++
	return int(c.rng) & (c.ways - 1)
}

// lineAddr rebuilds the line address of way word w in set.
func (c *Cache) lineAddr(w, set uint32) physmem.Addr {
	return physmem.Addr((w>>2<<c.setShift | set) << lineShift)
}

// word is the way word of tag's line, dirty after a write.
func word(tag uint32, write bool) uint32 {
	if write {
		return tag<<2 | wayDirty | wayValid
	}
	return tag<<2 | wayValid
}

// find returns the way of ws holding tag's line, or -1.
func find(ws []uint32, tag uint32) int {
	key := tag<<2 | wayValid
	for i, w := range ws {
		if w&^wayDirty == key {
			return i
		}
	}
	return -1
}

// Contains reports whether pa's line is resident, without counting a hit.
func (c *Cache) Contains(pa physmem.Addr) bool {
	ws, _, tag := c.set(pa)
	return find(ws, tag) >= 0
}

// InvalidateAll drops every line (without writeback accounting: the A9's
// invalidate-all maintenance op; Mini-NOVA uses clean+invalidate only on
// explicit guest cache hypercalls).
func (c *Cache) InvalidateAll() {
	clear(c.lines)
	c.nvalid = 0
	c.epoch++
	c.stats.Flushes++
}

// CleanInvalidateAll writes back dirty lines and drops everything,
// returning the number of lines written back.
func (c *Cache) CleanInvalidateAll() int {
	wb := 0
	for _, w := range c.lines {
		if w&wayDirty != 0 {
			wb++
		}
	}
	c.stats.Writebacks += uint64(wb)
	clear(c.lines)
	c.nvalid = 0
	c.epoch++
	c.stats.Flushes++
	return wb
}

// InvalidateLine drops the line containing pa, returning whether it was
// dirty (caller decides on writeback cost).
func (c *Cache) InvalidateLine(pa physmem.Addr) (wasDirty bool) {
	ws, _, tag := c.set(pa)
	i := find(ws, tag)
	if i < 0 {
		return false
	}
	wasDirty = ws[i]&wayDirty != 0
	ws[i] = 0
	c.nvalid--
	c.epoch++
	return wasDirty
}

// Epoch is a monotonic counter of residency mutations: it advances on
// every fill and every invalidation, and on nothing else. A caller that
// proved a set of lines resident at epoch E may treat them as still
// resident exactly while Epoch() == E.
func (c *Cache) Epoch() uint64 { return c.epoch }

// BulkHits records n guaranteed-hit probes that change no line: reads of
// resident lines, or writes to lines already dirty. Such a probe's only
// effect is the hit counter (replacement keeps no recency state), so this
// is bit-identical to n scalar probes of lines the caller has proven
// resident (see Epoch), or has just probed or filled.
func (c *Cache) BulkHits(n int) {
	c.stats.Hits += uint64(n)
}

// ResidentLines counts valid lines (used by tests and the footprint report).
func (c *Cache) ResidentLines() int { return c.nvalid }

// Penalties of the hierarchy in core cycles. The L1 hit cost is folded into
// the 1-cycle issue cost charged by the CPU model; these are *additional*
// cycles on top.
const (
	PenaltyL2Hit  = 8  // L1 miss, L2 hit
	PenaltyDDR    = 60 // L2 miss, DDR fill
	PenaltyWB     = 6  // dirty eviction drain (amortized; write buffer)
	PenaltyLineWB = 10 // explicit clean of one dirty line
)

// Hierarchy bundles one core's L1I, L1D and L2 and converts accesses into
// cycle costs. On a multi-core machine the L2 is the core's own partition
// of the shared L2's ways (NewA9WayPartitionedL2).
//
// FetchCost and DataCost charge one line. FetchRun and DataRun charge up to
// n consecutive lines in one call and stop early at a cycle budget, so a
// caller that must see every event deadline (the CPU's batched engine) can
// hand over a page of lines at once. All four share one line loop (the
// single-line calls after an L1 hit probe of their own), and it holds the
// one L1-miss path: fill the L1, drain a dirty victim into the L2 at the
// victim's own address, then access the L2.
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
	key := lineAddr>>c.setShift<<2 | wayValid
	ws := c.lines[base : base+c.ways]
	for i, w := range ws {
		if w&^wayDirty == key {
			if write {
				ws[i] = w | wayDirty
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
	// A missing probe changes nothing, so run probes again and misses.
	_, cost, _ := h.run(h.L1I, pa, 1, false, 0, math.MaxUint64)
	return cost
}

// DataCost runs a data access at pa through L1D/L2 and returns the
// additional cycle cost.
func (h *Hierarchy) DataCost(pa physmem.Addr, write bool) uint64 {
	if h.L1D.probeHit(pa, write) {
		return 0
	}
	_, cost, _ := h.run(h.L1D, pa, 1, write, 0, math.MaxUint64)
	return cost
}

// FetchRun fetches n consecutive lines through L1I/L2, starting with pa's
// line: the effects of FetchCost at pa, pa+LineSize, ... in order. It stops
// after the first line that brings the run's cost to budget or more (after
// the first line when budget is 0), and returns the lines fetched, their
// additional cycles, and whether any of them missed the L1I.
func (h *Hierarchy) FetchRun(pa physmem.Addr, n int, budget uint64) (lines int, cost uint64, missed bool) {
	return h.run(h.L1I, pa, n, false, 0, budget)
}

// DataRun is FetchRun on the data side: n consecutive DataCost accesses
// from pa's line, each followed by follow plain hits on the line it has
// just made resident (and dirty, on a write), as a stream's other accesses
// to that line would count. The line that brings the cost to budget or
// more ends the run without its follow hits: its caller must let the clock
// catch up first, and those accesses then probe again.
func (h *Hierarchy) DataRun(pa physmem.Addr, n int, write bool, follow int, budget uint64) (lines int, cost uint64, missed bool) {
	return h.run(h.L1D, pa, n, write, follow, budget)
}

// run is the one line loop behind FetchCost, DataCost, FetchRun and
// DataRun, and holds the one L1-miss path: fill the L1, drain a dirty
// victim into the L2 at the victim's own line address (it rarely shares a
// line with the incoming pa that displaced it), then access the L2 at pa.
// The path is inline because Go keeps no registers across a call: a call
// per miss from this loop spills and reloads the loop's state, and a
// miss-heavy stream ran about 15% slower that way.
func (h *Hierarchy) run(l1 *Cache, pa physmem.Addr, n int, write bool, follow int, budget uint64) (lines int, cost uint64, missed bool) {
	l2 := h.L2
	for lines < n {
		lines++
		ws, set, tag := l1.set(pa)
		if i := find(ws, tag); i >= 0 {
			if write {
				ws[i] |= wayDirty
			}
			l1.stats.Hits++
		} else {
			missed = true
			cost += PenaltyL2Hit
			way := l1.replace(ws)
			if w := ws[way]; w&wayDirty != 0 {
				l1.stats.Writebacks++
				cost += PenaltyWB
				l2.Access(l1.lineAddr(w, set), true)
			}
			ws[way] = word(tag, write)
			if !l2.probeHit(pa, write) {
				if wb, _ := l2.fill(pa, write); wb {
					cost += PenaltyWB
				}
				cost += PenaltyDDR
			}
		}
		if cost >= budget {
			break
		}
		l1.stats.Hits += uint64(follow)
		pa += LineSize
	}
	return lines, cost, missed
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
