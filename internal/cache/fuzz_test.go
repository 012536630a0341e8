package cache

import (
	"fmt"
	"testing"

	"repro/internal/physmem"
)

// refLine and refCache are the reference model: one struct per line and an
// invalid-way scan on every fill, with the same replacement rng as Cache.
type refLine struct {
	tag   uint32
	valid bool
	dirty bool
}

type refCache struct {
	lines    []refLine
	ways     int
	setMask  uint32
	setShift uint
	rng      uint32
	stats    Stats
}

func newRef(sizeBytes, ways int) *refCache {
	nsets := sizeBytes / LineSize / ways
	shift := uint(0)
	for 1<<shift < nsets {
		shift++
	}
	return &refCache{lines: make([]refLine, nsets*ways), ways: ways,
		setMask: uint32(nsets - 1), setShift: shift, rng: 0x2545F491}
}

func (r *refCache) set(pa physmem.Addr) ([]refLine, uint32, uint32) {
	lineAddr := uint32(pa) >> lineShift
	set := lineAddr & r.setMask
	base := int(set) * r.ways
	return r.lines[base : base+r.ways], set, lineAddr >> r.setShift
}

func (r *refCache) access(pa physmem.Addr, write bool) (hit, writeback bool, victim Victim) {
	ws, set, tag := r.set(pa)
	for i := range ws {
		if ws[i].valid && ws[i].tag == tag {
			ws[i].dirty = ws[i].dirty || write
			r.stats.Hits++
			return true, false, Victim{}
		}
	}
	r.stats.Misses++
	way := -1
	for i := range ws {
		if !ws[i].valid {
			way = i
			break
		}
	}
	if way < 0 {
		r.rng ^= r.rng << 13
		r.rng ^= r.rng >> 17
		r.rng ^= r.rng << 5
		way = int(r.rng) & (r.ways - 1)
		r.stats.Evictions++
		v := ws[way]
		victim = Victim{Addr: physmem.Addr((v.tag<<r.setShift | set) << lineShift), Dirty: v.dirty, Valid: true}
		if v.dirty {
			r.stats.Writebacks++
			writeback = true
		}
	}
	ws[way] = refLine{tag: tag, valid: true, dirty: write}
	return false, writeback, victim
}

func (r *refCache) contains(pa physmem.Addr) bool {
	ws, _, tag := r.set(pa)
	for _, l := range ws {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func (r *refCache) invalidateLine(pa physmem.Addr) bool {
	ws, _, tag := r.set(pa)
	for i := range ws {
		if ws[i].valid && ws[i].tag == tag {
			dirty := ws[i].dirty
			ws[i] = refLine{}
			return dirty
		}
	}
	return false
}

func (r *refCache) invalidateAll() {
	clear(r.lines)
	r.stats.Flushes++
}

func (r *refCache) cleanInvalidateAll() int {
	wb := 0
	for _, l := range r.lines {
		if l.valid && l.dirty {
			wb++
			r.stats.Writebacks++
		}
	}
	r.invalidateAll()
	return wb
}

func (r *refCache) resident() int {
	n := 0
	for _, l := range r.lines {
		if l.valid {
			n++
		}
	}
	return n
}

// refCost is Hierarchy.FetchCost/DataCost over reference caches.
func refCost(l1, l2 *refCache, pa physmem.Addr, write bool) uint64 {
	hit, wb, victim := l1.access(pa, write)
	if hit {
		return 0
	}
	var cost uint64
	if wb {
		cost += PenaltyWB
		l2.access(victim.Addr, true)
	}
	l2hit, l2wb, _ := l2.access(pa, write)
	if l2hit {
		return cost + PenaltyL2Hit
	}
	if l2wb {
		cost += PenaltyWB
	}
	return cost + PenaltyL2Hit + PenaltyDDR
}

// runResult is what FetchRun and DataRun return.
type runResult struct {
	lines  int
	cost   uint64
	missed bool
}

// refRun is FetchRun and DataRun over reference caches: a loop of refCost
// with the same stop rule, whose follow hits are real accesses to the line
// just charged.
func refRun(l1, l2 *refCache, pa physmem.Addr, n int, write bool, follow int, budget uint64) (lines int, cost uint64, missed bool) {
	for lines < n {
		c := refCost(l1, l2, pa, write)
		lines++
		cost += c
		missed = missed || c > 0 // an L1 miss costs at least PenaltyL2Hit
		if cost >= budget {
			break
		}
		for range follow {
			refCost(l1, l2, pa, write)
		}
		pa += LineSize
	}
	return lines, cost, missed
}

// FuzzCacheMatchesReference runs an op trace through a three-level
// hierarchy of packed-way caches and through the reference model, and
// requires the same results, stats, residency and line state after every
// op. The low two bits of geometry pick 1, 2, 4 or 8 ways; the next two pick
// 1 to 8 L1 sets (the L2 has four times as many). Each op is four trace
// bytes: kind, flags (bit 0 write, the rest the target level for the
// single-cache ops), and two bytes of address. The addresses cover 64
// lines in each of 8 tag planes, so sets conflict and lines come back. A
// FetchRun or DataRun op takes four bytes more: its line count (1 to 130
// lines from the op's address, so a run crosses sets and tag planes), its
// follow count (0 to 31), its budget (the byte squared: 0, and budgets no
// run reaches, both occur) and one unused byte. Only the first 1,024 trace
// bytes run, which keeps each run, and the minimizing of a new input, fast.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, geometry uint8, trace []byte) {
		trace = trace[:min(len(trace), 4*256)]
		ways := 1 << (geometry & 3)
		l1Size := ways * LineSize << (geometry >> 2 & 3)
		h := &Hierarchy{L1I: New("L1I", l1Size, ways), L1D: New("L1D", l1Size, ways), L2: New("L2", 4*l1Size, ways)}
		ref := [3]*refCache{newRef(l1Size, ways), newRef(l1Size, ways), newRef(4*l1Size, ways)}
		caches := [3]*Cache{h.L1I, h.L1D, h.L2}

		for i, n := 0, 0; i+4 <= len(trace); i, n = i+4, n+1 {
			kind, write, lvl := trace[i]%18, trace[i+1]&1 != 0, int(trace[i+1]>>1)%3
			pa := physmem.Addr(0x10_0000 + uint32(trace[i+3]&7)<<14 + uint32(trace[i+2])<<3)
			c, r := caches[lvl], ref[lvl]
			op := func() string { return describe(n, kind, lvl, pa, write) }
			switch {
			case kind >= 16:
				if i+8 > len(trace) {
					return
				}
				p := trace[i+4 : i+8]
				i += 4
				lines, follow, budget := 1+int(p[0])%130, int(p[1])%32, uint64(p[2])*uint64(p[2])
				op = func() string { return describeRun(n, kind, pa, lines, write, follow, budget) }
				var got, want runResult
				if kind == 16 {
					got.lines, got.cost, got.missed = h.FetchRun(pa, lines, budget)
					want.lines, want.cost, want.missed = refRun(ref[0], ref[2], pa, lines, false, 0, budget)
				} else {
					got.lines, got.cost, got.missed = h.DataRun(pa, lines, write, follow, budget)
					want.lines, want.cost, want.missed = refRun(ref[1], ref[2], pa, lines, write, follow, budget)
				}
				if got != want {
					t.Fatalf("%s = %+v, reference %+v", op(), got, want)
				}
			case kind < 6:
				if got, want := h.DataCost(pa, write), refCost(ref[1], ref[2], pa, write); got != want {
					t.Fatalf("%s = %d, reference %d", op(), got, want)
				}
			case kind < 9:
				if got, want := h.FetchCost(pa), refCost(ref[0], ref[2], pa, false); got != want {
					t.Fatalf("%s = %d, reference %d", op(), got, want)
				}
			case kind < 12:
				hit, wb, v := c.Access(pa, write)
				rhit, rwb, rv := r.access(pa, write)
				if hit != rhit || wb != rwb || v != rv {
					t.Fatalf("%s = %v %v %+v, reference %v %v %+v", op(), hit, wb, v, rhit, rwb, rv)
				}
			case kind < 14:
				if got, want := c.InvalidateLine(pa), r.invalidateLine(pa); got != want {
					t.Fatalf("%s = %v, reference %v", op(), got, want)
				}
			case kind == 14:
				c.InvalidateAll()
				r.invalidateAll()
			default:
				if got, want := c.CleanInvalidateAll(), r.cleanInvalidateAll(); got != want {
					t.Fatalf("%s = %d, reference %d", op(), got, want)
				}
			}
			for l := range caches {
				c, r := caches[l], ref[l]
				if c.Stats() != r.stats || c.ResidentLines() != r.resident() || c.Contains(pa) != r.contains(pa) {
					t.Fatalf("after %s, level %d: stats %+v resident %d contains %v; reference %+v %d %v",
						op(), l, c.Stats(), c.ResidentLines(), c.Contains(pa), r.stats, r.resident(), r.contains(pa))
				}
				for j, rl := range r.lines {
					want := uint32(0)
					if rl.valid {
						want = rl.tag<<2 | wayValid
						if rl.dirty {
							want |= wayDirty
						}
					}
					if c.lines[j] != want {
						t.Fatalf("after %s, level %d way %d: word %#x, reference line %+v", op(), l, j, c.lines[j], rl)
					}
				}
			}
		}
	})
}

// describeRun names run op n for a failure message.
func describeRun(n int, kind byte, pa physmem.Addr, lines int, write bool, follow int, budget uint64) string {
	if kind == 16 {
		return fmt.Sprintf("op %d FetchRun(%#x, %d, %d)", n, pa, lines, budget)
	}
	return fmt.Sprintf("op %d DataRun(%#x, %d, %v, %d, %d)", n, pa, lines, write, follow, budget)
}

// describe names trace op n for a failure message.
func describe(n int, kind byte, lvl int, pa physmem.Addr, write bool) string {
	switch {
	case kind < 6:
		return fmt.Sprintf("op %d DataCost(%#x, %v)", n, pa, write)
	case kind < 9:
		return fmt.Sprintf("op %d FetchCost(%#x)", n, pa)
	case kind < 12:
		return fmt.Sprintf("op %d L%d.Access(%#x, %v)", n, lvl, pa, write)
	case kind < 14:
		return fmt.Sprintf("op %d L%d.InvalidateLine(%#x)", n, lvl, pa)
	case kind == 14:
		return fmt.Sprintf("op %d L%d.InvalidateAll()", n, lvl)
	}
	return fmt.Sprintf("op %d L%d.CleanInvalidateAll()", n, lvl)
}
