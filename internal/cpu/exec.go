package cpu

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/mmu"
	"repro/internal/physmem"
	"repro/internal/simclock"
	"repro/internal/tlb"
)

// instrPerLine is how many 4-byte instructions share one 32-byte I-line.
const instrPerLine = 8

// lineBytes is the fetch cursor's step: one I-line.
const lineBytes = instrPerLine * 4

// microTLBSize models the A9 side micro-TLBs (32-entry on silicon; a
// smaller model keeps main-TLB pressure visible).
const microTLBSize = 8

type microEntry struct {
	page  uint32 // VA >> 12
	tr    tlb.Translation
	valid bool
}

// ExecContext is the lens through which a piece of software — kernel
// routine, guest task, service — executes on the CPU. It charges the
// simulated clock for instruction issue, I-fetch through L1I/L2, data
// traffic through L1D/L2, and address translation through micro-TLB, main
// TLB and hardware walks. Each software component owns one ExecContext
// bound to the virtual address range its code occupies, so distinct
// components contend for cache and TLB space exactly the way the paper's
// Table III measures.
type ExecContext struct {
	CPU *CPU
	// Name labels traces and errors.
	Name string
	// CodeBase/CodeSize delimit the component's code in its address space;
	// the fetch cursor walks this range cyclically.
	CodeBase, CodeSize uint32

	cursor uint32 // byte offset of the next fetch within the code range

	gen    uint64 // CPU generation the micro-TLBs were filled under
	iMicro microEntry
	dMicro [microTLBSize]microEntry
	dNext  int

	// I-side residency streak: iClean counts consecutive zero-miss fetch
	// bytes observed while the L1I's residency epoch stayed at iEpoch.
	// Once it reaches CodeSize, every line of the (32-byte-multiple) code
	// range is proven resident and fetch probes are guaranteed hits until
	// the epoch moves — the batched Exec bulk-charges them (see Exec).
	iEpoch uint64
	iClean uint32

	// Stalled is set when an unrecovered abort occurred; the owner (VM or
	// kernel) decides what to do with a stalled context.
	Stalled bool
}

// NewExecContext binds a context to its code range.
func NewExecContext(c *CPU, name string, codeBase, codeSize uint32) *ExecContext {
	if codeSize == 0 {
		panic("cpu: ExecContext needs a non-empty code range")
	}
	return &ExecContext{CPU: c, Name: name, CodeBase: codeBase, CodeSize: codeSize}
}

func (e *ExecContext) checkGen() {
	if e.gen != e.CPU.generation {
		e.iMicro = microEntry{}
		for i := range e.dMicro {
			e.dMicro[i] = microEntry{}
		}
		e.gen = e.CPU.generation
	}
}

// translate resolves va, using the data micro-TLB, and returns the PA.
// Permission is rechecked even on micro hits (the micro-TLB caches
// translations, not authorization). On an abort it consults the kernel and
// retries once if the kernel fixed the mapping.
//
// covered reports that further accesses to va's 4 KB page may skip
// translate entirely, at pa's page base: the micro-TLB covers the page and
// the DACR/AP recheck passes, so translate would be the zero-cost,
// zero-stat, side-effect-free micro hit. The batched engine relies on it.
// It is conservative: where proving it would take another micro-TLB scan
// (an event fired while the translation's cycles were charged, an abort
// was taken, or a micro entry for the page failed its recheck) it is
// false, and the next access to the page translates again, which is exact.
func (e *ExecContext) translate(va uint32, write, fetch bool) (pa physmem.Addr, covered, ok bool) {
	e.checkGen()
	m := e.CPU.MMU
	if !m.Enabled {
		return physmem.Addr(va), true, true
	}
	page := va >> 12
	priv := e.CPU.Mode.Privileged()

	hit := e.microLookup(page, fetch)
	if hit != nil {
		// micro hit: charge nothing, but recheck domain/AP.
		if okDomainAP(m, hit.tr, priv, write) {
			return hit.tr.PhysAddr(va), true, true
		}
		// Permission changed (e.g. DACR flip): fall through to full path so
		// the fault is generated with proper bookkeeping.
	}

	clk := e.CPU.Clock
	for attempt := 0; attempt < 2; attempt++ {
		pa, cost, fault := m.Translate(va, priv, write, fetch)
		deadline, hasDL := clk.NextDeadline()
		quiet := !hasDL || clk.Now()+simclock.Cycles(cost) < deadline
		clk.Advance(simclock.Cycles(cost))
		if fault == nil {
			// Refill the micro-TLB from the main-TLB entry Translate just
			// hit or inserted. When charging its cycles (the walk's, if
			// any) fired no event, nothing can have flushed the TLB or
			// changed the ASID, and Rehit repeats a second Lookup's effects
			// without searching; otherwise a handler may have done either,
			// so search again.
			tr, found := tlb.Translation{}, true
			if quiet {
				tr = m.TLB.Rehit()
			} else {
				tr, found = m.TLB.Lookup(va, m.ASID)
			}
			if !found {
				return pa, false, true
			}
			ent := microEntry{page: page, tr: tr, valid: true}
			if fetch {
				e.iMicro = ent
			} else {
				e.dMicro[e.dNext] = ent
				e.dNext = (e.dNext + 1) % microTLBSize
			}
			// With no micro entry for the page before, ent is the one a
			// micro-TLB scan now finds.
			covered = quiet && attempt == 0 && hit == nil && okDomainAP(m, tr, priv, write)
			return pa, covered, true
		}
		if !e.CPU.deliverAbort(fault) {
			e.Stalled = true
			return 0, false, false
		}
		e.checkGen() // kernel may have edited tables / flushed TLB
	}
	e.Stalled = true
	return 0, false, false
}

// microLookup is the pure micro-TLB scan: no cycle cost, no stats, no state
// change.
func (e *ExecContext) microLookup(page uint32, fetch bool) *microEntry {
	if fetch {
		if e.iMicro.valid && e.iMicro.page == page {
			return &e.iMicro
		}
		return nil
	}
	for i := range e.dMicro {
		if e.dMicro[i].valid && e.dMicro[i].page == page {
			return &e.dMicro[i]
		}
	}
	return nil
}

func okDomainAP(m *mmu.MMU, tr tlb.Translation, priv, write bool) bool {
	switch m.DomainAccess(tr.Domain) {
	case 1: // client
		switch tr.AP {
		case 1:
			return priv
		case 2:
			return priv || !write
		case 3:
			return true
		}
		return false
	case 3: // manager
		return true
	}
	return false
}

// advanceCursor steps the fetch cursor one I-line forward, wrapping on the
// actual code size: a range that is not a multiple of the 32-byte line
// keeps its cyclic phase instead of overshooting past the end and snapping
// back to offset 0 (which skewed the post-wrap line addresses).
func (e *ExecContext) advanceCursor() {
	e.cursor += lineBytes
	if e.cursor >= e.CodeSize {
		e.cursor %= e.CodeSize
	}
}

// Exec charges n abstract instructions: issue cycles plus I-side fetch
// traffic walking the component's code range, then samples the IRQ line.
//
// The fetch loop runs on the batched engine, bit-identical in simulated
// results to the scalar per-line loop (execScalar, kept as the reference
// path). The code page is translated once per 4 KB crossed. After each
// translation the lines up to the next page or wrap boundary (only the
// translated line when the page is not covered) go to the cache in one
// FetchRun, or are bulk-charged as hits when the code range is proven
// resident. The run's cycles accumulate locally, and its budget stops it at
// the line that reaches the next pending event deadline, where the clock
// catches up, so handlers fire at their exact instants.
func (e *ExecContext) Exec(n int) {
	if e.Stalled || n <= 0 {
		return
	}
	if e.CPU.ScalarMemPath {
		e.execScalar(n)
		return
	}
	c := e.CPU
	clk := c.Clock
	c.stats.Instructions += uint64(n)
	clk.Advance(simclock.Cycles(n))
	// Fetch cost: one L1I access per line of 8 instructions.
	lines := (n + instrPerLine - 1) / instrPerLine
	acc := simclock.Cycles(0)
	deadline, hasDL := clk.NextDeadline()
	var pagePA physmem.Addr
	var pageVPN uint32
	pageValid := false
	l1i := c.Caches.L1I
	for lines > 0 {
		va := e.CodeBase + e.cursor
		if !pageValid || va>>12 != pageVPN {
			// Page crossing (or coverage lost at a clock sync): drain the
			// accumulator so the scalar translate — micro-TLB scan, walk,
			// abort delivery — runs at the true clock instant.
			if acc > 0 {
				clk.Advance(acc)
				acc = 0
			}
			pa, covered, ok := e.translate(va, false, true)
			if !ok {
				return // unrecovered fetch abort: as in the scalar loop, no IRQ sample
			}
			deadline, hasDL = clk.NextDeadline() // translate may advance/schedule
			pageVPN, pagePA, pageValid = va>>12, pa&^0xFFF, covered
		}
		// On a covered page the scalar path's translate of each line up to
		// the next page or wrap boundary is a free micro hit.
		k := 1
		if pageValid {
			k = min(lines, int((e.CodeSize-e.cursor+lineBytes-1)/lineBytes), int((0x1000-va&0xFFF+lineBytes-1)/lineBytes))
		}
		if e.iClean >= e.CodeSize && e.CodeSize%lineBytes == 0 && l1i.Epoch() == e.iEpoch {
			// The whole code range is proven resident (a full cyclic
			// sweep of zero-miss fetches at an unmoved residency epoch),
			// so the k probes are guaranteed hits whose only scalar side
			// effect is the hit counter: bulk-charge them. The clock
			// invariant (now+acc below the next deadline) holds here, so
			// the scalar path's zero-cost Advances would fire nothing in
			// this window either.
			l1i.BulkHits(k)
			e.cursor += uint32(k) * lineBytes
		} else {
			done, cost, missed := c.Caches.FetchRun(pagePA+physmem.Addr(va&0xFFF), k, runBudget(clk, deadline, hasDL, acc))
			// Residency-streak accounting for the bulk path above: a run
			// without a miss hit every line at the current epoch. A run
			// with one restarts the streak at its end, forgoing the hits
			// after the miss, which is conservative.
			if ep := l1i.Epoch(); missed || ep != e.iEpoch {
				e.iEpoch, e.iClean = ep, 0
			}
			if !missed && e.iClean < e.CodeSize {
				e.iClean += uint32(done) * lineBytes
			}
			k = done
			// The cursor moves past the last line only after the clock
			// catches up, as in the scalar loop; no earlier line wraps.
			e.cursor += uint32(done-1) * lineBytes
			acc += simclock.Cycles(cost)
			if hasDL && clk.Now()+acc >= deadline {
				// The run's last line reached an event: fire it at its
				// exact instant and drop every cached assumption — its
				// handler may have flushed TLBs or touched the caches.
				clk.Advance(acc)
				acc = 0
				deadline, hasDL = clk.NextDeadline()
				pageValid = false
			}
			e.cursor += lineBytes
		}
		if e.cursor >= e.CodeSize {
			e.cursor %= e.CodeSize
		}
		lines -= k
	}
	if acc > 0 {
		clk.Advance(acc)
	}
	c.PollIRQ()
}

// runBudget is the cycles a cache run may charge before the next pending
// event deadline, now+acc being below it: the run stops at the line that
// reaches it.
func runBudget(clk *simclock.Clock, deadline simclock.Cycles, hasDL bool, acc simclock.Cycles) uint64 {
	if !hasDL {
		return math.MaxUint64
	}
	return uint64(deadline - clk.Now() - acc)
}

// execScalar is the reference per-line implementation of Exec. The batched
// path must stay bit-identical to it; equivalence tests and the speedup
// benchmarks run it via CPU.ScalarMemPath.
func (e *ExecContext) execScalar(n int) {
	c := e.CPU
	c.stats.Instructions += uint64(n)
	c.Clock.Advance(simclock.Cycles(n))
	lines := (n + instrPerLine - 1) / instrPerLine
	for i := 0; i < lines; i++ {
		va := e.CodeBase + e.cursor
		pa, _, ok := e.translate(va, false, true)
		if !ok {
			return
		}
		c.Clock.Advance(simclock.Cycles(c.Caches.FetchCost(pa)))
		e.advanceCursor()
	}
	c.PollIRQ()
}

// Touch charges one data access at va (translation + D-cache) without
// moving bytes; workloads use it to stream their working sets.
func (e *ExecContext) Touch(va uint32, write bool) {
	if e.Stalled {
		return
	}
	pa, _, ok := e.translate(va, write, false)
	if !ok {
		return
	}
	e.CPU.Clock.Advance(simclock.Cycles(e.CPU.Caches.DataCost(pa, write)))
}

// StreamRange streams a [va, va+size) range at the given stride, charging
// one access per step; workloads use it to model a pass over a buffer. It
// is the batched memory-path engine: bit-identical in simulated results
// (cycle totals, cache/TLB state and stats, event firing order) to the
// scalar Touch loop (touchRangeScalar, kept as the reference path), but
// does the work in page/line batches:
//
//   - the page is translated once per 4 KB crossed; while the micro-TLB
//     coverage translate reports holds, follow-on accesses compute PA by
//     offset, exactly as the scalar path's zero-cost micro hits would;
//   - on a covered page, same-line accesses collapse into one cache probe
//     or fill plus counted hits (the probe just made the line resident),
//     and when the stride divides the line, the whole lines left on the
//     page, which all repeat one pattern, go to the cache in one DataRun;
//   - cycle cost accumulates locally and is handed to the clock in chunks
//     bounded by the next pending event deadline (a run stops at the line
//     that reaches it), so handlers still fire at their exact instants;
//     every synchronization drops the cached page coverage, because a
//     handler may flush TLBs, rewrite the DACR or invalidate cache lines.
func (e *ExecContext) StreamRange(va, size, stride uint32, write bool) {
	if e.Stalled || size == 0 {
		return
	}
	if stride == 0 {
		stride = 4
	}
	if e.CPU.ScalarMemPath {
		e.touchRangeScalar(va, size, stride, write)
		return
	}
	c := e.CPU
	clk := c.Clock
	acc := simclock.Cycles(0)
	deadline, hasDL := clk.NextDeadline()
	var pagePA physmem.Addr
	var pageVPN uint32
	pageValid := false
	// With a stride that divides the line, every line the range covers
	// whole gets the same accesses: its first, below stride in the line,
	// then lineFollow more.
	lineFollow := uint32(0)
	whole := cache.LineSize%stride == 0
	if whole {
		lineFollow = cache.LineSize/stride - 1
	}

	for off := uint32(0); off < size; off += stride {
		a := va + off
		if !pageValid || a>>12 != pageVPN {
			// New page (or coverage lost at a clock sync): drain the local
			// accumulator so the scalar translate runs at the true instant.
			if acc > 0 {
				clk.Advance(acc)
				acc = 0
			}
			pa, covered, ok := e.translate(a, write, false)
			if !ok {
				return // stalled, exactly where the scalar loop stops
			}
			deadline, hasDL = clk.NextDeadline() // translate may advance/schedule
			pageVPN, pagePA, pageValid = a>>12, pa&^0xFFF, covered
		}
		// One DataRun charges a's line and the follow accesses each line
		// makes after its first. On a covered page they are what the
		// scalar path charges: its translate of each access is a free
		// micro hit, and the first access left the line resident, and
		// dirty if write, with no event fired since, so each follow
		// access counts a plain hit and costs nothing. When a is its
		// line's first access and the stride divides the line, the run
		// goes on over the whole lines left on the page.
		n, follow := uint32(1), uint32(0)
		if lines := (size - off + stride - 1) / cache.LineSize; pageValid && whole && a&(cache.LineSize-1) < stride && lines > 0 {
			n, follow = min((0x1000-a&0xFFF+cache.LineSize-1)/cache.LineSize, lines), lineFollow
		} else if pageValid && stride < cache.LineSize {
			// ^a&(LineSize-1) is the bytes left in a's line after a.
			follow = min(^a&(cache.LineSize-1), size-1-off) / stride
		}
		done, cost, _ := c.Caches.DataRun(pagePA+physmem.Addr(a&0xFFF), int(n), write, int(follow), runBudget(clk, deadline, hasDL, acc))
		acc += simclock.Cycles(cost)
		off += uint32(done-1) * cache.LineSize // the run's last line
		if hasDL && clk.Now()+acc >= deadline {
			// An event lands inside the accumulated window, at the run's
			// last line, which got no follow hits: fire it at its exact
			// instant (as the scalar path's per-access Advance would), re-
			// validate everything the handler may have changed, and go on
			// at the line's next access.
			clk.Advance(acc)
			acc = 0
			deadline, hasDL = clk.NextDeadline()
			pageValid = false
			if e.Stalled {
				return
			}
			continue
		}
		off += follow * stride
	}
	if acc > 0 {
		clk.Advance(acc)
	}
}

// touchRangeScalar is the reference per-access implementation of
// StreamRange; the batched engine must stay bit-identical to it.
func (e *ExecContext) touchRangeScalar(va, size, stride uint32, write bool) {
	for off := uint32(0); off < size; off += stride {
		e.Touch(va+off, write)
		if e.Stalled {
			return
		}
	}
}

// Load32 performs a real data load: translation, cache cost, then the bus
// access, returning the value. Guests use it for MMIO (e.g. PRR register
// groups) and for shared data that must actually flow.
func (e *ExecContext) Load32(va uint32) (uint32, error) {
	if e.Stalled {
		return 0, fmt.Errorf("cpu: %s: context stalled", e.Name)
	}
	pa, _, ok := e.translate(va, false, false)
	if !ok {
		return 0, fmt.Errorf("cpu: %s: unrecovered abort loading %#x", e.Name, va)
	}
	e.CPU.Clock.Advance(simclock.Cycles(e.CPU.Caches.DataCost(pa, false)))
	return e.CPU.Bus.Read32(pa)
}

// Store32 performs a real data store.
func (e *ExecContext) Store32(va uint32, v uint32) error {
	if e.Stalled {
		return fmt.Errorf("cpu: %s: context stalled", e.Name)
	}
	pa, _, ok := e.translate(va, true, false)
	if !ok {
		return fmt.Errorf("cpu: %s: unrecovered abort storing %#x", e.Name, va)
	}
	e.CPU.Clock.Advance(simclock.Cycles(e.CPU.Caches.DataCost(pa, true)))
	return e.CPU.Bus.Write32(pa, v)
}

// VFPOp charges n VFP instructions. If CP10/11 is disabled the first op
// traps UND so the kernel can lazily switch the VFP context (Table I);
// when the handler enables VFP the op proceeds.
func (e *ExecContext) VFPOp(n int) bool {
	if e.Stalled {
		return false
	}
	if !e.CPU.VFPEnabled {
		if !e.CPU.trapUndef(UndefInfo{Kind: UndefVFP}) {
			return false
		}
		if !e.CPU.VFPEnabled {
			return false
		}
	}
	e.Exec(n)
	return true
}
