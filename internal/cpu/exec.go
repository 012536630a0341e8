package cpu

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mmu"
	"repro/internal/physmem"
	"repro/internal/simclock"
	"repro/internal/tlb"
)

// instrPerLine is how many 4-byte instructions share one 32-byte I-line.
const instrPerLine = 8

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
func (e *ExecContext) translate(va uint32, write, fetch bool) (physmem.Addr, bool) {
	e.checkGen()
	m := e.CPU.MMU
	if !m.Enabled {
		return physmem.Addr(va), true
	}
	page := va >> 12
	priv := e.CPU.Mode.Privileged()

	hit := e.microLookup(page, fetch)
	if hit != nil {
		// micro hit: charge nothing, but recheck domain/AP.
		if okDomainAP(m, hit.tr, priv, write) {
			return hit.tr.PhysAddr(va), true
		}
		// Permission changed (e.g. DACR flip): fall through to full path so
		// the fault is generated with proper bookkeeping.
	}

	for attempt := 0; attempt < 2; attempt++ {
		pa, cost, fault := m.Translate(va, priv, write, fetch)
		e.CPU.Clock.Advance(simclock.Cycles(cost))
		if fault == nil {
			if tr, ok := m.TLB.Lookup(va, m.ASID); ok {
				ent := microEntry{page: page, tr: tr, valid: true}
				if fetch {
					e.iMicro = ent
				} else {
					e.dMicro[e.dNext] = ent
					e.dNext = (e.dNext + 1) % microTLBSize
				}
			}
			return pa, true
		}
		if !e.CPU.deliverAbort(fault) {
			e.Stalled = true
			return 0, false
		}
		e.checkGen() // kernel may have edited tables / flushed TLB
	}
	e.Stalled = true
	return 0, false
}

// microLookup is the pure micro-TLB scan: no cycle cost, no stats, no state
// change. Both the scalar translate and the batched engine's page-coverage
// check share it so their micro-hit decisions are identical by construction.
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

// pageCover reports whether further accesses to va's 4 KB page may skip the
// scalar translate entirely: exactly when the micro-TLB covers the page and
// the DACR/AP recheck passes — the scalar path's zero-cost, zero-stat,
// side-effect-free case. It returns the page-base physical address. The
// batched engine re-validates this after every clock synchronization, since
// event handlers may flush TLBs, bump the translation generation or rewrite
// the DACR.
func (e *ExecContext) pageCover(va uint32, write, fetch bool) (physmem.Addr, bool) {
	m := e.CPU.MMU
	if !m.Enabled {
		return physmem.Addr(va &^ 0xFFF), true
	}
	e.checkGen()
	hit := e.microLookup(va>>12, fetch)
	if hit == nil || !okDomainAP(m, hit.tr, e.CPU.Mode.Privileged(), write) {
		return 0, false
	}
	return hit.tr.PhysAddr(va) &^ 0xFFF, true
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
	e.cursor += instrPerLine * 4
	if e.cursor >= e.CodeSize {
		e.cursor %= e.CodeSize
	}
}

// Exec charges n abstract instructions: issue cycles plus I-side fetch
// traffic walking the component's code range, then samples the IRQ line.
//
// The fetch loop runs on the batched engine: the code page is translated
// once per 4 KB crossed, the cycle cost of the line probes accumulates
// locally, and the clock is synchronized whenever the accumulated window
// would cross the next pending event deadline — so handlers fire at their
// exact instants and the simulated result is bit-identical to the scalar
// per-line loop (execScalar, kept as the reference path).
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
	for i := 0; i < lines; i++ {
		va := e.CodeBase + e.cursor
		var pa physmem.Addr
		if pageValid && va>>12 == pageVPN {
			if e.iClean >= e.CodeSize && e.CodeSize%(instrPerLine*4) == 0 &&
				l1i.Epoch() == e.iEpoch && l1i.ReplacementPolicy() == cache.PolicyRandom {
				// The whole code range is proven resident (a full cyclic
				// sweep of zero-miss fetches at an unmoved residency
				// epoch), so every probe up to the next page or wrap
				// boundary is a guaranteed hit whose only scalar side
				// effect is the hit counter: bulk-charge them. The clock
				// invariant (now+acc below the next deadline) holds here,
				// so the scalar path's zero-cost Advances would fire
				// nothing in this window either.
				k := lines - i
				if toWrap := int((e.CodeSize - e.cursor) / (instrPerLine * 4)); toWrap < k {
					k = toWrap
				}
				if toPage := int((0x1000 - va&0xFFF + instrPerLine*4 - 1) / (instrPerLine * 4)); toPage < k {
					k = toPage
				}
				if k > 0 {
					l1i.BulkHits(k)
					e.cursor += uint32(k) * instrPerLine * 4
					if e.cursor >= e.CodeSize {
						e.cursor %= e.CodeSize
					}
					i += k - 1
					continue
				}
			}
			pa = pagePA + physmem.Addr(va&0xFFF)
		} else {
			// Page crossing (or coverage lost at a clock sync): drain the
			// accumulator so the scalar translate — micro-TLB scan, walk,
			// abort delivery — runs at the true clock instant.
			if acc > 0 {
				clk.Advance(acc)
				acc = 0
			}
			var ok bool
			pa, ok = e.translate(va, false, true)
			if !ok {
				return // unrecovered fetch abort: as in the scalar loop, no IRQ sample
			}
			deadline, hasDL = clk.NextDeadline() // translate may advance/schedule
			pageVPN = va >> 12
			pagePA, pageValid = e.pageCover(va, false, true)
		}
		cost := simclock.Cycles(c.Caches.FetchCost(pa))
		// Residency-streak accounting for the bulk fast path above.
		if ep := l1i.Epoch(); cost == 0 && ep == e.iEpoch {
			if e.iClean < e.CodeSize {
				e.iClean += instrPerLine * 4
			}
		} else {
			e.iEpoch, e.iClean = ep, 0
		}
		acc += cost
		if hasDL && clk.Now()+acc >= deadline {
			// An event lands inside the accumulated window: fire it at its
			// exact instant and drop every cached assumption — its handler
			// may have flushed TLBs or touched the caches.
			clk.Advance(acc)
			acc = 0
			deadline, hasDL = clk.NextDeadline()
			pageValid = false
		}
		e.advanceCursor()
	}
	if acc > 0 {
		clk.Advance(acc)
	}
	c.PollIRQ()
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
		pa, ok := e.translate(va, false, true)
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
	pa, ok := e.translate(va, write, false)
	if !ok {
		return
	}
	e.CPU.Clock.Advance(simclock.Cycles(e.CPU.Caches.DataCost(pa, write)))
}

// TouchRange streams a [va, va+size) range at the given stride, charging
// one access per step. Used to model a workload pass over a buffer.
// It runs on the batched StreamRange engine.
func (e *ExecContext) TouchRange(va, size, stride uint32, write bool) {
	e.StreamRange(va, size, stride, write)
}

// StreamRange is the batched memory-path engine behind TouchRange: a
// streaming pass that is bit-identical in simulated results (cycle totals,
// cache/TLB state and stats, event firing order) to the scalar Touch loop
// (touchRangeScalar, kept as the reference path), but does the work in
// page/line batches:
//
//   - the page is translated once per 4 KB crossed; while the micro-TLB
//     coverage established there holds, follow-on accesses compute PA by
//     offset, exactly as the scalar path's zero-cost micro hits would;
//   - same-line accesses collapse into one cache probe plus a HitRun
//     (guaranteed hits — the probe just made the line resident);
//   - cycle cost accumulates locally and is handed to the clock in chunks
//     bounded by the next pending event deadline, so handlers still fire at
//     their exact instants; every synchronization drops the cached page
//     coverage, because a handler may flush TLBs, rewrite the DACR or
//     invalidate cache lines.
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

	for off := uint32(0); off < size; off += stride {
		a := va + off
		var pa physmem.Addr
		if pageValid && a>>12 == pageVPN {
			pa = pagePA + physmem.Addr(a&0xFFF)
		} else {
			// New page (or coverage lost at a clock sync): drain the local
			// accumulator so the scalar translate runs at the true instant.
			if acc > 0 {
				clk.Advance(acc)
				acc = 0
			}
			var ok bool
			pa, ok = e.translate(a, write, false)
			if !ok {
				return // stalled, exactly where the scalar loop stops
			}
			deadline, hasDL = clk.NextDeadline() // translate may advance/schedule
			pageVPN = a >> 12
			pagePA, pageValid = e.pageCover(a, write, false)
		}
		acc += simclock.Cycles(c.Caches.DataCost(pa, write))
		if hasDL && clk.Now()+acc >= deadline {
			// An event lands inside the accumulated window: fire it at its
			// exact instant (as the scalar path's per-access Advance would)
			// and re-validate everything the handler may have changed.
			clk.Advance(acc)
			acc = 0
			deadline, hasDL = clk.NextDeadline()
			pageValid = false
			if e.Stalled {
				return
			}
			continue
		}
		// Collapse the follow-on accesses that stay inside this 32-byte
		// line: the probe above left the line resident, so the scalar path
		// would charge zero cycles and count plain hits for each.
		if stride < cache.LineSize {
			lineEnd := (a | (cache.LineSize - 1)) + 1
			if lineEnd != 0 { // guard the top-of-address-space wrap
				n := (lineEnd - 1 - a) / stride
				if rem := (size - 1 - off) / stride; rem < n {
					n = rem
				}
				if n > 0 {
					c.Caches.L1D.HitRun(pa, write, int(n))
					off += n * stride
				}
			}
		}
	}
	if acc > 0 {
		clk.Advance(acc)
	}
}

// touchRangeScalar is the reference per-access implementation of
// TouchRange/StreamRange; the batched engine must stay bit-identical to it.
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
	pa, ok := e.translate(va, false, false)
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
	pa, ok := e.translate(va, true, false)
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
