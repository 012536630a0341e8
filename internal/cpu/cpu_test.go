package cpu

import (
	"fmt"
	"testing"

	"repro/internal/gic"
	"repro/internal/mmu"
	"repro/internal/physmem"
	"repro/internal/simclock"
)

// rig builds a CPU with MMU disabled (identity map) for mechanism tests.
func rig() (*CPU, *simclock.Clock, *gic.GIC) {
	clock := simclock.New()
	bus := physmem.NewBus()
	g := gic.New()
	c := New(clock, bus, g)
	return c, clock, g
}

// rigMMU additionally builds and activates a page table mapping code+data.
func rigMMU() (*CPU, *mmu.PageTable, *mmu.FrameAllocator) {
	c, _, _ := rig()
	alloc := mmu.NewFrameAllocator(physmem.DDRBase+8<<20, 16<<20)
	pt := mmu.NewPageTable(c.Bus, alloc)
	// code at VA 0x0001_0000, data at VA 0x0010_0000, domain 1, full access
	for i := uint32(0); i < 16; i++ {
		pt.MapPage(0x0001_0000+i<<12, physmem.DDRBase+physmem.Addr(i<<12), 1, mmu.APFull)
		pt.MapPage(0x0010_0000+i<<12, physmem.DDRBase+physmem.Addr(0x40_000+i<<12), 1, mmu.APFull)
	}
	c.CP15Write(CP15TTBR0, uint32(pt.Base))
	c.CP15Write(CP15DACR, uint32(mmu.DomainClient)<<2)
	c.CP15Write(CP15CONTEXTIDR, 1)
	c.CP15Write(CP15SCTLR, 1)
	return c, pt, alloc
}

func TestModePrivilege(t *testing.T) {
	if ModeUSR.Privileged() {
		t.Error("USR is privileged")
	}
	for _, m := range []Mode{ModeSVC, ModeIRQ, ModeFIQ, ModeUND, ModeABT} {
		if !m.Privileged() {
			t.Errorf("%v not privileged", m)
		}
	}
}

func TestCP15PrivilegedAccess(t *testing.T) {
	c, _, _ := rig()
	c.Mode = ModeSVC
	c.CP15Write(CP15DACR, 0x55)
	if got := c.CP15Read(CP15DACR); got != 0x55 {
		t.Errorf("DACR = %#x, want 0x55", got)
	}
}

func TestCP15UserTraps(t *testing.T) {
	c, _, _ := rig()
	var trapped *UndefInfo
	c.Vectors.Undef = func(u UndefInfo) bool { trapped = &u; return true }
	c.Mode = ModeUSR
	c.CP15Write(CP15TTBR0, 0xDEAD)
	if trapped == nil {
		t.Fatal("USR CP15 write did not trap")
	}
	if trapped.Kind != UndefCP15 || trapped.Reg != CP15TTBR0 || !trapped.Wr || trapped.Val != 0xDEAD {
		t.Errorf("trap info = %+v", trapped)
	}
	// The write must NOT have landed.
	c.Mode = ModeSVC
	if got := c.CP15Read(CP15TTBR0); got == 0xDEAD {
		t.Error("unprivileged CP15 write took effect")
	}
}

func TestUndefHandlerRunsInUNDMode(t *testing.T) {
	c, _, _ := rig()
	var seen Mode
	c.Vectors.Undef = func(UndefInfo) bool { seen = c.Mode; return true }
	c.Mode = ModeUSR
	c.CP15Read(CP15DACR)
	if seen != ModeUND {
		t.Errorf("handler ran in %v, want UND", seen)
	}
	if c.Mode != ModeUSR {
		t.Errorf("mode after trap = %v, want USR restored", c.Mode)
	}
}

func TestSWIRegisterABI(t *testing.T) {
	c, _, _ := rig()
	var gotNum int
	var gotArgs [4]uint32
	var handlerMode Mode
	c.Vectors.SWI = func(num int, args [4]uint32) uint32 {
		gotNum, gotArgs, handlerMode = num, args, c.Mode
		return 0xCAFE
	}
	c.Mode = ModeUSR
	c.Regs.R[7] = 0x777 // guest state that must survive
	ret := c.SWI(9, [4]uint32{1, 2, 3, 4})
	if gotNum != 9 || gotArgs != [4]uint32{1, 2, 3, 4} {
		t.Errorf("handler saw num=%d args=%v", gotNum, gotArgs)
	}
	if handlerMode != ModeSVC {
		t.Errorf("SWI handler mode = %v, want SVC", handlerMode)
	}
	if ret != 0xCAFE || c.Regs.R[0] != 0xCAFE {
		t.Errorf("return = %#x, R0 = %#x, want 0xCAFE in both", ret, c.Regs.R[0])
	}
	if c.Regs.R[7] != 0x777 {
		t.Error("caller registers clobbered across SWI")
	}
	if c.Mode != ModeUSR {
		t.Errorf("mode after SWI = %v, want USR", c.Mode)
	}
}

func TestSWIChargesCycles(t *testing.T) {
	c, clock, _ := rig()
	c.Vectors.SWI = func(int, [4]uint32) uint32 { return 0 }
	before := clock.Now()
	c.SWI(1, [4]uint32{})
	if clock.Now()-before < CostExceptionEntry+CostExceptionReturn {
		t.Error("SWI charged less than entry+return cost")
	}
}

func TestIRQDelivery(t *testing.T) {
	c, _, g := rig()
	taken := 0
	c.Vectors.IRQ = func() {
		taken++
		id := g.Acknowledge(0)
		g.EOI(0, id)
	}
	g.Enable(gic.UARTIRQ)
	g.Raise(gic.UARTIRQ)
	ctx := NewExecContext(c, "t", 0x0001_0000, 4096)
	c.MMU.Enabled = false
	ctx.Exec(10)
	if taken != 1 {
		t.Errorf("IRQs taken = %d, want 1", taken)
	}
}

func TestIRQMasking(t *testing.T) {
	c, _, g := rig()
	taken := 0
	c.Vectors.IRQ = func() { taken++; g.EOI(0, g.Acknowledge(0)) }
	g.Enable(gic.UARTIRQ)
	g.Raise(gic.UARTIRQ)
	c.IRQMasked = true
	ctx := NewExecContext(c, "t", 0x0001_0000, 4096)
	ctx.Exec(10)
	if taken != 0 {
		t.Error("masked IRQ was taken")
	}
	c.IRQMasked = false
	ctx.Exec(1)
	if taken != 1 {
		t.Error("unmasking did not deliver the latched IRQ")
	}
}

func TestVFPLazyTrap(t *testing.T) {
	c, _, _ := rig()
	c.MMU.Enabled = false
	traps := 0
	c.Vectors.Undef = func(u UndefInfo) bool {
		if u.Kind != UndefVFP {
			t.Errorf("unexpected trap %+v", u)
		}
		traps++
		// kernel lazily switches VFP then enables CP10/11
		c.VFPEnabled = true
		return true
	}
	ctx := NewExecContext(c, "t", 0x0001_0000, 4096)
	if !ctx.VFPOp(8) {
		t.Fatal("VFPOp failed after lazy enable")
	}
	if traps != 1 {
		t.Errorf("traps = %d, want 1", traps)
	}
	// Second op: no trap.
	ctx.VFPOp(8)
	if traps != 1 {
		t.Errorf("second VFP op re-trapped (traps=%d)", traps)
	}
}

func TestExecThroughMMU(t *testing.T) {
	c, _, _ := rigMMU()
	c.Mode = ModeUSR
	ctx := NewExecContext(c, "guest", 0x0001_0000, 16<<10)
	before := c.Clock.Now()
	ctx.Exec(100)
	if ctx.Stalled {
		t.Fatal("context stalled on mapped code")
	}
	if c.Clock.Now() == before {
		t.Error("Exec charged nothing")
	}
	if c.Stats().Instructions != 100 {
		t.Errorf("instructions = %d, want 100", c.Stats().Instructions)
	}
}

func TestDataAbortOnUnmapped(t *testing.T) {
	c, _, _ := rigMMU()
	c.Mode = ModeUSR
	aborts := 0
	c.Vectors.DataAbort = func(f *mmu.Fault) bool { aborts++; return false }
	ctx := NewExecContext(c, "guest", 0x0001_0000, 16<<10)
	ctx.Touch(0xDEAD_0000, true)
	if aborts != 1 {
		t.Errorf("aborts = %d, want 1", aborts)
	}
	if !ctx.Stalled {
		t.Error("context not stalled after unrecovered abort")
	}
}

func TestAbortRetryAfterKernelFix(t *testing.T) {
	c, pt, _ := rigMMU()
	c.Mode = ModeUSR
	c.Vectors.DataAbort = func(f *mmu.Fault) bool {
		// demand-map the page (kernel runs privileged; here we edit directly)
		pt.MapPage(f.VA&^0xFFF, physmem.DDRBase+0x80_0000, 1, mmu.APFull)
		return true
	}
	ctx := NewExecContext(c, "guest", 0x0001_0000, 16<<10)
	ctx.Touch(0x0200_0000, true)
	if ctx.Stalled {
		t.Error("context stalled although kernel fixed the fault")
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	c, _, _ := rigMMU()
	ctx := NewExecContext(c, "k", 0x0001_0000, 16<<10)
	if err := ctx.Store32(0x0010_0004, 0xABCD1234); err != nil {
		t.Fatalf("Store32: %v", err)
	}
	v, err := ctx.Load32(0x0010_0004)
	if err != nil || v != 0xABCD1234 {
		t.Errorf("Load32 = %#x,%v", v, err)
	}
}

func TestMicroTLBInvalidationOnASIDSwitch(t *testing.T) {
	c, pt, alloc := rigMMU()
	ctx := NewExecContext(c, "g", 0x0001_0000, 16<<10)
	ctx.Touch(0x0010_0000, false) // warm micro-TLB
	missesBefore := c.TLB.Stats().Misses

	// Build a second address space where the same VA is unmapped.
	pt2 := mmu.NewPageTable(c.Bus, alloc)
	pt2.MapPage(0x0001_0000, physmem.DDRBase, 1, mmu.APFull)
	_ = pt
	c.CP15Write(CP15TTBR0, uint32(pt2.Base))
	c.CP15Write(CP15CONTEXTIDR, 2)

	aborted := false
	c.Vectors.DataAbort = func(*mmu.Fault) bool { aborted = true; return false }
	ctx.Touch(0x0010_0000, false)
	if !aborted {
		t.Error("stale micro-TLB translation used across address-space switch")
	}
	if c.TLB.Stats().Misses == missesBefore {
		t.Error("no main-TLB activity after generation bump")
	}
}

func TestDCacheCleanChargesWritebacks(t *testing.T) {
	c, _, _ := rigMMU()
	ctx := NewExecContext(c, "k", 0x0001_0000, 16<<10)
	for i := uint32(0); i < 64; i++ {
		_ = ctx.Store32(0x0010_0000+i*32, i) // dirty 64 lines
	}
	before := c.Clock.Now()
	c.CP15Write(CP15DCCISW, 0)
	if c.Clock.Now()-before < 64 {
		t.Error("clean+invalidate charged too little for dirty lines")
	}
}

func TestExecContextCursorWraps(t *testing.T) {
	c, _, _ := rig()
	c.MMU.Enabled = false
	ctx := NewExecContext(c, "t", 0x0001_0000, 64) // 2 lines of code
	ctx.Exec(100)                                  // must wrap many times without leaving range
	if ctx.cursor >= 64 {
		t.Errorf("cursor = %d, escaped the code range", ctx.cursor)
	}
}

// TestEventDuringWalk: translate refills the micro-TLB from the entry the
// walk just resolved (TLB.Rehit) only when the walk's cycles fire no event.
// An event due inside the walk that flushes the TLB must leave what a
// second main-TLB lookup leaves: a counted miss and no micro-TLB entry.
// An event due after the walk changes nothing: one counted hit and a
// micro-TLB entry.
func TestEventDuringWalk(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		at                   simclock.Cycles // event time, after now
		misses, hits, micros uint64
	}{
		{"inside", 1, 2, 0, 0},
		{"after", 1 << 20, 1, 1, 1},
	} {
		c, _, _ := rigMMU()
		ctx := NewExecContext(c, "g", 0x0001_0000, 16<<10)
		before := c.TLB.Stats()
		fired := false
		c.Clock.After(tc.at, func(simclock.Cycles) { fired = true; c.TLB.FlushAll() })
		ctx.Touch(0x0010_0000, false)
		st := c.TLB.Stats()
		micros := uint64(0)
		if ctx.microLookup(0x0010_0000>>12, false) != nil {
			micros = 1
		}
		if fired != (tc.at == 1) || ctx.Stalled {
			t.Fatalf("%s: event fired %v, context stalled %v", tc.name, fired, ctx.Stalled)
		}
		if st.Misses-before.Misses != tc.misses || st.Hits-before.Hits != tc.hits || micros != tc.micros {
			t.Errorf("%s: TLB misses +%d hits +%d, micro entries %d; want +%d +%d %d",
				tc.name, st.Misses-before.Misses, st.Hits-before.Hits, micros, tc.misses, tc.hits, tc.micros)
		}
	}

}

// TestBatchedCoverageMatchesScalar: in each case below translate cannot
// prove page coverage without another micro-TLB scan, so the batched
// engine must translate again on its next access to the page, as the
// scalar path does. Each case runs one StreamRange both ways and compares.
func TestBatchedCoverageMatchesScalar(t *testing.T) {
	const roVA = 0x0020_0000
	for _, tc := range []struct {
		name  string
		va    uint32
		setup func(c *CPU, pt *mmu.PageTable, ctx *ExecContext)
	}{
		{"TLB flush inside the first walk", 0x0010_0000, func(c *CPU, _ *mmu.PageTable, _ *ExecContext) {
			c.Clock.After(1, func(simclock.Cycles) { c.TLB.FlushAll() })
		}},
		{"CONTEXTIDR write inside the first walk", 0x0010_0000, func(c *CPU, _ *mmu.PageTable, _ *ExecContext) {
			// Bumps the translation generation but keeps the TLB.
			c.Clock.After(1, func(simclock.Cycles) { c.CP15Write(CP15CONTEXTIDR, 1) })
		}},
		{"reserved DACR domain value", 0x0010_0000, func(c *CPU, _ *mmu.PageTable, _ *ExecContext) {
			// The MMU checks domain value 2 as a client; the micro-TLB
			// recheck denies it, so every access translates.
			c.CP15Write(CP15DACR, 2<<2)
		}},
		{"stale micro entry denies the write", roVA, func(c *CPU, pt *mmu.PageTable, ctx *ExecContext) {
			// A read-only page becomes writable and its main-TLB entry is
			// flushed with no generation bump, so the micro-TLB keeps the
			// read-only entry ahead of the one the write's walk installs.
			pt.MapPage(roVA, physmem.DDRBase+0x80_0000, 1, mmu.APUserRO)
			c.Mode = ModeUSR
			ctx.Touch(roVA, false)
			pt.MapPage(roVA, physmem.DDRBase+0x80_0000, 1, mmu.APFull)
			c.TLB.FlushVA(roVA, 1)
		}},
	} {
		stream := func(scalar bool) string {
			c, pt, _ := rigMMU()
			c.ScalarMemPath = scalar
			ctx := NewExecContext(c, "g", 0x0001_0000, 16<<10)
			tc.setup(c, pt, ctx)
			ctx.StreamRange(tc.va, 256, 4, true)
			return fmt.Sprintf("stalled %v now %d TLB %+v L1D %+v L2 %+v",
				ctx.Stalled, c.Clock.Now(), c.TLB.Stats(), c.Caches.L1D.Stats(), c.Caches.L2.Stats())
		}
		if batched, scalar := stream(false), stream(true); batched != scalar {
			t.Errorf("%s:\nbatched %s\nscalar  %s", tc.name, batched, scalar)
		}
	}
}
