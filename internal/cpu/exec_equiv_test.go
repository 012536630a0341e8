package cpu

import (
	"fmt"
	"testing"

	"repro/internal/gic"
	"repro/internal/mmu"
	"repro/internal/physmem"
	"repro/internal/simclock"
)

// The batched memory-path engine (StreamRange, batched Exec) must be
// bit-identical to the scalar reference path in every observable simulated
// quantity: the clock, CPU/cache/TLB/MMU stats, the fetch cursor, abort
// behaviour, and — crucially — the instants and order at which clock events
// fire while a batch is in flight. These tests drive both paths with
// identical randomized traces on two identically-built machines and compare
// after every operation.

// equivRig is one machine of an equivalence pair.
type equivRig struct {
	cpu   *CPU
	clock *simclock.Clock
	pt    *mmu.PageTable
	alloc *mmu.FrameAllocator
	ctx   *ExecContext // the "guest" context the trace drives
	kctx  *ExecContext // a second context the abort handler charges work on
	tctx  *ExecContext // a task context whose 8 KB code range fits the L1I
	log   []string     // event/abort observations with their exact instants
}

const (
	equivCodeVA = 0x0001_0000
	equivDataVA = 0x0010_0000
	equivSectVA = 0x0080_0000 // covered by a 1 MB section entry
	equivLazyVA = 0x0200_0000 // unmapped until the abort handler demand-maps
)

func newEquivRig(scalar bool) *equivRig {
	clock := simclock.New()
	bus := physmem.NewBus()
	g := gic.New()
	c := New(clock, bus, g)
	c.ScalarMemPath = scalar
	alloc := mmu.NewFrameAllocator(physmem.DDRBase+8<<20, 24<<20)
	pt := mmu.NewPageTable(bus, alloc)
	for i := uint32(0); i < 16; i++ {
		pt.MapPage(equivCodeVA+i<<12, physmem.DDRBase+physmem.Addr(i<<12), 1, mmu.APFull)
	}
	for i := uint32(0); i < 72; i++ {
		pt.MapPage(equivDataVA+i<<12, physmem.DDRBase+physmem.Addr(0x40_0000+i<<12), 1, mmu.APFull)
	}
	pt.MapSection(equivSectVA, physmem.DDRBase+0x60_0000, 1, mmu.APFull)
	c.CP15Write(CP15TTBR0, uint32(pt.Base))
	c.CP15Write(CP15DACR, uint32(mmu.DomainClient)<<2|uint32(mmu.DomainClient)<<(2*15))
	c.CP15Write(CP15CONTEXTIDR, 1)
	c.CP15Write(CP15SCTLR, 1)

	r := &equivRig{cpu: c, clock: clock, pt: pt, alloc: alloc}
	r.ctx = NewExecContext(c, "guest", equivCodeVA, 16<<12)
	r.kctx = NewExecContext(c, "kernel", equivCodeVA+4<<12, 40) // deliberately not a multiple of 32
	r.tctx = NewExecContext(c, "task", equivCodeVA+10<<12, 8<<10)
	c.Vectors.DataAbort = func(f *mmu.Fault) bool {
		r.log = append(r.log, fmt.Sprintf("abort@%d va=%#x", clock.Now(), f.VA))
		if f.VA >= equivLazyVA && f.VA < equivLazyVA+64<<12 {
			// Demand-map deterministically and charge handler work on the
			// kernel context — reentrant execution inside a batch.
			r.pt.MapPage(f.VA&^0xFFF, physmem.DDRBase+physmem.Addr(0x70_0000+(f.VA>>12&0x3F)<<12), 1, mmu.APFull)
			r.kctx.Exec(40)
			return true
		}
		return false
	}
	return r
}

// event returns a handler of kind k that logs its firing instant and
// perturbs exactly the state the batched engine caches assumptions about.
func (r *equivRig) event(id int, k int) func(simclock.Cycles) {
	return func(now simclock.Cycles) {
		r.log = append(r.log, fmt.Sprintf("ev%d/%d@%d", id, k, now))
		switch k % 6 {
		case 0: // pure
		case 1: // TLB flush + generation bump: drops micro-TLB coverage
			r.cpu.TLB.FlushAll()
			r.cpu.bumpGeneration()
		case 2: // invalidate L1D mid-stream: collapsed "guaranteed hits" must re-probe
			r.cpu.Caches.L1D.InvalidateAll()
		case 3: // invalidate L1I mid-fetch
			r.cpu.Caches.L1I.InvalidateAll()
		case 4: // DACR rewrite (manager for domain 1): permission path changes
			r.cpu.MMU.SetDACR(uint32(mmu.DomainManager)<<2 | uint32(mmu.DomainClient)<<(2*15))
		case 5: // restore client DACR
			r.cpu.MMU.SetDACR(uint32(mmu.DomainClient)<<2 | uint32(mmu.DomainClient)<<(2*15))
		}
	}
}

// snapshot captures every observable simulated quantity.
func (r *equivRig) snapshot() string {
	c := r.cpu
	return fmt.Sprintf("now=%d cpu=%+v l1i=%+v l1d=%+v l2=%+v tlb=%+v walks=%+v cursor=%d/%d/%d stalled=%v/%v/%v resident=%d/%d/%d/%d",
		r.clock.Now(), c.Stats(), c.Caches.L1I.Stats(), c.Caches.L1D.Stats(), c.Caches.L2.Stats(),
		c.TLB.Stats(), c.MMU.Stats(), r.ctx.cursor, r.kctx.cursor, r.tctx.cursor, r.ctx.Stalled, r.kctx.Stalled, r.tctx.Stalled,
		c.Caches.L1I.ResidentLines(), c.Caches.L1D.ResidentLines(), c.Caches.L2.ResidentLines(), c.TLB.Resident())
}

type xorshift struct{ s uint32 }

func (x *xorshift) next() uint32 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 17
	x.s ^= x.s << 5
	return x.s
}

// applyOp drives one pseudo-random operation, identically derived on both
// machines from the shared rng stream.
func applyOp(r *equivRig, op, i int, rnd func() uint32) {
	switch op % 11 {
	case 0, 1, 2: // dense stream over mapped data (the hot StreamRange shape)
		// A start anywhere in a line puts a partial first line before
		// the whole lines a batched stream hands to one cache run.
		base := equivDataVA + rnd()%64*4096 + rnd()%32
		size := 64 + rnd()%(16<<10)
		strides := [...]uint32{1, 2, 4, 8, 8, 8, 12, 16, 32, 40, 64, 100}
		r.ctx.StreamRange(base, size, strides[rnd()%uint32(len(strides))], rnd()%3 == 0)
	case 3: // stream crossing into the 1 MB section mapping
		r.ctx.StreamRange(equivSectVA+rnd()%0x8_0000, 2048+rnd()%8192, 8, rnd()%2 == 0)
	case 4: // demand-faulting stream: aborts + handler work mid-batch
		r.ctx.StreamRange(equivLazyVA+rnd()%48*4096, 1024+rnd()%8192, 16, rnd()%2 == 0)
	case 5: // instruction issue + fetch
		r.ctx.Exec(int(1 + rnd()%2500))
	case 6: // fetch on the misaligned-size kernel context
		r.kctx.Exec(int(1 + rnd()%500))
	case 7: // single touches
		for j := uint32(0); j < 1+rnd()%8; j++ {
			r.ctx.Touch(equivDataVA+rnd()%(72<<12), rnd()%2 == 0)
		}
	case 8: // real load/store traffic
		va := equivDataVA + rnd()%(72<<12)&^3
		if rnd()%2 == 0 {
			_ = r.ctx.Store32(va, rnd())
		} else {
			_, _ = r.ctx.Load32(va)
		}
	case 9: // schedule a state-perturbing event inside upcoming batches
		delay := simclock.Cycles(1 + rnd()%30000)
		kind := int(rnd() % 6)
		r.clock.After(delay, r.event(i, kind))
	case 10: // fetch on the task context: up to three sweeps of its 8 KB,
		// enough to prove the range resident and bulk-charge its lines
		// from the first line after each page's translation
		r.tctx.Exec(int(1 + rnd()%6000))
	}
}

// checkEquivalence drives a scalar and a batched rig through ops, drawing
// each op's parameters from an xorshift stream seeded with seed, and
// compares their state after every op. It then drains pending events and
// requires every event and abort to have fired at the same instant, in the
// same order, on both machines.
func checkEquivalence(t *testing.T, seed uint32, ops []byte) {
	t.Helper()
	scalar := newEquivRig(true)
	batched := newEquivRig(false)
	rngS := &xorshift{s: seed}
	rngB := &xorshift{s: seed}
	for i, op := range ops {
		applyOp(scalar, int(op), i, rngS.next)
		applyOp(batched, int(op), i, rngB.next)
		if s, b := scalar.snapshot(), batched.snapshot(); s != b {
			t.Fatalf("op %d (%d): state diverged\nscalar:  %s\nbatched: %s", i, op%11, s, b)
		}
	}
	scalar.clock.RunUntilIdle(10000)
	batched.clock.RunUntilIdle(10000)
	if s, b := scalar.snapshot(), batched.snapshot(); s != b {
		t.Fatalf("post-drain state diverged\nscalar:  %s\nbatched: %s", s, b)
	}
	if len(scalar.log) != len(batched.log) {
		t.Fatalf("log length diverged: %d vs %d", len(scalar.log), len(batched.log))
	}
	for i := range scalar.log {
		if scalar.log[i] != batched.log[i] {
			t.Fatalf("log[%d] diverged: %q vs %q", i, scalar.log[i], batched.log[i])
		}
	}
}

func TestBatchedScalarEquivalence(t *testing.T) {
	seeds := []uint32{1, 0xBEEF, 0x5EED_1234, 42, 0xABCD_EF01}
	ops := 400
	if testing.Short() {
		seeds = seeds[:2]
		ops = 150
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			rng := &xorshift{s: seed ^ 0x9E37_79B9}
			trace := make([]byte, ops)
			for i := range trace {
				trace[i] = byte(rng.next())
			}
			checkEquivalence(t, seed, trace)
		})
	}
}

// FuzzBatchedMatchesScalar is TestBatchedScalarEquivalence over fuzzed op
// sequences: each byte of ops picks an op (at most 300 run), and seed
// seeds the stream its parameters are drawn from.
func FuzzBatchedMatchesScalar(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint32, ops []byte) {
		checkEquivalence(t, seed, ops[:min(len(ops), 300)])
	})
}

// The fetch cursor must wrap on the actual code size: a 40-byte range walks
// cyclically through 32-byte lines without overshooting (regression test for
// the cursor-wrap bug; 40 is deliberately not a multiple of 32).
func TestExecCursorWrapsOnActualCodeSize(t *testing.T) {
	c, _, _ := rig()
	c.MMU.Enabled = false
	ctx := NewExecContext(c, "t", 0x0001_0000, 40)
	want := uint32(0)
	for i := 0; i < 20; i++ {
		ctx.Exec(8) // one line per call
		want = (want + instrPerLine*4) % 40
		if ctx.cursor != want {
			t.Fatalf("after %d lines: cursor = %d, want %d (cyclic phase kept)", i+1, ctx.cursor, want)
		}
		if ctx.cursor >= 40 {
			t.Fatalf("cursor %d escaped the code range", ctx.cursor)
		}
	}
}
