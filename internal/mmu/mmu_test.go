package mmu

import (
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/physmem"
	"repro/internal/tlb"
)

// rig builds a bus + MMU with a page table rooted in DDR.
func rig() (*physmem.Bus, *MMU, *PageTable, *FrameAllocator) {
	bus := physmem.NewBus()
	alloc := NewFrameAllocator(physmem.DDRBase+1<<20, 8<<20)
	pt := NewPageTable(bus, alloc)
	m := New(bus, tlb.NewA9(), cache.NewA9Hierarchy())
	m.Enabled = true
	m.TTBR = pt.Base
	m.SetDACR(uint32(DomainClient) << 2) // domain 1 = client
	m.ASID = 7
	return bus, m, pt, alloc
}

func TestDisabledMMUIsIdentity(t *testing.T) {
	bus := physmem.NewBus()
	m := New(bus, tlb.NewA9(), cache.NewA9Hierarchy())
	pa, cost, f := m.Translate(0x1234_5678, false, true, false)
	if f != nil || pa != 0x1234_5678 || cost != 0 {
		t.Errorf("disabled MMU: pa=%#x cost=%d fault=%v", pa, cost, f)
	}
}

func TestSmallPageTranslation(t *testing.T) {
	_, m, pt, _ := rig()
	pt.MapPage(0x0040_0000, physmem.DDRBase+0x20_0000, 1, APFull)
	pa, cost, f := m.Translate(0x0040_0ABC, false, false, false)
	if f != nil {
		t.Fatalf("fault: %v", f)
	}
	if want := physmem.DDRBase + 0x20_0ABC; pa != want {
		t.Errorf("pa = %#x, want %#x", pa, want)
	}
	if cost == 0 {
		t.Error("first translation cost 0 (walk should be charged)")
	}
	// Second translation hits TLB: zero cost.
	_, cost2, _ := m.Translate(0x0040_0ABC, false, true, false)
	if cost2 != 0 {
		t.Errorf("TLB-hit cost = %d, want 0", cost2)
	}
}

func TestSectionTranslation(t *testing.T) {
	_, m, pt, _ := rig()
	pt.MapSection(0x4010_0000, 0x0080_0000, 1, APFull)
	pa, _, f := m.Translate(0x4012_3456, false, false, false)
	if f != nil {
		t.Fatalf("fault: %v", f)
	}
	if pa != 0x0082_3456 {
		t.Errorf("pa = %#x, want 0x00823456", pa)
	}
}

func TestTranslationFaultOnUnmapped(t *testing.T) {
	_, m, _, _ := rig()
	_, _, f := m.Translate(0xDEAD_0000, false, false, false)
	if f == nil || f.Kind != FaultTranslation {
		t.Errorf("fault = %v, want translation fault", f)
	}
}

func TestDomainNoAccessFault(t *testing.T) {
	_, m, pt, _ := rig()
	pt.MapPage(0x0040_0000, physmem.DDRBase+0x20_0000, 2, APFull) // domain 2
	m.SetDACR(uint32(DomainClient) << 2)                          // domain 2 not granted
	_, _, f := m.Translate(0x0040_0000, false, false, false)
	if f == nil || f.Kind != FaultDomain {
		t.Errorf("fault = %v, want domain fault", f)
	}
	// Grant domain 2 as client: access passes.
	m.SetDACR(uint32(DomainClient)<<2 | uint32(DomainClient)<<4)
	if _, _, f := m.Translate(0x0040_0000, false, false, false); f != nil {
		t.Errorf("after granting domain: %v", f)
	}
}

func TestManagerBypassesAP(t *testing.T) {
	_, m, pt, _ := rig()
	pt.MapPage(0x0040_0000, physmem.DDRBase+0x20_0000, 1, APPriv)
	m.SetDACR(uint32(DomainManager) << 2)
	if _, _, f := m.Translate(0x0040_0000, false, true, false); f != nil {
		t.Errorf("manager domain still checked AP: %v", f)
	}
}

func TestAPMatrix(t *testing.T) {
	cases := []struct {
		ap          uint8
		priv, write bool
		allowed     bool
	}{
		{APPriv, true, true, true},
		{APPriv, true, false, true},
		{APPriv, false, false, false},
		{APPriv, false, true, false},
		{APUserRO, false, false, true},
		{APUserRO, false, true, false},
		{APUserRO, true, true, true},
		{APFull, false, true, true},
		{APFull, false, false, true},
		{APNone, true, false, false},
	}
	for _, tc := range cases {
		_, m, pt, _ := rig()
		pt.MapPage(0x0040_0000, physmem.DDRBase+0x20_0000, 1, tc.ap)
		_, _, f := m.Translate(0x0040_0000, tc.priv, tc.write, false)
		got := f == nil
		if got != tc.allowed {
			t.Errorf("ap=%d priv=%v write=%v: allowed=%v, want %v (fault %v)",
				tc.ap, tc.priv, tc.write, got, tc.allowed, f)
		}
		if f != nil && f.Kind != FaultPermission {
			t.Errorf("ap=%d: fault kind %v, want permission", tc.ap, f.Kind)
		}
	}
}

// TestDACRTable2 encodes the paper's Table II: the guest-kernel domain is
// Client when executing in guest-kernel context and NoAccess in guest-user
// context, so guest kernels are protected from their users while both run
// unprivileged.
func TestDACRTable2(t *testing.T) {
	_, m, pt, _ := rig()
	const (
		domGuestUser   = 1
		domGuestKernel = 2
	)
	pt.MapPage(0x0000_1000, physmem.DDRBase+0x30_0000, domGuestUser, APFull)
	pt.MapPage(0x4000_0000, physmem.DDRBase+0x31_0000, domGuestKernel, APFull)

	dacrGU := uint32(DomainClient) << (2 * domGuestUser) // GK section: NA
	dacrGK := dacrGU | uint32(DomainClient)<<(2*domGuestKernel)

	// Guest-user context: user page ok, kernel page domain-faults.
	m.SetDACR(dacrGU)
	if _, _, f := m.Translate(0x0000_1000, false, true, false); f != nil {
		t.Errorf("guest user page in GU context: %v", f)
	}
	if _, _, f := m.Translate(0x4000_0000, false, false, false); f == nil || f.Kind != FaultDomain {
		t.Errorf("guest kernel page in GU context: fault=%v, want domain fault", f)
	}
	// Guest-kernel context: both ok.
	m.SetDACR(dacrGK)
	if _, _, f := m.Translate(0x4000_0000, false, true, false); f != nil {
		t.Errorf("guest kernel page in GK context: %v", f)
	}
	if _, _, f := m.Translate(0x0000_1000, false, true, false); f != nil {
		t.Errorf("guest user page in GK context: %v", f)
	}
}

func TestUnmapPageRevokes(t *testing.T) {
	_, m, pt, _ := rig()
	pt.MapPage(0x0040_0000, physmem.DDRBase+0x20_0000, 1, APFull)
	if _, _, f := m.Translate(0x0040_0000, false, false, false); f != nil {
		t.Fatalf("pre-unmap: %v", f)
	}
	pt.UnmapPage(0x0040_0000)
	m.TLB.FlushVA(0x0040_0000, m.ASID)
	if _, _, f := m.Translate(0x0040_0000, false, false, false); f == nil {
		t.Error("access after unmap+flush succeeded")
	}
}

func TestStaleTLBWithoutFlush(t *testing.T) {
	// Documents the hardware hazard Mini-NOVA must handle: remapping
	// without a TLB flush leaves the old translation live.
	_, m, pt, _ := rig()
	pt.MapPage(0x0040_0000, physmem.DDRBase+0x20_0000, 1, APFull)
	m.Translate(0x0040_0000, false, false, false) // fills TLB
	pt.UnmapPage(0x0040_0000)
	if _, _, f := m.Translate(0x0040_0000, false, false, false); f != nil {
		t.Error("expected stale TLB hit without flush (hazard not modelled)")
	}
}

func TestLookupMatchesTranslate(t *testing.T) {
	_, m, pt, _ := rig()
	pt.MapPage(0x0044_0000, physmem.DDRBase+0x21_0000, 1, APFull)
	pa1, _, f := m.Translate(0x0044_0123, false, false, false)
	if f != nil {
		t.Fatal(f)
	}
	pa2, dom, ap, ok := pt.Lookup(0x0044_0123)
	if !ok || pa1 != pa2 || dom != 1 || ap != APFull {
		t.Errorf("Lookup = %#x dom=%d ap=%d ok=%v; Translate = %#x", pa2, dom, ap, ok, pa1)
	}
}

func TestDomainMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mixing domains in one 1MB slot did not panic")
		}
	}()
	_, _, pt, _ := rig()
	pt.MapPage(0x0040_0000, physmem.DDRBase+0x20_0000, 1, APFull)
	pt.MapPage(0x0040_1000, physmem.DDRBase+0x20_1000, 2, APFull)
}

func TestWalkDepth(t *testing.T) {
	_, _, pt, _ := rig()
	pt.MapPage(0x0040_0000, physmem.DDRBase+0x20_0000, 1, APFull)
	if got := pt.WalkDepth(0x0040_0000); got != 2 {
		t.Fatalf("small page walk touches %d descriptors, want 2", got)
	}
	pt.MapSection(0x5000_0000, 0x0400_0000, 1, APFull)
	if got := pt.WalkDepth(0x5000_0000); got != 1 {
		t.Errorf("section walk touches %d descriptors, want 1", got)
	}
}

// Property: translation is a function — two translations of the same VA
// with no intervening page-table writes give the same PA.
func TestPropertyTranslationStable(t *testing.T) {
	_, m, pt, _ := rig()
	for i := uint32(0); i < 64; i++ {
		pt.MapPage(0x0100_0000+i<<12, physmem.DDRBase+physmem.Addr(0x40_0000+i<<12), 1, APFull)
	}
	f := func(page, off uint16) bool {
		va := 0x0100_0000 + uint32(page%64)<<12 + uint32(off&0xFFF)
		pa1, _, f1 := m.Translate(va, false, false, false)
		pa2, _, f2 := m.Translate(va, false, true, false)
		return f1 == nil && f2 == nil && pa1 == pa2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFrameAllocatorAlignment(t *testing.T) {
	a := NewFrameAllocator(physmem.DDRBase+0x123, 1<<20)
	p := a.Alloc(L1TableSize, L1TableSize)
	if uint32(p)%L1TableSize != 0 {
		t.Errorf("allocation %#x not %d-aligned", p, L1TableSize)
	}
	q := a.Alloc(L2TableSize, L2TableSize)
	if q < p+L1TableSize {
		t.Error("allocations overlap")
	}
}
