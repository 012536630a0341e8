package nova

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"repro/internal/abi"
	"repro/internal/capspace"
	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/mmu"
	"repro/internal/physmem"
	"repro/internal/simclock"
)

// idleTemplate is a guest that programs a 1 ms tick and parks in
// paravirtualized idle forever — the canonical checkpointable shape.
func idleTemplate(name string) Guest {
	return &scriptGuest{name, func(env *Env) {
		env.Hypercall(abi.HcTimerSet, uint32(simclock.FromMillis(1)))
		for {
			env.Hypercall(abi.HcSuspend, 1)
			env.CheckPreempt()
		}
	}}
}

// cloneWriter resumes the replayed suspend exit, dirties nPages of guest
// user memory (breaking that many COW shares), then parks again.
func cloneWriter(name string, nPages int) Guest {
	return &scriptGuest{name, func(env *Env) {
		env.ResumeSuspendExit()
		env.Ctx.Exec(100)
		for i := 0; i < nPages; i++ {
			env.Ctx.Touch(GuestUserBase+uint32(i)*physmem.FrameSize+4, true)
			env.CheckPreempt()
		}
		for {
			env.Hypercall(abi.HcSuspend, 1)
			env.CheckPreempt()
		}
	}}
}

// bootFrozenTemplate boots a template VM to quiescence, checkpoints and
// freezes it.
func bootFrozenTemplate(t testing.TB, k *Kernel, withContents bool) (*PD, *checkpoint.Image) {
	t.Helper()
	tpl := k.CreatePD(PDConfig{Name: "tpl", Priority: PrioGuest, Guest: idleTemplate("tpl")})
	k.RunFor(simclock.FromMillis(2))
	if !tpl.IdleParked() {
		t.Fatal("template did not quiesce in paravirtualized idle")
	}
	img, err := k.Checkpoint(tpl, withContents)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := k.Freeze(tpl); err != nil {
		t.Fatalf("freeze: %v", err)
	}
	if !tpl.Frozen() {
		t.Fatal("template not frozen")
	}
	return tpl, img
}

func TestCheckpointRequiresQuiescence(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	busy := k.CreatePD(PDConfig{Name: "busy", Priority: PrioGuest, Guest: &scriptGuest{"busy", func(env *Env) {
		for {
			env.Ctx.Exec(500)
			env.CheckPreempt()
		}
	}}})
	k.RunFor(simclock.FromMillis(1))
	if _, err := k.Checkpoint(busy, false); err == nil {
		t.Fatal("checkpoint of a running PD accepted")
	}
}

// sharedMappings counts the image frames pd's table maps read-only at
// their image address: the frames a clone still shares, which its Shared
// count must equal.
func sharedMappings(pd *PD, img *checkpoint.Image) int {
	n := 0
	img.EachFrame(func(va uint32, pa physmem.Addr) {
		if cur, _, ap, ok := pd.Table.Lookup(va); ok && ap == mmu.APUserRO && cur == pa {
			n++
		}
	})
	return n
}

// TestCheckpointMaterializesImage: every frame of a fresh image is
// materialized right after Checkpoint, before any fork, so clones on two
// cores only ever read frames whose slots are already filled.
func TestCheckpointMaterializesImage(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	_, img := bootFrozenTemplate(t, k, false)
	img.EachFrame(func(va uint32, pa physmem.Addr) {
		if !k.Bus.Allocated(pa) {
			t.Fatalf("image frame va %#x pa %#x not materialized by Checkpoint", va, uint32(pa))
		}
	})
}

// TestCloneStartsFromWholeCapture: a fork starts from everything the
// image captured — the restorable vCPU value, the vGIC's lines and
// pending list, the root context's ExecState — as copies of its own,
// while its TTBR and ASID are its own.
func TestCloneStartsFromWholeCapture(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	// idleTemplate, with guest code run and data touched first, so the
	// root context has replay state worth capturing.
	tpl := k.CreatePD(PDConfig{Name: "tpl", Priority: PrioGuest, Guest: &scriptGuest{"tpl", func(env *Env) {
		env.Ctx.Exec(100)
		env.Ctx.Touch(GuestUserBase, true)
		idleTemplate("tpl").RunSlice(env)
	}}})
	k.RunFor(simclock.FromMillis(2))
	// vGIC state worth capturing: an enabled line injected and in
	// service, and a registered, disabled one.
	tpl.VGIC.Register(70)
	tpl.VGIC.Enable(70)
	tpl.VGIC.Inject(70)
	tpl.VGIC.Register(71)
	img, err := k.Checkpoint(tpl, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.VGIC) != 2 || len(img.VGICPending) != 1 || img.Exec == (cpu.ExecState{}) || img.VCPU.TimerPeriod == 0 {
		t.Fatalf("image captured too little: %d lines, %d pending, exec state zero %v, timer period %d",
			len(img.VGIC), len(img.VGICPending), img.Exec == (cpu.ExecState{}), img.VCPU.TimerPeriod)
	}

	c := k.CreateClone(img, "clone", cloneWriter("clone", 0))
	if c.VCPU.VCPUState != img.VCPU {
		t.Errorf("clone vCPU %+v, image's %+v", c.VCPU.VCPUState, img.VCPU)
	}
	if c.VCPU.TTBR != uint32(c.Table.Base) || c.VCPU.TTBR == tpl.VCPU.TTBR {
		t.Errorf("clone TTBR %#x, want its own table %#x (template's %#x)", c.VCPU.TTBR, uint32(c.Table.Base), tpl.VCPU.TTBR)
	}
	if c.VCPU.ASID != c.ASID || c.ASID == tpl.ASID {
		t.Errorf("clone vCPU ASID %d, want its own %d (template's %d)", c.VCPU.ASID, c.ASID, tpl.ASID)
	}
	if !slices.Equal(c.VGIC.recs, img.VGIC) || !slices.Equal(c.VGIC.pending, img.VGICPending) {
		t.Errorf("clone vGIC %+v pending %v, image's %+v pending %v", c.VGIC.recs, c.VGIC.pending, img.VGIC, img.VGICPending)
	}
	if c.Env.Ctx.ExecState != img.Exec {
		t.Error("clone's root context ExecState differs from the image's")
	}
	// The clone's records are its own: changing them leaves the image alone.
	c.VGIC.Disable(70)
	c.VGIC.DrainPending()
	if !img.VGIC[0].Enabled || len(img.VGICPending) != 1 {
		t.Error("a change to the clone's vGIC reached the image")
	}
}

// TestCloneRevocationAndSharing is the lifecycle cross-product: COW
// sharing across fork, writes and teardown, generation-based revocation
// of a destroyed clone's delegated capabilities, and arena reuse.
func TestCloneRevocationAndSharing(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	_, img := bootFrozenTemplate(t, k, false)

	const dirty = 3
	c1 := k.CreateClone(img, "c1", cloneWriter("c1", dirty))
	c2 := k.CreateClone(img, "c2", cloneWriter("c2", dirty))
	st, ok := c1.CloneStats()
	if !ok || st.Shared != img.FrameCount() || st.Copied != 0 {
		t.Fatalf("fresh clone stats = %+v ok=%v", st, ok)
	}

	// Delegate c1's identity to c2, then run both clones so their writes
	// break COW shares.
	sel, derr := k.DelegateIPC(c1, c2)
	if derr != nil {
		t.Fatalf("delegate: %v", derr)
	}
	if _, err := c2.Space.Lookup(sel, capspace.ObjPD, capspace.RightCall); err != capspace.OK {
		t.Fatalf("pre-destroy lookup = %v", err)
	}
	if err := k.ActivateClone(c1); err != nil {
		t.Fatal(err)
	}
	if err := k.ActivateClone(c2); err != nil {
		t.Fatal(err)
	}
	k.RunFor(simclock.FromMillis(4))

	for _, c := range []*PD{c1, c2} {
		st, _ := c.CloneStats()
		if st.COWFaults != dirty || st.Copied != dirty {
			t.Fatalf("%s COW stats = %+v, want %d faults/copies", c.Name_, st, dirty)
		}
		if st.Shared != img.FrameCount()-dirty || st.Shared != sharedMappings(c, img) {
			t.Fatalf("%s shared = %d, want %d, the frames it maps read-only: %d",
				c.Name_, st.Shared, img.FrameCount()-dirty, sharedMappings(c, img))
		}
		if !c.IdleParked() {
			t.Fatalf("%s did not re-park after writing", c.Name_)
		}
	}

	// Destroy c1: its delegated capability dies by generation bump, and
	// it shares no frame any more.
	if err := k.DestroyClone(c1); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Space.Lookup(sel, capspace.ObjPD, capspace.RightCall); err != capspace.ErrRevoked {
		t.Fatalf("post-destroy lookup = %v, want ErrRevoked", err)
	}
	if st, _ := c1.CloneStats(); st.Shared != 0 {
		t.Fatalf("destroyed clone shared = %d, want 0", st.Shared)
	}
	if err := k.DestroyClone(c2); err != nil {
		t.Fatal(err)
	}

	// No clone is live and both arenas are back on the free list, for
	// the next forks to recycle.
	if live, free := liveClones(k), len(k.cloneArenaFree); live != 0 || free != 2 {
		t.Fatalf("after teardown: %d clones live, %d arenas free; want 0 and 2", live, free)
	}
}

// TestCloneUnmapPageRefused: a clone has no RAM of its own, so
// HcUnmapPage is refused like HcMapPage. Unmapping a read-only template
// page would leave the clone's Shared count naming a frame it no longer
// maps.
func TestCloneUnmapPageRefused(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	_, img := bootFrozenTemplate(t, k, false)
	status := ^uint32(0)
	c := k.CreateClone(img, "c", &scriptGuest{"c", func(env *Env) {
		env.ResumeSuspendExit()
		status = env.Hypercall(abi.HcUnmapPage, GuestUserBase)
		for {
			env.Hypercall(abi.HcSuspend, 1)
			env.CheckPreempt()
		}
	}})
	if err := k.ActivateClone(c); err != nil {
		t.Fatal(err)
	}
	k.RunFor(simclock.FromMillis(2))
	if status != abi.StatusInval {
		t.Fatalf("clone's HcUnmapPage(%#x) = %d, want StatusInval", GuestUserBase, status)
	}
	if pa, _, ap, ok := c.Table.Lookup(GuestUserBase); !ok || ap != mmu.APUserRO || pa != img.Regions[1].PA {
		t.Fatalf("template page after the refused unmap: %#x ap %d mapped %v, want %#x read-only",
			uint32(pa), ap, ok, uint32(img.Regions[1].PA))
	}
	if st, _ := c.CloneStats(); st.Shared != img.FrameCount() || sharedMappings(c, img) != st.Shared {
		t.Fatalf("clone shared = %d, maps %d read-only; want both %d", st.Shared, sharedMappings(c, img), img.FrameCount())
	}
}

// liveClones counts k's clones that are not destroyed.
func liveClones(k *Kernel) int {
	n := 0
	for _, pd := range k.PDs {
		if pd.clone != nil && !pd.dead {
			n++
		}
	}
	return n
}

// TestCloneArenaRecycling forks and destroys clones one after another:
// each fork takes the arena the last destroy gave back, so the DDR cursor
// hands out one arena however many clones churn through.
func TestCloneArenaRecycling(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	_, img := bootFrozenTemplate(t, k, false)
	for i := 0; i < 4; i++ {
		c := k.CreateClone(img, "c", cloneWriter("c", 1))
		if err := k.DestroyClone(c); err != nil {
			t.Fatal(err)
		}
	}
	if live, free := liveClones(k), len(k.cloneArenaFree); live != 0 || free != 1 {
		t.Fatalf("%d clones live, %d arenas free; want 0 and 1 (recycled)", live, free)
	}
}

// TestFrozenCloneStaysParked: a warm-pool shelf item must not wake on
// injections — only ActivateClone makes it runnable.
func TestFrozenCloneStaysParked(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	_, img := bootFrozenTemplate(t, k, false)
	c := k.CreateClone(img, "shelf", cloneWriter("shelf", 1))
	k.RunFor(simclock.FromMillis(5))
	if st, _ := c.CloneStats(); st.COWFaults != 0 {
		t.Fatalf("frozen clone ran: %+v", st)
	}
	if !c.Frozen() || !c.IdleParked() {
		t.Fatal("shelf clone lost its frozen/parked state")
	}
	if err := k.ActivateClone(c); err != nil {
		t.Fatal(err)
	}
	k.RunFor(simclock.FromMillis(4))
	if st, _ := c.CloneStats(); st.COWFaults != 1 {
		t.Fatalf("activated clone COW faults = %d, want 1", st.COWFaults)
	}
}

// TestCloneForkChargeIsMetadataOnly pins the O(metadata) claim: the fork
// charge is base + 4 cycles per shared frame and independent of guest
// RAM contents.
func TestCloneForkChargeIsMetadataOnly(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	_, img := bootFrozenTemplate(t, k, false)
	before := k.Clock.Now()
	c := k.CreateClone(img, "c", cloneWriter("c", 0))
	defer k.DestroyClone(c)
	want := simclock.Cycles(CostCloneBase + img.FrameCount()*CostClonePerFrame)
	if d := k.Clock.Now() - before; d != want {
		t.Fatalf("fork charged %d cycles, want %d", d, want)
	}
}

// TestForkDestroyRestoresRefs: a fork of any image Validate accepts
// counts as shared exactly the image frames its table maps read-only,
// and its destroy leaves it sharing none. One candidate maps two frames at
// the same VA; a fork of it would count both frames while its table can
// map only one, so Validate must reject it.
func TestForkDestroyRestoresRefs(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	_, img := bootFrozenTemplate(t, k, false)
	user := img.Regions[1]
	sameVA := *img
	sameVA.Regions = []checkpoint.Region{
		{VA: user.VA, PA: user.PA, Size: physmem.FrameSize, Domain: user.Domain},
		{VA: user.VA, PA: user.PA + physmem.FrameSize, Size: physmem.FrameSize, Domain: user.Domain},
	}
	accepted := 0
	for _, cand := range []*checkpoint.Image{img, &sameVA} {
		if cand.Validate() != nil {
			continue
		}
		accepted++
		c := k.CreateClone(cand, "c", cloneWriter("c", 0))
		if st, _ := c.CloneStats(); st.Shared != sharedMappings(c, cand) {
			t.Errorf("%d regions: fork shares %d frames, but maps %d read-only",
				len(cand.Regions), st.Shared, sharedMappings(c, cand))
		}
		if err := k.DestroyClone(c); err != nil {
			t.Fatal(err)
		}
		if st, _ := c.CloneStats(); st.Shared != 0 {
			t.Errorf("%d regions: destroyed clone shares %d frames, want 0", len(cand.Regions), st.Shared)
		}
	}
	if accepted == 0 {
		t.Fatal("Validate rejected the captured image")
	}
}

// TestCloneArenaExhaustionStallsClone: a clone that writes more distinct
// pages than its arena holds COW frames for copies as many as fit, then
// takes the next write as an unrecovered abort and stalls. The kernel
// does not panic or hang, and the clone's sibling, the template and every
// clone's Shared count stay intact.
func TestCloneArenaExhaustionStallsClone(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	tpl, img := bootFrozenTemplate(t, k, false)
	hog := k.CreateClone(img, "hog", cloneWriter("hog", 200))
	sib := k.CreateClone(img, "sib", cloneWriter("sib", 2))
	room := int(hog.clone.arena.Remaining() / physmem.FrameSize)
	if room >= 200 {
		t.Fatalf("arena holds %d COW frames; the test needs fewer than the 200 pages written", room)
	}
	for _, c := range []*PD{hog, sib} {
		if err := k.ActivateClone(c); err != nil {
			t.Fatal(err)
		}
	}
	k.RunFor(simclock.FromMillis(10))

	st, _ := hog.CloneStats()
	if st.COWFaults != uint64(room) || st.Copied != uint64(room) || st.Shared != img.FrameCount()-room {
		t.Fatalf("hog COW stats = %+v, want %d faults and copies", st, room)
	}
	if !hog.Env.Ctx.Stalled {
		t.Fatal("hog's context did not stall on the write its arena had no room for")
	}
	if st, _ := sib.CloneStats(); st.COWFaults != 2 || !sib.IdleParked() {
		t.Fatalf("sibling COW stats = %+v, parked %v; want 2 faults and re-parked", st, sib.IdleParked())
	}
	if !tpl.Frozen() || !tpl.IdleParked() {
		t.Fatal("template lost its frozen/parked state")
	}
	// Each clone shares exactly the image frames it still maps read-only,
	// and neither copied the first page past the hog's arena.
	va := img.Regions[1].VA + uint32(room)*physmem.FrameSize
	for _, c := range []*PD{hog, sib} {
		if st, _ := c.CloneStats(); st.Shared != sharedMappings(c, img) {
			t.Fatalf("%s shared = %d, but maps %d frames read-only", c.Name_, st.Shared, sharedMappings(c, img))
		}
		if pa, _, ap, ok := c.Table.Lookup(va); !ok || ap != mmu.APUserRO || pa != img.Regions[1].PA+physmem.Addr(room)*physmem.FrameSize {
			t.Fatalf("%s: first page past the hog's arena is %#x ap %d, want the template frame read-only", c.Name_, uint32(pa), ap)
		}
	}
}

// refTable is a clone's page table built descriptor by descriptor on a
// bus of its own, at the clone's arena base: what every clone's table
// must equal byte for byte.
type refTable struct {
	bus  *physmem.Bus
	pt   *mmu.PageTable
	size int // bytes of the arena's table frames
}

func newRefTable(pd *PD) *refTable {
	arena := mmu.NewFrameAllocator(pd.clone.arenaBase, cloneArenaSize)
	r := &refTable{bus: physmem.NewBus()}
	r.pt = guestTable(r.bus, arena, pd.clone.img.Regions, mmu.APUserRO)
	used := cloneArenaSize - int(arena.Remaining())
	r.size = (used + physmem.FrameSize - 1) &^ (physmem.FrameSize - 1)
	return r
}

// remapCopies replays on the reference the COW breaks pd has made: every
// image page pd maps writable.
func (r *refTable) remapCopies(pd *PD) {
	pd.clone.img.EachFrame(func(va uint32, _ physmem.Addr) {
		if pa, _, ap, ok := pd.Table.Lookup(va); ok && ap == mmu.APFull {
			r.pt.RemapPage(va, pa, ap)
		}
	})
}

// check compares every byte of pd's table frames, and Lookup of every
// image VA, with the reference.
func (r *refTable) check(t *testing.T, k *Kernel, pd *PD) {
	t.Helper()
	base := pd.clone.arenaBase
	got, err := k.Bus.ReadBytes(base, r.size)
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.bus.ReadBytes(base, r.size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: table byte %#x of %#x differs from the descriptor-by-descriptor build: %#02x, want %#02x",
			pd.Name_, i, r.size, got[i], want[i])
	}
	pd.clone.img.EachFrame(func(va uint32, _ physmem.Addr) {
		pa, dom, ap, ok := pd.Table.Lookup(va)
		wpa, wdom, wap, wok := r.pt.Lookup(va)
		if pa != wpa || dom != wdom || ap != wap || ok != wok {
			t.Fatalf("%s: Lookup(%#x) = %#x %d %d %v, want %#x %d %d %v", pd.Name_, va, pa, dom, ap, ok, wpa, wdom, wap, wok)
		}
	})
}

// TestCloneTablesMatchDescriptorBuild pins the shared-frame fork: the
// image's first clone, a later clone, a clone in a recycled arena and
// clones of two images interleaved all have the table bytes and
// translations a descriptor-by-descriptor build gives, and a COW break in
// one clone leaves every sibling's table as it was.
func TestCloneTablesMatchDescriptorBuild(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	_, imgA := bootFrozenTemplate(t, k, false)
	const dirty = 3
	first := k.CreateClone(imgA, "a0", cloneWriter("a0", dirty))
	later := k.CreateClone(imgA, "a1", cloneWriter("a1", 0))
	for _, c := range []*PD{first, later} {
		newRefTable(c).check(t, k, c)
	}
	base := later.clone.arenaBase
	if err := k.DestroyClone(later); err != nil {
		t.Fatal(err)
	}
	recycled := k.CreateClone(imgA, "a2", cloneWriter("a2", 0))
	if recycled.clone.arenaBase != base {
		t.Fatalf("fork after a destroy took arena %#x, want the recycled %#x", recycled.clone.arenaBase, base)
	}
	newRefTable(recycled).check(t, k, recycled)

	// A second image: its first clone is built over the recycled arena of
	// one of image A's, and its clones and A's alternate.
	_, imgB := bootFrozenTemplate(t, k, false)
	if err := k.DestroyClone(recycled); err != nil {
		t.Fatal(err)
	}
	siblings := []*PD{
		k.CreateClone(imgB, "b0", cloneWriter("b0", 0)),
		k.CreateClone(imgA, "a3", cloneWriter("a3", 0)),
		k.CreateClone(imgB, "b1", cloneWriter("b1", 0)),
		k.CreateClone(imgA, "a4", cloneWriter("a4", 0)),
	}
	if siblings[0].clone.arenaBase != base {
		t.Fatalf("image B's first clone took arena %#x, want the recycled %#x", siblings[0].clone.arenaBase, base)
	}
	refs := make([]*refTable, len(siblings))
	for i, c := range siblings {
		refs[i] = newRefTable(c)
		refs[i].check(t, k, c)
	}

	// The first clone breaks COW shares; only its own table changes.
	if err := k.ActivateClone(first); err != nil {
		t.Fatal(err)
	}
	k.RunFor(simclock.FromMillis(4))
	if st, _ := first.CloneStats(); st.COWFaults != dirty {
		t.Fatalf("first clone COW faults = %d, want %d", st.COWFaults, dirty)
	}
	r := newRefTable(first)
	r.remapCopies(first)
	r.check(t, k, first)
	for i, c := range siblings {
		refs[i].check(t, k, c)
	}
}

// TestCloneTablesTwoShards runs clones on both cores of a two-core
// machine that break COW shares at once. Every clone after the image's
// first starts on the same captured host buffers for its second-level
// tables, so both cores copy the same buffers concurrently; the race
// detector checks that, and every table still matches its
// descriptor-by-descriptor build with the copies replayed.
func TestCloneTablesTwoShards(t *testing.T) {
	k := NewKernelSMP(2)
	defer k.Shutdown()
	_, img := bootFrozenTemplate(t, k, false)
	k.CreateClone(img, "c0", cloneWriter("c0", 0)) // builds the table image
	const dirty = 4
	var clones []*PD
	var onCore [2]bool
	for _, name := range []string{"c1", "c2", "c3", "c4"} {
		c := k.CreateClone(img, name, cloneWriter(name, dirty))
		clones = append(clones, c)
		onCore[c.Core.ID] = true
	}
	if !onCore[0] || !onCore[1] {
		t.Fatalf("clones placed on cores %v, want both", onCore)
	}
	for _, c := range clones {
		if err := k.ActivateClone(c); err != nil {
			t.Fatal(err)
		}
	}
	k.RunParallelFor(simclock.FromMillis(4), 2)
	for _, c := range clones {
		if st, _ := c.CloneStats(); st.COWFaults != dirty {
			t.Fatalf("%s COW faults = %d, want %d", c.Name_, st.COWFaults, dirty)
		}
		r := newRefTable(c)
		r.remapCopies(c)
		r.check(t, k, c)
	}
}

// TestForkAllocatesOneTableFrame pins the host bytes of a fork once its
// image's table image exists: one 4 KB table frame (the L1 frame whose
// entries point at the clone's own L2 tables) plus the PD's own metadata.
// Measured forks into fresh arenas: 6.7 KB each, the frame, about 2.1 KB
// of metadata (PD, Env, execution context, 33-slot capability space,
// vGIC, coroutine) and the frame table's growth over the arena each fork
// carves; building the table descriptor by descriptor made it
// 24.7–25.2 KB, five private table frames.
func TestForkAllocatesOneTableFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins do not hold under -race")
	}
	const pdMetadata = 6 << 10
	k := NewKernel()
	defer k.Shutdown()
	_, img := bootFrozenTemplate(t, k, false)
	g := cloneWriter("c", 0)
	k.CreateClone(img, "c0", g) // builds the table image
	const forks = 16
	k.PDs = slices.Grow(k.PDs, forks)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range forks {
		k.CreateClone(img, "c", g)
	}
	runtime.ReadMemStats(&after)
	perFork := (after.TotalAlloc - before.TotalAlloc) / forks
	t.Logf("%d bytes allocated per fork", perFork)
	if perFork > physmem.FrameSize+pdMetadata {
		t.Errorf("a fork allocated %d bytes, want at most one table frame plus %d bytes of PD metadata", perFork, pdMetadata)
	}
}

// BenchmarkCreateClone is the fork path's host cost: fork a clone of the
// 4 MB checkpoint image and destroy it again, so every iteration reuses
// the same recycled arena. One fork before the loop builds the image's
// table image, so even a one-iteration run times a steady-state fork.
func BenchmarkCreateClone(b *testing.B) {
	k := NewKernel()
	defer k.Shutdown()
	_, img := bootFrozenTemplate(b, k, false)
	g := cloneWriter("c", 0)
	if err := k.DestroyClone(k.CreateClone(img, "c", g)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		c := k.CreateClone(img, "c", g)
		if err := k.DestroyClone(c); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDestroyedClonesHoldLittleHeap forks and destroys 2,000 clones of
// one image, as a warm shelf's reaps do. A destroyed clone stays in
// Kernel.PDs, whose index is its ID, with what the tracer and the reports
// read; what only a live clone uses goes. The live heap may grow by at
// most 1 KB per cycle (about 4.1 KB while a dead clone kept its whole
// capability table, execution context, coroutine and arena allocator).
func TestDestroyedClonesHoldLittleHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins do not hold under -race")
	}
	const cycles, bound = 2000, 1 << 10
	k := NewKernel()
	defer k.Shutdown()
	_, img := bootFrozenTemplate(t, k, false)
	g := cloneWriter("c", 0)
	cycle := func() {
		if err := k.DestroyClone(k.CreateClone(img, "c", g)); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // builds the table image and carves the arena every cycle reuses
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range cycles {
		cycle()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	dead := k.PDs[len(k.PDs)-1]
	if k.ActivateClone(dead) == nil || k.RestoreInPlace(dead, img, g) == nil || k.DestroyClone(dead) == nil {
		t.Fatal("a destroyed clone was activated, restored or destroyed again")
	}
	perCycle := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / cycles
	t.Logf("%d bytes of live heap per fork/destroy cycle", perCycle)
	if perCycle > bound {
		t.Errorf("a destroyed clone holds %d bytes of live heap, want at most %d", perCycle, bound)
	}
}
