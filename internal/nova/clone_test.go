package nova

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/capspace"
	"repro/internal/checkpoint"
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

// TestCloneRevocationAndSharing is the lifecycle cross-product: COW
// refcounts across fork and teardown, generation-based revocation of a
// destroyed clone's delegated capabilities, image pinning keeping shared
// frames alive exactly as long as someone needs them, and arena reuse.
func TestCloneRevocationAndSharing(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	_, img := bootFrozenTemplate(t, k, false)

	// First template frame (guest kernel image): clones never write it.
	var pa0 physmem.Addr
	got := false
	img.EachFrame(func(_ uint32, pa physmem.Addr) {
		if !got {
			pa0, got = pa, true
		}
	})
	if !got {
		t.Fatal("image has no frames")
	}

	const dirty = 3
	c1 := k.CreateClone(img, "c1", cloneWriter("c1", dirty))
	c2 := k.CreateClone(img, "c2", cloneWriter("c2", dirty))
	if r := k.Bus.Refs(pa0); r != 2 {
		t.Fatalf("shared frame refs = %d after two forks, want 2", r)
	}
	if !k.Bus.Pinned(pa0) {
		t.Fatal("image frame not pinned")
	}
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
		if st.Shared != img.FrameCount()-dirty {
			t.Fatalf("%s shared = %d, want %d", c.Name_, st.Shared, img.FrameCount()-dirty)
		}
		if !c.IdleParked() {
			t.Fatalf("%s did not re-park after writing", c.Name_)
		}
	}
	// A written frame lost both share refs but stays allocated: the image
	// pin holds it.
	paW := img.Regions[1].PA
	if r := k.Bus.Refs(paW); r != 0 {
		t.Fatalf("dirtied frame refs = %d, want 0", r)
	}
	if !k.Bus.Allocated(paW) || !k.Bus.Pinned(paW) {
		t.Fatal("dirtied template frame must survive via the image pin")
	}

	// Destroy c1: its delegated capability dies by generation bump, and
	// its share references drop.
	if err := k.DestroyClone(c1); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Space.Lookup(sel, capspace.ObjPD, capspace.RightCall); err != capspace.ErrRevoked {
		t.Fatalf("post-destroy lookup = %v, want ErrRevoked", err)
	}
	if r := k.Bus.Refs(pa0); r != 1 {
		t.Fatalf("refs = %d after one destroy, want 1", r)
	}

	// Release the image: pa0 is still referenced by c2, so it must
	// survive the unpin.
	k.ReleaseImage(img)
	if k.Bus.Pinned(pa0) {
		t.Fatal("frame still pinned after ReleaseImage")
	}
	if !k.Bus.Allocated(pa0) {
		t.Fatal("frame reclaimed while a clone still references it")
	}

	// Last reference: the frame is finally reclaimed.
	if err := k.DestroyClone(c2); err != nil {
		t.Fatal(err)
	}
	if r := k.Bus.Refs(pa0); r != 0 {
		t.Fatalf("refs = %d after both destroys, want 0", r)
	}
	if k.Bus.Allocated(pa0) {
		t.Fatal("unreferenced, unpinned frame not reclaimed")
	}

	// Both arenas returned to the free list; a new fork recycles one
	// instead of growing the region.
	if alloc, free := k.CloneArenaStats(); alloc != 0 || free != 2 {
		t.Fatalf("arena stats after teardown = %d/%d, want 0 allocated, 2 free", alloc, free)
	}
}

// TestCloneArenaRecycling forks through more clones than the region
// would hold without the free list giving arenas back.
func TestCloneArenaRecycling(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	_, img := bootFrozenTemplate(t, k, false)
	defer k.ReleaseImage(img)
	for i := 0; i < 4; i++ {
		c := k.CreateClone(img, "c", cloneWriter("c", 1))
		if err := k.DestroyClone(c); err != nil {
			t.Fatal(err)
		}
	}
	if alloc, free := k.CloneArenaStats(); alloc != 0 || free != 1 {
		t.Fatalf("arena stats = %d allocated / %d free, want 0/1 (recycled)", alloc, free)
	}
}

// TestFrozenCloneStaysParked: a warm-pool shelf item must not wake on
// injections — only ActivateClone makes it runnable.
func TestFrozenCloneStaysParked(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	_, img := bootFrozenTemplate(t, k, false)
	defer k.ReleaseImage(img)
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
	defer k.ReleaseImage(img)
	before := k.Clock.Now()
	c := k.CreateClone(img, "c", cloneWriter("c", 0))
	defer k.DestroyClone(c)
	want := simclock.Cycles(CostCloneBase + img.FrameCount()*CostClonePerFrame)
	if d := k.Clock.Now() - before; d != want {
		t.Fatalf("fork charged %d cycles, want %d", d, want)
	}
}

// TestForkDestroyRestoresRefs: forking and destroying any image Validate
// accepts leaves every image frame's share count where it was. One
// candidate maps two frames at the same VA; a fork of it would share
// both frames while its table can reference only one, so teardown would
// leak the other's reference — Validate must reject it.
func TestForkDestroyRestoresRefs(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	_, img := bootFrozenTemplate(t, k, false)
	defer k.ReleaseImage(img)
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
		var before []int
		cand.EachFrame(func(_ uint32, pa physmem.Addr) { before = append(before, k.Bus.Refs(pa)) })
		c := k.CreateClone(cand, "c", cloneWriter("c", 0))
		if err := k.DestroyClone(c); err != nil {
			t.Fatal(err)
		}
		i := 0
		cand.EachFrame(func(va uint32, pa physmem.Addr) {
			if got := k.Bus.Refs(pa); got != before[i] {
				t.Errorf("%d regions: frame va %#x pa %#x refs = %d after fork+destroy, want %d",
					len(cand.Regions), va, uint32(pa), got, before[i])
			}
			i++
		})
	}
	if accepted == 0 {
		t.Fatal("Validate rejected the captured image")
	}
}

// BenchmarkCreateClone is the fork path's host cost: fork a clone of the
// 4 MB checkpoint image and destroy it again, so every iteration reuses
// the same recycled arena.
func BenchmarkCreateClone(b *testing.B) {
	k := NewKernel()
	defer k.Shutdown()
	_, img := bootFrozenTemplate(b, k, false)
	defer k.ReleaseImage(img)
	g := cloneWriter("c", 0)
	b.ReportAllocs()
	for b.Loop() {
		c := k.CreateClone(img, "c", g)
		if err := k.DestroyClone(c); err != nil {
			b.Fatal(err)
		}
	}
}
