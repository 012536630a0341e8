package nova

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/physmem"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// TestFrameTableEndsAtCarvedRAM: the bus's frame table covers the RAM the
// kernel carved, its own regions and each PD's, and ends with the last
// PD's RAM, before the PDs run and after: a kernel with two PDs holds no
// table entry for the rest of DDR.
func TestFrameTableEndsAtCarvedRAM(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	a := k.CreatePD(PDConfig{Name: "a", Priority: PrioGuest, Guest: pageStorer(4, false)})
	b := k.CreatePD(PDConfig{Name: "b", Priority: PrioGuest, Guest: pageStorer(4, false)})
	end := b.RAMBase + physmem.Addr(b.RAMSize)
	check := func(when string) {
		t.Helper()
		for _, c := range []struct {
			what string
			a    physmem.Addr
			want bool
		}{
			{"kernel text", physKernelCode, true},
			{"page-table pool", physTables, true},
			{"bitstream store's last byte", physGuests - 1, true},
			{"a's RAM", a.RAMBase, true},
			{"b's last byte", end - 1, true},
			{"the byte after b's RAM", end, false},
			{"the clone region", physCloneArenas, false},
		} {
			if got := k.Bus.Covers(c.a); got != c.want {
				t.Fatalf("%s: table covers %s (%#x): %v, want %v", when, c.what, uint32(c.a), got, c.want)
			}
		}
	}
	check("before the run")
	k.RunFor(simclock.FromMillis(2))
	check("after the run")
}

// pageStorer stores i+1 into the first word of each of the first n guest
// user pages, then parks in paravirtualized idle. resume replays the
// suspend exit a clone resumes from.
func pageStorer(n int, resume bool) Guest {
	return &scriptGuest{"storer", func(env *Env) {
		if resume {
			env.ResumeSuspendExit()
		}
		for i := range n {
			if err := env.Ctx.Store32(GuestUserBase+uint32(i)*physmem.FrameSize, uint32(i)+1); err != nil {
				panic(err)
			}
			env.CheckPreempt()
		}
		for {
			env.Hypercall(abi.HcSuspend, 1)
			env.CheckPreempt()
		}
	}}
}

// TestCarvedRegionsTwoShards runs two shards whose cores touch, for the
// first time, frames of regions carved just before the run: a PD created
// between two RunParallelFor calls stores into its RAM on one core, and
// the clone forked between them, the kernel's first, copies frames into
// the clone region on the other. Each carve covers its region before the
// run, so no core grows the frame table while the other reads it (CI runs
// this under -race).
func TestCarvedRegionsTwoShards(t *testing.T) {
	const pages = 8
	k := NewKernelSMP(2)
	defer k.Shutdown()
	_, img := bootFrozenTemplate(t, k, false)
	k.RunParallelFor(simclock.FromMillis(1), 2)

	clone := k.CreateClone(img, "clone", pageStorer(pages, true))
	if err := k.ActivateClone(clone); err != nil {
		t.Fatal(err)
	}
	other := 1 - clone.Core.ID
	fresh := k.CreatePD(PDConfig{Name: "fresh", Priority: PrioGuest,
		Affinity: sched.MaskOf(other), Guest: pageStorer(pages, false)})
	if fresh.Core.ID != other {
		t.Fatalf("fresh PD on core %d, want %d", fresh.Core.ID, other)
	}
	for _, r := range []struct {
		what string
		base physmem.Addr
		size uint32
	}{
		{"fresh PD's RAM", fresh.RAMBase, fresh.RAMSize},
		{"clone arena", clone.clone.arenaBase, cloneArenaSize},
	} {
		for _, a := range []physmem.Addr{r.base, r.base + physmem.Addr(r.size) - 1} {
			if !k.Bus.Covers(a) {
				t.Fatalf("%s byte %#x is not in the frame table before the run", r.what, uint32(a))
			}
		}
	}
	k.RunParallelFor(simclock.FromMillis(4), 2)

	if st, _ := clone.CloneStats(); st.COWFaults != pages {
		t.Fatalf("clone COW faults = %d, want %d", st.COWFaults, pages)
	}
	for _, pd := range []*PD{fresh, clone} {
		for i := range pages {
			va := GuestUserBase + uint32(i)*physmem.FrameSize
			pa, _, _, ok := pd.Table.Lookup(va)
			if !ok {
				t.Fatalf("%s: va %#x unmapped", pd.Name_, va)
			}
			if v, err := k.Bus.Read32(pa); err != nil || v != uint32(i)+1 {
				t.Fatalf("%s: page %d (pa %#x) reads %d, %v; want %d", pd.Name_, i, uint32(pa), v, err, i+1)
			}
		}
	}
}
