package nova

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/checkpoint"
	"repro/internal/physmem"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// TestFrameTableEndsAtCarvedRAM: the bus's frame table covers the RAM the
// kernel carved, its own regions and each PD's, and ends with the last
// PD's RAM, before the PDs run and after: a kernel with two PDs holds no
// table entry for the rest of DDR. A fork carves its arena, and the table
// then ends with that arena.
func TestFrameTableEndsAtCarvedRAM(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	a := k.CreatePD(PDConfig{Name: "a", Priority: PrioGuest, Guest: pageStorer(4, false)})
	b := k.CreatePD(PDConfig{Name: "b", Priority: PrioGuest, Guest: pageStorer(4, false)})
	end := b.RAMBase + physmem.Addr(b.RAMSize)
	type row struct {
		what string
		a    physmem.Addr
		want bool
	}
	check := func(when string, rows ...row) {
		t.Helper()
		for _, c := range rows {
			if got := k.Bus.Covers(c.a); got != c.want {
				t.Fatalf("%s: table covers %s (%#x): %v, want %v", when, c.what, uint32(c.a), got, c.want)
			}
		}
	}
	carved := []row{
		{"kernel text", physKernelCode, true},
		{"page-table pool", physTables, true},
		{"bitstream store's last byte", physGuests - 1, true},
		{"a's RAM", a.RAMBase, true},
		{"b's last byte", end - 1, true},
	}
	pds := append(carved, row{"the byte after b's RAM", end, false})
	check("before the run", pds...)
	k.RunFor(simclock.FromMillis(2))
	check("after the run", pds...)

	img, err := k.Checkpoint(b, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Freeze(b); err != nil {
		t.Fatal(err)
	}
	arenaEnd := k.CreateClone(img, "c", cloneWriter("c", 0)).clone.arenaBase + cloneArenaSize
	check("after a fork", append(carved,
		row{"the arena's last byte", arenaEnd - 1, true},
		row{"the byte after the arena", arenaEnd, false})...)
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
// between two RunParallelFor calls stores into its RAM on one core, and a
// clone forked between them, the kernel's second, copies frames into its
// arena on the other. Each carve covers its region before the run, so no
// core grows the frame table while the other reads it (CI runs this under
// -race).
func TestCarvedRegionsTwoShards(t *testing.T) {
	const pages = 8
	k := NewKernelSMP(2)
	defer k.Shutdown()
	_, img := bootFrozenTemplate(t, k, false)
	first := k.CreateClone(img, "first", pageStorer(pages, true))
	if err := k.ActivateClone(first); err != nil {
		t.Fatal(err)
	}
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

	for _, c := range []*PD{first, clone} {
		if st, _ := c.CloneStats(); st.COWFaults != pages {
			t.Fatalf("%s COW faults = %d, want %d", c.Name_, st.COWFaults, pages)
		}
	}
	for _, pd := range []*PD{first, fresh, clone} {
		checkStored(t, k, pd, pages)
	}
}

// owned returns the DDR range pd owns: a live clone's arena, or a PD's
// RAM (empty for a destroyed clone).
func owned(pd *PD) (lo, hi uint64) {
	if pd.clone != nil {
		if pd.dead {
			return 0, 0
		}
		return uint64(pd.clone.arenaBase), uint64(pd.clone.arenaBase) + cloneArenaSize
	}
	return uint64(pd.RAMBase), uint64(pd.RAMBase) + uint64(pd.RAMSize)
}

// checkOwnsRAM fails unless the range pd owns lies in DDR above the
// kernel's own regions and overlaps no other PD's RAM and no live
// clone's arena.
func checkOwnsRAM(t *testing.T, k *Kernel, pd *PD) {
	t.Helper()
	lo, hi := owned(pd)
	if lo < uint64(physGuests) || hi > uint64(physmem.DDRBase)+physmem.DDRSize {
		t.Fatalf("%s's RAM %#x-%#x lies outside DDR's guest part %#x-%#x",
			pd.Name_, lo, hi, uint32(physGuests), uint64(physmem.DDRBase)+physmem.DDRSize)
	}
	for _, o := range k.PDs {
		if base, end := owned(o); o != pd && base < hi && lo < end {
			t.Fatalf("%s's RAM %#x-%#x overlaps %s's %#x-%#x", pd.Name_, lo, hi, o.Name_, base, end)
		}
	}
}

// checkStored fails unless each of pd's first n guest user pages, mapped
// into its own RAM, reads back the i+1 pageStorer wrote there.
func checkStored(t *testing.T, k *Kernel, pd *PD, n int) {
	t.Helper()
	for i := range n {
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

// TestLatePDOwnsItsRAM: a PD created after n clones of one frozen
// template, on a kernel with no manager, gets RAM in DDR that no other PD
// and no live clone owns, and its guest's stores read back after a run.
// Clones take PD IDs but no guest RAM: the counts straddle where RAM
// placed by PD ID would cover the first clone arena (69) and run past
// DDR's end (120).
func TestLatePDOwnsItsRAM(t *testing.T) {
	const pages = 8
	for _, n := range []int{68, 69, 120, 300} {
		t.Run(fmt.Sprintf("clones=%d", n), func(t *testing.T) {
			k := NewKernel()
			defer k.Shutdown()
			_, img := bootFrozenTemplate(t, k, false)
			for i := range n {
				k.CreateClone(img, fmt.Sprintf("c%d", i), cloneWriter("c", 0))
			}
			late := k.CreatePD(PDConfig{Name: "late", Priority: PrioGuest, Guest: pageStorer(pages, false)})
			checkOwnsRAM(t, k, late)
			k.RunFor(simclock.FromMillis(1))
			checkStored(t, k, late, pages)
		})
	}
}

// TestLatePDTwoShards is TestLatePDOwnsItsRAM's two-core case: after 120
// clones, a late PD and a clone forked just before it, homed on different
// cores, store into the PD's RAM and the clone's arena in one 2-shard run
// (CI runs this under -race).
func TestLatePDTwoShards(t *testing.T) {
	const clones, pages = 120, 8
	k := NewKernelSMP(2)
	defer k.Shutdown()
	_, img := bootFrozenTemplate(t, k, false)
	for i := range clones {
		k.CreateClone(img, fmt.Sprintf("c%d", i), cloneWriter("c", 0))
	}
	clone := k.CreateClone(img, "writer", pageStorer(pages, true))
	if err := k.ActivateClone(clone); err != nil {
		t.Fatal(err)
	}
	other := 1 - clone.Core.ID
	late := k.CreatePD(PDConfig{Name: "late", Priority: PrioGuest,
		Affinity: sched.MaskOf(other), Guest: pageStorer(pages, false)})
	if late.Core.ID != other {
		t.Fatalf("late PD on core %d, want %d", late.Core.ID, other)
	}
	checkOwnsRAM(t, k, late)
	k.RunParallelFor(simclock.FromMillis(1), 2)

	if st, _ := clone.CloneStats(); st.COWFaults != pages {
		t.Fatalf("clone COW faults = %d, want %d", st.COWFaults, pages)
	}
	checkStored(t, k, late, pages)
	checkStored(t, k, clone, pages)
}

// panicOf runs f and returns the message it panicked with, or "".
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestDDRFullPanicsAtTheCall fills DDR from the cursor with PDs, and on a
// fresh kernel with clones of one template: the CreatePD or CreateClone
// that no longer fits panics at the call, naming DDR, and everything
// placed before it owns RAM in DDR that no one else does. DDR above the
// kernel's regions, 480 MB, holds 118 PDs at a 4 MB + 68 KB stride, or
// beside one template 951 arenas of 512 KB.
func TestDDRFullPanicsAtTheCall(t *testing.T) {
	for _, c := range []struct {
		what  string
		fits  int
		place func(k *Kernel, img *checkpoint.Image, i int)
	}{
		{"PDs", 118, func(k *Kernel, _ *checkpoint.Image, i int) {
			k.CreatePD(PDConfig{Name: fmt.Sprintf("pd%d", i), Priority: PrioGuest, Guest: pageStorer(0, false)})
		}},
		{"clones", 951, func(k *Kernel, img *checkpoint.Image, i int) {
			k.CreateClone(img, fmt.Sprintf("c%d", i), cloneWriter("c", 0))
		}},
	} {
		t.Run(c.what, func(t *testing.T) {
			k := NewKernel()
			defer k.Shutdown()
			var img *checkpoint.Image
			if c.what == "clones" {
				_, img = bootFrozenTemplate(t, k, false)
			}
			before := len(k.PDs)
			var msg string
			for i := 0; msg == "" && i <= c.fits; i++ {
				msg = panicOf(func() { c.place(k, img, i) })
			}
			if placed := len(k.PDs) - before; placed != c.fits || msg == "" {
				t.Fatalf("placed %d %s, then panic %q; want %d placed, then a panic", placed, c.what, msg, c.fits)
			}
			t.Logf("after %d %s: %s", c.fits, c.what, msg)
			if !strings.Contains(msg, "DDR") {
				t.Fatalf("panic %q does not name DDR", msg)
			}
			for _, pd := range k.PDs {
				checkOwnsRAM(t, k, pd)
			}
		})
	}
}

// TestPageTablePoolFullPanicsAtTheCall fills the 8 MB page-table pool of
// a two-core kernel, where each PD's tables take a private 256 KB of it:
// 31 PDs fit beside the kernel's own table, and the 32nd CreatePD panics
// at the call, naming the PD and the pool.
func TestPageTablePoolFullPanicsAtTheCall(t *testing.T) {
	const fits = 31
	k := NewKernelSMP(2)
	defer k.Shutdown()
	before := len(k.PDs)
	var msg string
	for i := 0; msg == "" && i <= fits; i++ {
		msg = panicOf(func() {
			k.CreatePD(PDConfig{Name: fmt.Sprintf("pd%d", i), Priority: PrioGuest, Guest: pageStorer(0, false)})
		})
	}
	if placed := len(k.PDs) - before; placed != fits || msg == "" {
		t.Fatalf("placed %d PDs, then panic %q; want %d placed, then a panic", placed, msg, fits)
	}
	t.Logf("after %d PDs: %s", fits, msg)
	if want := fmt.Sprintf("PD %q", fmt.Sprintf("pd%d", fits)); !strings.Contains(msg, want) || !strings.Contains(msg, "8 MB page-table pool") {
		t.Fatalf("panic %q does not name %s and the 8 MB page-table pool", msg, want)
	}
}

// TestKernelDataSlotsStayInSection forks and destroys 1,100 clones of one
// template, keeping every hundredth, then forks three more clones and
// creates a PD. A destroyed clone keeps its ID, so the last IDs pass the
// section's 1,024 slots; still every live PD's kernel-data slot lies in
// the section, and no two live PDs share one.
func TestKernelDataSlotsStayInSection(t *testing.T) {
	const cycles = 1100
	k := NewKernel()
	defer k.Shutdown()
	_, img := bootFrozenTemplate(t, k, false)
	g := cloneWriter("c", 0)
	for i := range cycles {
		c := k.CreateClone(img, fmt.Sprintf("c%d", i), g)
		if i%100 != 0 {
			if err := k.DestroyClone(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := range 3 {
		k.CreateClone(img, fmt.Sprintf("late%d", i), g)
	}
	late := k.CreatePD(PDConfig{Name: "late", Priority: PrioGuest, Guest: pageStorer(0, false)})
	if late.ID < kdataSlots {
		t.Fatalf("the late PD has ID %d, want one past the %d slots", late.ID, kdataSlots)
	}
	holder := map[uint32]string{}
	for _, pd := range k.PDs {
		if pd.dead {
			continue
		}
		if off := pd.kdata - KernelDataVA; pd.kdata < KernelDataVA || off >= kdataSlots*kdataSlotSize || off%kdataSlotSize != 0 {
			t.Errorf("%s (ID %d): kernel-data slot %#x is not one of the %d slots at %#x", pd.Name_, pd.ID, pd.kdata, kdataSlots, uint32(KernelDataVA))
		}
		if other, ok := holder[pd.kdata]; ok {
			t.Errorf("%s and %s share the kernel-data slot %#x", other, pd.Name_, pd.kdata)
		}
		holder[pd.kdata] = pd.Name_
	}
	if len(holder) != 1+cycles/100+3+1 {
		t.Errorf("%d live PDs, want %d", len(holder), 1+cycles/100+3+1)
	}
}
