package nova

import (
	"fmt"

	"repro/internal/abi"
	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/mmu"
	"repro/internal/physmem"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Copy-on-write VM cloning. A booted, quiesced guest is checkpointed
// into an immutable checkpoint.Image; forks materialize new PDs in
// O(metadata): the clone's page table maps the template's frames
// read-only, and the first write through any such mapping takes a
// permission fault the kernel resolves by copying the frame into the
// clone's private arena and remapping it writable (cowBreak). An image
// and its frames live as long as the kernel; each clone counts the
// frames it still shares (cloneState.shared). Capabilities are never
// copied — a clone's table is re-minted from the image's boot-grant bits
// with a fresh-generation self object, so revoking or destroying a clone
// kills every delegation of its identity without touching its siblings
// or the template.

// Fork-path cycle costs. The O(metadata) claim is concrete: a fork
// charges a fixed base (PD descriptor, vGIC rebuild, scheduler insert)
// plus a per-frame term for writing one read-only small-page descriptor
// per shared frame — no byte of guest memory moves until a clone writes.
const (
	// CostCloneBase covers the fixed fork work.
	CostCloneBase = 2000
	// CostClonePerFrame is the page-table descriptor write per shared
	// frame. It models the descriptor writes of a kernel that builds each
	// clone's table; the host no longer performs them one by one (only an
	// image's first clone is built that way, cloneTable), but the charge
	// stays, so no simulated figure depends on how the host builds tables.
	CostClonePerFrame = 4
	// CostCloneActivate covers taking a warm clone off the shelf:
	// unfreezing, arming the virtual timer, the runqueue insert.
	CostCloneActivate = 300
	// CostCOWCopy is the 4 KB frame copy of a COW break (data move at
	// roughly one word per cycle through the write buffer).
	CostCOWCopy = 2048
)

// Clone arenas: each clone owns a slice of DDR holding its page tables
// and its privately-copied frames, taken from the DDR cursor at its fork
// and aligned to the L2's way, so an arena's cache sets do not depend on
// what the cursor placed before it. Arenas are recycled LIFO through a
// free list, so a long-running warm pool reuses the same physical
// footprint however many clones churn through.
const (
	cloneArenaSize  = 512 << 10 // 24 KB of tables + ~120 COW frames
	cloneArenaAlign = 64 << 10  // the L2's way: 512 KB in 8 ways
)

// cloneState is the per-clone kernel bookkeeping.
type cloneState struct {
	img       *checkpoint.Image
	arena     *mmu.FrameAllocator
	arenaBase physmem.Addr

	// COW counters (deterministic; folded into scenario checksums).
	cowFaults uint64
	copied    uint64
	shared    int
}

// CloneStats is a read-only view of a clone's COW activity.
type CloneStats struct {
	// COWFaults counts write-permission faults resolved as COW breaks.
	COWFaults uint64
	// Copied is the number of frames privately copied into the arena.
	Copied uint64
	// Shared is the number of frames still mapped from the template.
	Shared int
}

// CloneStats returns pd's COW counters; ok is false for non-clones.
func (pd *PD) CloneStats() (CloneStats, bool) {
	if pd.clone == nil {
		return CloneStats{}, false
	}
	return CloneStats{COWFaults: pd.clone.cowFaults, Copied: pd.clone.copied, Shared: pd.clone.shared}, true
}

// IdleParked reports whether the PD is blocked in paravirtualized idle —
// the quiescence point checkpoints require.
func (pd *PD) IdleParked() bool { return pd.idleWaiting }

// Frozen reports whether the PD is a frozen template or warm clone.
func (pd *PD) Frozen() bool { return pd.frozen }

// allocCloneArena hands clone name an arena, recycling reaped ones
// first; a fresh one comes from the DDR cursor.
func (k *Kernel) allocCloneArena(name string) physmem.Addr {
	if n := len(k.cloneArenaFree); n > 0 {
		a := k.cloneArenaFree[n-1]
		k.cloneArenaFree = k.cloneArenaFree[:n-1]
		return a
	}
	return k.takeDDR("arena of clone", name, cloneArenaSize, cloneArenaAlign, 0)
}

// Checkpoint serializes a quiesced PD into an immutable image: vCPU
// registers and CP15 state, virtual-timer phase, vGIC record list and
// queued injections, execution-context micro-state, the boot-grant bits
// (capabilities are re-minted on restore, never copied), and the guest's
// memory as a frame set, every frame of it materialized. The image lives
// as long as the kernel. withContents additionally captures every frame's
// bytes, which an in-place restore needs; forks do not. The software
// inside the PD is the caller's to capture (ucos.OS.Snapshot) and to hand
// to the guest that resumes the image.
//
// Checkpoint is an out-of-band observer: it charges no simulated cycles,
// so a timeline that checkpoints and one that doesn't stay byte-equal.
func (k *Kernel) Checkpoint(pd *PD, withContents bool) (*checkpoint.Image, error) {
	if !pd.idleWaiting {
		return nil, fmt.Errorf("nova: checkpoint of %s: PD not parked in paravirtualized idle", pd.Name_)
	}
	if pd.clone != nil {
		return nil, fmt.Errorf("nova: checkpoint of %s: checkpointing a clone is unsupported", pd.Name_)
	}
	img := &checkpoint.Image{
		Priority:    pd.Priority,
		CapBits:     uint32(pd.Caps),
		CodeBase:    pd.Env.Ctx.CodeBase,
		CodeSize:    pd.Env.Ctx.CodeSize,
		VCPU:        pd.VCPU.VCPUState,
		LastHcEntry: pd.lastHcEntry,
		Exec:        pd.Env.Ctx.ExecState,
	}
	// While the PD is resident the live CPU holds its register file and
	// DACR; otherwise the last world switch saved them into the vCPU.
	if pd.Core.Current == pd {
		img.VCPU.Regs, img.VCPU.DACR = pd.Core.CPU.Regs, pd.Core.CPU.CP15Read(cpu.CP15DACR)
	}
	// Virtual-timer phase: idle keeps the timer live, so the remaining
	// time usually sits in the armed event rather than timerRemaining.
	if pd.vtimer.Queued() {
		img.TimerRemaining = since(pd.vtimer.When, pd.Core.Clock.Now())
	} else {
		img.TimerRemaining = pd.timerRemaining
	}
	img.VGIC, img.VGICPending = pd.VGIC.snapshotLines()

	img.Regions = guestRegions(pd.RAMBase)
	if err := img.Validate(); err != nil {
		return nil, err
	}
	// Materialize the template's frames, which the frozen template never
	// writes again and clones only read: clones on two cores then never
	// race the bus's lazy slot store for a frame no one touched yet.
	img.EachFrame(func(_ uint32, pa physmem.Addr) { k.Bus.Materialize(pa) })
	if withContents {
		img.Frames = make([]checkpoint.Frame, 0, img.FrameCount())
		img.EachFrame(func(_ uint32, pa physmem.Addr) {
			img.Frames = append(img.Frames, checkpoint.Frame{PA: pa, Data: k.Bus.CaptureFrame(pa)})
		})
	}
	return img, nil
}

// Freeze parks a checkpointed template for good: its virtual timer is
// cancelled and wake() drops every injection, so the template's frames
// stay byte-immutable under its clones. Only Shutdown releases it.
func (k *Kernel) Freeze(pd *PD) error {
	if !pd.idleWaiting {
		return fmt.Errorf("nova: freeze of %s: PD not parked in paravirtualized idle", pd.Name_)
	}
	k.parkVirtualTimer(pd)
	pd.frozen = true
	return nil
}

// CreateClone forks a new PD named name from a checkpoint image in
// O(metadata): page-table construction and one read-only descriptor per
// shared frame — no guest bytes move. On the host, every fork after the
// image's first copies a captured table instead (cloneTable), sharing
// its frames until the clone writes them. guest is the host-side guest that
// resumes the captured software. The clone is born frozen (a warm-shelf
// item) and may run on any core; ActivateClone makes it runnable. Its
// capability table is re-minted from the image's grant bits with a
// fresh-generation self object; it is deliberately NOT registered as a
// hardware-service client (clones are compute workers, and client-handle
// windows are a bounded boot-time resource). A fresh arena comes from the
// DDR cursor, so it panics once DDR is full.
func (k *Kernel) CreateClone(img *checkpoint.Image, name string, guest Guest) *PD {
	arenaBase := k.allocCloneArena(name)
	arena := mmu.NewFrameAllocator(arenaBase, cloneArenaSize)
	// The clone has no private RAM block: RAMSize 0 refuses HcMapPage &
	// friends, which would alias shared frames writable.
	pd := k.newPD(name, img.Priority, Capability(img.CapBits), k.cloneTable(img, arena), guest)
	shared := img.FrameCount()
	pd.clone = &cloneState{img: img, arena: arena, arenaBase: arenaBase, shared: shared}
	// The template was captured parked in paravirtualized idle; the clone
	// resumes from exactly that state, frozen until ActivateClone.
	pd.frozen, pd.idleWaiting = true, true
	pd.lastHcEntry, pd.timerRemaining = img.LastHcEntry, img.TimerRemaining
	pd.VCPU = VCPU{VCPUState: img.VCPU, TTBR: uint32(pd.Table.Base), ASID: pd.ASID}
	k.startPD(pd, 0, img.CodeBase, img.CodeSize)
	pd.Env.Ctx.ExecState = img.Exec
	pd.VGIC.restoreLines(img.VGIC, img.VGICPending)
	// The O(metadata) fork charge: fixed base + one descriptor write per
	// shared frame. Charged on the boot core's clock — forks happen at
	// engine-stopped points (shelf operations), like boot-time CreatePD.
	k.Clock.Advance(CostCloneBase + simclock.Cycles(shared)*CostClonePerFrame)
	return pd
}

// cloneTable builds a clone's page table in arena. The image's first
// clone builds it descriptor by descriptor and captures it: the image's
// regions, user-read-only, which turns a clone write into the permission
// fault cowBreak resolves. Every later clone instantiates the capture,
// which shares the captured frames on the host and writes only the L1
// entries that point at the clone's own L2 tables.
func (k *Kernel) cloneTable(img *checkpoint.Image, arena *mmu.FrameAllocator) *mmu.PageTable {
	if ti := k.cloneTables[img]; ti != nil {
		return ti.Instantiate(arena)
	}
	pt := guestTable(k.Bus, arena, img.Regions, mmu.APUserRO)
	if k.cloneTables == nil {
		k.cloneTables = map[*checkpoint.Image]*mmu.TableImage{}
	}
	k.cloneTables[img] = mmu.CaptureTable(pt)
	return pt
}

// ActivateClone takes a frozen clone off the shelf: it thaws, re-arms
// the captured virtual-timer phase and wakes with the image's pending
// injections — the clone continues the template's timeline from the
// quiesce point, in its own address space.
func (k *Kernel) ActivateClone(pd *PD) error {
	if pd.clone == nil {
		return fmt.Errorf("nova: activate of non-clone %s", pd.Name_)
	}
	if pd.dead {
		return fmt.Errorf("nova: activate of destroyed clone %s", pd.Name_)
	}
	if !pd.frozen {
		return fmt.Errorf("nova: activate of already-active clone %s", pd.Name_)
	}
	pd.frozen = false
	k.armVirtualTimer(pd)
	if pd.VGIC.HasPending() {
		k.wake(pd)
	}
	k.Clock.Advance(CostCloneActivate)
	return nil
}

// DestroyClone tears a clone down: the guest coroutine is stopped (its
// nested task coroutines unwind with it), the PD is retired from
// scheduling, its self object's generation is bumped so every delegated
// capability to it dies (capspace revocation), it shares no frame any
// more, and its arena and kernel-data slot return to their free lists for
// the next fork. Must run at an engine-stopped point.
//
// The dead clone stays in Kernel.PDs, whose index is its ID, with what
// the tracer and the reports read: its name, core, counters, vGIC, clone
// counters and capability stats and count. Everything only a live clone
// uses is dropped, so a shelf that reaps thousands of clones holds under
// 1 KB for each.
func (k *Kernel) DestroyClone(pd *PD) error {
	if pd.clone == nil {
		return fmt.Errorf("nova: destroy of non-clone %s", pd.Name_)
	}
	if pd.dead {
		return fmt.Errorf("nova: destroy of dead clone %s", pd.Name_)
	}
	pd.stop()
	pd.dead = true
	k.parkVirtualTimer(pd)
	if k.Sched.Unplace(&pd.node) {
		k.traceSched(trace.KindSchedBlock, pd)
	}
	if pd.Core.Current == pd {
		pd.Core.Current = nil
	}
	k.failPortalCallers(pd)
	k.reconfigPurge(pd)
	// Generation revocation: every capability minted from the clone's
	// self object — wherever it was delegated — is dead after this.
	pd.Space.RevokeObject(SelSelf)
	// The clone's private copies live in the arena and die with it.
	pd.clone.shared = 0
	k.cloneArenaFree = append(k.cloneArenaFree, pd.clone.arenaBase)
	k.kdataFree = append(k.kdataFree, pd.kdata)
	pd.Space.Retire()
	pd.clone.arena, pd.selfObj, pd.Table, pd.Guest, pd.Env = nil, nil, nil, nil, nil
	pd.next, pd.stop, pd.yield = nil, nil, nil
	pd.VGIC.Entry = nil
	return nil
}

// cowBreak resolves a clone's write-permission fault on a shared frame:
// copy the frame into the clone's arena, remap the page writable in
// place, flush the stale TLB entry. Returns true so the faulting access
// retries against the private copy. Runs on the clone's own core inside
// its fault path, so parallel engines break COW concurrently on different
// clones: each writes only its own arena, table and counters.
func (k *Kernel) cowBreak(c *CoreCtx, pd *PD, f *mmu.Fault) bool {
	page := f.VA &^ (physmem.FrameSize - 1)
	src, _, ap, ok := pd.Table.Lookup(page)
	if !ok || ap != mmu.APUserRO {
		return false // a genuine permission offence (e.g. kernel page)
	}
	dst, ok := pd.clone.arena.TryAlloc(physmem.FrameSize, physmem.FrameSize)
	if !ok {
		return false // arena full: an unrecovered abort like any other
	}
	c.kctx.Exec(30) // fault decode + COW bookkeeping
	k.Bus.CopyFrame(dst, src)
	c.Clock.Advance(CostCOWCopy)
	pd.Table.RemapPage(page, dst, mmu.APFull)
	k.chargePTEdit(c, pd, page)
	c.CPU.CP15Write(cpu.CP15TLBIMVA, page)
	pd.clone.cowFaults++
	pd.clone.copied++
	pd.clone.shared--
	return true
}

// ResumeSuspendExit replays, on a restored or cloned guest, the tail of
// the HcSuspend hypercall the template was parked in when captured: the
// uninterrupted timeline unwinds through the kernel's SWI epilogue
// (probe sample, trace span, exception-return charge, register
// restore), so the resumed one must perform the identical sequence for
// the two timelines to stay byte-equal. Call once, before entering the
// guest's normal run loop.
func (e *Env) ResumeSuspendExit() {
	k, pd := e.K, e.PD
	c := pd.Core
	pd.idleWaiting = false
	c.CPU.Mode, c.CPU.IRQMasked = cpu.ModeSVC, true
	k.hotSpan(c, hotHypercall, pd.lastHcEntry, uint64(abi.HcSuspend), uint64(abi.StatusOK))
	c.Clock.Advance(cpu.CostExceptionReturn)
	c.CPU.Regs = pd.VCPU.Regs
	c.CPU.Regs.R[0] = abi.StatusOK
	c.CPU.Mode, c.CPU.IRQMasked = cpu.ModeUSR, false
}

// RestoreInPlace rewinds a live, idle-parked PD to a withContents image:
// the guest coroutine is replaced, every captured frame's bytes are
// reloaded, and vCPU/vGIC/context state is rewritten. Like Checkpoint it
// is an out-of-band operation charging no cycles — the restored timeline
// continues byte-identically to one that never stopped, which the
// checkpoint regression test asserts. The virtual timer is left alone
// when its armed expiry already matches the image's phase (the common
// immediate-restore case), so the event queue's insertion order is
// untouched.
func (k *Kernel) RestoreInPlace(pd *PD, img *checkpoint.Image, guest Guest) error {
	if pd.dead {
		return fmt.Errorf("nova: in-place restore of dead %s", pd.Name_)
	}
	if !pd.idleWaiting {
		return fmt.Errorf("nova: in-place restore of %s: PD not parked in paravirtualized idle", pd.Name_)
	}
	if len(img.Frames) == 0 {
		return fmt.Errorf("nova: in-place restore needs a withContents image")
	}
	// Stop the current guest coroutine (its nested task coroutines unwind
	// with it) and respawn with the restored guest.
	pd.stop()
	for _, f := range img.Frames {
		k.Bus.InstallFrame(f.PA, f.Data)
	}
	pd.VCPU.VCPUState = img.VCPU
	if pd.Core.Current == pd {
		pd.Core.CPU.Regs = img.VCPU.Regs
	}
	pd.Env.Ctx.ExecState = img.Exec
	pd.VGIC.restoreLines(img.VGIC, img.VGICPending)
	pd.lastHcEntry = img.LastHcEntry
	want := pd.Core.Clock.Now() + img.TimerRemaining
	if !pd.vtimer.Queued() || pd.vtimer.When != want {
		k.parkVirtualTimer(pd)
		pd.timerRemaining = img.TimerRemaining
		k.armVirtualTimer(pd)
	}
	pd.Guest = guest
	k.spawn(pd)
	return nil
}
