package nova

import (
	"fmt"

	"repro/internal/capspace"
	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/measure"
	"repro/internal/mmu"
	"repro/internal/physmem"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Copy-on-write VM cloning. A booted, quiesced guest is checkpointed
// into an immutable checkpoint.Image; forks materialize new PDs in
// O(metadata): the clone's page table maps the template's frames
// read-only, each frame carries a share reference, and the first write
// through any such mapping takes a permission fault the kernel resolves
// by copying the frame into the clone's private arena and remapping it
// writable (cowBreak). Capabilities are never copied — a clone's table
// is re-minted from the image's boot-grant bits with a fresh-generation
// self object, so revoking or destroying a clone kills every delegation
// of its identity without touching its siblings or the template.

// Fork-path cycle costs. The O(metadata) claim is concrete: a fork
// charges a fixed base (PD descriptor, vGIC rebuild, scheduler insert)
// plus a per-frame term for writing one read-only small-page descriptor
// per shared frame — no byte of guest memory moves until a clone writes.
const (
	// CostCloneBase covers the fixed fork work.
	CostCloneBase = 2000
	// CostClonePerFrame is the page-table descriptor write per shared frame.
	CostClonePerFrame = 4
	// CostCloneActivate covers taking a warm clone off the pool shelf:
	// unfreezing, arming the virtual timer, the runqueue insert.
	CostCloneActivate = 300
	// CostCOWCopy is the 4 KB frame copy of a COW break (data move at
	// roughly one word per cycle through the write buffer).
	CostCOWCopy = 2048
)

// Clone arenas: each clone owns a fixed slice of the clone region of
// DDR holding its page tables and its privately-copied frames. Arenas
// are recycled LIFO through a free list, so a long-running warm pool
// reuses the same physical footprint however many clones churn through.
const (
	physCloneArenas = physmem.DDRBase + 0x1400_0000
	cloneArenaSize  = 512 << 10 // 24 KB of tables + ~120 COW frames
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

// allocCloneArena hands out a clone arena, recycling reaped ones first.
func (k *Kernel) allocCloneArena() physmem.Addr {
	if n := len(k.cloneArenaFree); n > 0 {
		a := k.cloneArenaFree[n-1]
		k.cloneArenaFree = k.cloneArenaFree[:n-1]
		return a
	}
	if k.cloneArenaNext == 0 {
		k.cloneArenaNext = physCloneArenas
	}
	a := k.cloneArenaNext
	if uint64(a)+cloneArenaSize > uint64(physmem.DDRBase)+uint64(physmem.DDRSize) {
		panic("nova: clone arena region exhausted")
	}
	k.cloneArenaNext += cloneArenaSize
	return a
}

// Checkpoint serializes a quiesced PD into an immutable image: vCPU
// registers and CP15 state, virtual-timer phase, vGIC record list and
// queued injections, execution-context micro-state, the boot-grant bits
// (capabilities are re-minted on restore, never copied), and the guest's
// memory as a pinned frame set. withContents additionally captures every
// frame's bytes, which an in-place restore needs; forks do not. The
// guest's host-side snapshot (e.g. a ucos.Snapshot) rides along opaquely.
//
// Checkpoint is an out-of-band observer: it charges no simulated cycles,
// so a timeline that checkpoints and one that doesn't stay byte-equal.
func (k *Kernel) Checkpoint(pd *PD, guest any, withContents bool, name string) (*checkpoint.Image, error) {
	if !pd.idleWaiting {
		return nil, fmt.Errorf("nova: checkpoint of %s: PD not parked in paravirtualized idle", pd.Name_)
	}
	if pd.clone != nil {
		return nil, fmt.Errorf("nova: checkpoint of %s: checkpointing a clone is unsupported", pd.Name_)
	}
	img := &checkpoint.Image{
		Name:        name,
		CapturedAt:  k.Clock.Now(),
		Priority:    pd.Priority,
		CapBits:     uint32(pd.Caps),
		CodeBase:    pd.Env.Ctx.CodeBase,
		CodeSize:    pd.Env.Ctx.CodeSize,
		DACR:        pd.VCPU.DACR,
		VFP:         pd.VCPU.VFP,
		VFPValid:    pd.VCPU.VFPValid,
		L2Ctrl:      pd.VCPU.L2Ctrl,
		QuantumLeft: pd.VCPU.QuantumLeft,
		TimerPeriod: pd.VCPU.TimerPeriod,
		LastHcEntry: pd.lastHcEntry,
		Exec:        pd.Env.Ctx.SaveState(),
		Guest:       guest,
	}
	// Register file: the live CPU holds it while the PD is resident;
	// otherwise the last world switch saved it into the vCPU.
	if pd.Core.Current == pd {
		img.Regs = pd.Core.CPU.Regs
		img.DACR = pd.Core.CPU.CP15Read(cpu.CP15DACR)
	} else {
		img.Regs = pd.VCPU.Regs
	}
	// Virtual-timer phase: idle keeps the timer live, so the remaining
	// time usually sits in the armed event rather than timerRemaining.
	if pd.timerEvent != nil {
		img.TimerRemaining = since(pd.timerEvent.When, pd.Core.Clock.Now())
	} else {
		img.TimerRemaining = pd.timerRemaining
	}
	img.VGIC, img.VGICPending = pd.VGIC.snapshotLines()

	kernelPart := uint32(GuestRAMSize / 4)
	img.Regions = []checkpoint.Region{
		{VA: GuestKernelBase, PA: pd.RAMBase, Size: kernelPart, Domain: DomainGuestKernel},
		{VA: GuestUserBase, PA: pd.RAMBase + physmem.Addr(kernelPart), Size: GuestRAMSize - kernelPart, Domain: DomainGuestUser},
	}
	if err := img.Validate(); err != nil {
		return nil, err
	}
	// Pin the template's frames: they must survive (immutable, since the
	// template is frozen and clones map them read-only) for as long as
	// the image exists, however many clones come and go.
	img.EachFrame(func(_ uint32, pa physmem.Addr) { k.Bus.Pin(pa) })
	if withContents {
		img.Frames = make([]checkpoint.Frame, 0, img.FrameCount())
		img.EachFrame(func(_ uint32, pa physmem.Addr) {
			img.Frames = append(img.Frames, checkpoint.Frame{PA: pa, Data: k.Bus.SnapshotFrame(pa)})
		})
	}
	return img, nil
}

// ReleaseImage drops the image's pins. Frames still shared by live
// clones survive until their last reference; the rest are reclaimed.
func (k *Kernel) ReleaseImage(img *checkpoint.Image) {
	img.EachFrame(func(_ uint32, pa physmem.Addr) { k.Bus.Unpin(pa) })
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

// CloneConfig names what a fork needs beyond the image: the clone's
// identity and the host-side guest that resumes the snapshot.
type CloneConfig struct {
	Name     string
	Affinity sched.CPUMask
	Guest    Guest
}

// CreateClone forks a new PD from a checkpoint image in O(metadata):
// page-table construction and one read-only descriptor per shared frame
// — no guest bytes move. The clone is born frozen (a warm-pool shelf
// item); ActivateClone makes it runnable. Its capability table is
// re-minted from the image's grant bits with a fresh-generation self
// object; it is deliberately NOT registered as a hardware-service client
// (clones are compute workers, and client-handle windows are a bounded
// boot-time resource).
func (k *Kernel) CreateClone(img *checkpoint.Image, cfg CloneConfig) *PD {
	id := len(k.PDs)
	arenaBase := k.allocCloneArena()
	arena := mmu.NewFrameAllocator(arenaBase, cloneArenaSize)
	pt := mmu.NewPageTable(k.Bus, arena)
	mapKernelInto(pt)
	shared := img.FrameCount()
	cs := &cloneState{img: img, arena: arena, arenaBase: arenaBase, shared: shared}
	pd := &PD{
		ID:       id,
		Name_:    cfg.Name,
		Priority: img.Priority,
		Caps:     Capability(img.CapBits),
		Space:    capspace.NewSpace(SelGrantBase),
		VGIC:     NewVGIC(),
		Table:    pt,
		ASID:     k.nextASID(),
		RAMBase:  0, // no private RAM block: RAMSize 0 refuses HcMapPage &
		RAMSize:  0, // friends, which would alias shared frames writable
		Guest:    cfg.Guest,
		kdata:    KernelDataVA + uint32(id)*0x400,
		clone:    cs,
		frozen:   true,
		// The template was captured parked in paravirtualized idle; the
		// clone resumes from exactly that state.
		idleWaiting:    true,
		lastHcEntry:    img.LastHcEntry,
		timerRemaining: img.TimerRemaining,
	}
	// Map every template frame read-only and take a share reference, one
	// region at a time. The domain comes from the region; AP
	// user-read-only is what turns a clone write into the permission
	// fault cowBreak resolves.
	for _, r := range img.Regions {
		n := int(r.Size / physmem.FrameSize)
		pt.MapPages(r.VA, r.PA, n, r.Domain, mmu.APUserRO)
		k.Bus.ShareRange(r.PA, n)
	}
	k.populateCaps(pd, Capability(img.CapBits))
	pd.node = sched.NewNode(pd, img.Priority, cfg.Affinity)
	pd.Core = k.Cores[k.Sched.Place(&pd.node)]
	pd.VCPU = VCPU{
		Regs:        img.Regs,
		TTBR:        uint32(pt.Base),
		DACR:        img.DACR,
		ASID:        pd.ASID,
		TimerPeriod: img.TimerPeriod,
		VFP:         img.VFP,
		VFPValid:    img.VFPValid,
		L2Ctrl:      img.L2Ctrl,
		QuantumLeft: img.QuantumLeft,
	}
	ctx := cpu.NewExecContext(pd.Core.CPU, cfg.Name, img.CodeBase, img.CodeSize)
	pd.Env = &Env{K: k, PD: pd, Ctx: ctx}
	ctx.RestoreState(img.Exec)
	pd.VGIC.restoreLines(img.VGIC, img.VGICPending)
	k.spawn(pd)

	k.PDs = append(k.PDs, pd)
	if k.Tracer != nil {
		k.traceVGIC(pd)
	}
	// The O(metadata) fork charge: fixed base + one descriptor write per
	// shared frame. Charged on the boot core's clock — forks happen at
	// engine-stopped points (pool operations), like boot-time CreatePD.
	k.Clock.Advance(CostCloneBase + simclock.Cycles(shared)*CostClonePerFrame)
	return pd
}

// ActivateClone takes a frozen clone off the shelf: it thaws, re-arms
// the captured virtual-timer phase and wakes with the image's pending
// injections — the clone continues the template's timeline from the
// quiesce point, in its own address space.
func (k *Kernel) ActivateClone(pd *PD) error {
	if pd.clone == nil {
		return fmt.Errorf("nova: activate of non-clone %s", pd.Name_)
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
// capability to it dies (capspace revocation), every still-shared frame
// reference is released, and the arena returns to the free list for the
// next fork. Must run at an engine-stopped point.
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
	k.Sched.Unplace(&pd.node)
	if pd.Core.Current == pd {
		pd.Core.Current = nil
	}
	k.failPortalCallers(pd)
	k.reconfigPurge(pd)
	// Generation revocation: every capability minted from the clone's
	// self object — wherever it was delegated — is dead after this.
	pd.Space.RevokeObject(SelSelf)
	// Drop the share references of frames still mapped read-only; the
	// clone's private copies live in the arena and die with it.
	pd.clone.img.EachFrame(func(va uint32, pa physmem.Addr) {
		cur, _, ap, ok := pd.Table.Lookup(va)
		if ok && ap == mmu.APUserRO && cur == pa {
			k.Bus.Release(pa)
		}
	})
	pd.clone.shared = 0
	k.cloneArenaFree = append(k.cloneArenaFree, pd.clone.arenaBase)
	return nil
}

// cowBreak resolves a clone's write-permission fault on a shared frame:
// copy the frame into the clone's arena, remap the page writable in
// place, flush the stale TLB entry, release the share reference. Returns
// true so the faulting access retries against the private copy. Runs on
// the clone's own core inside its fault path, so parallel engines break
// COW concurrently on different clones without sharing state beyond the
// refcount table.
func (k *Kernel) cowBreak(c *CoreCtx, pd *PD, f *mmu.Fault) bool {
	page := f.VA &^ (physmem.FrameSize - 1)
	src, _, ap, ok := pd.Table.Lookup(page)
	if !ok || ap != mmu.APUserRO {
		return false // a genuine permission offence (e.g. kernel page)
	}
	c.kctx.Exec(30) // fault decode + COW bookkeeping
	dst := pd.clone.arena.Alloc(physmem.FrameSize, physmem.FrameSize)
	k.Bus.CopyFrame(dst, src)
	c.Clock.Advance(CostCOWCopy)
	pd.Table.RemapPage(page, dst, mmu.APFull)
	k.chargePTEdit(c, pd, page)
	c.CPU.CP15Write(cpu.CP15TLBIMVA, page)
	k.Bus.Release(src)
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
	t0 := pd.lastHcEntry
	d := since(c.Clock.Now(), t0)
	k.Probes.Add(measure.PhaseHypercall, c.Clock.Now()-t0)
	if k.Tracer != nil {
		k.Tracer.Core(c.ID).EmitSpan(t0, d, trace.KindHypercall, 0, uint64(HcSuspend), uint64(StatusOK))
	}
	c.Clock.Advance(cpu.CostExceptionReturn)
	c.CPU.Regs = pd.VCPU.Regs
	c.CPU.Regs.R[0] = StatusOK
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
		k.Bus.LoadFrame(f.PA, f.Data)
	}
	pd.VCPU.Regs = img.Regs
	pd.VCPU.DACR = img.DACR
	pd.VCPU.VFP = img.VFP
	pd.VCPU.VFPValid = img.VFPValid
	pd.VCPU.L2Ctrl = img.L2Ctrl
	pd.VCPU.QuantumLeft = img.QuantumLeft
	pd.VCPU.TimerPeriod = img.TimerPeriod
	if pd.Core.Current == pd {
		pd.Core.CPU.Regs = img.Regs
	}
	pd.Env.Ctx.RestoreState(img.Exec)
	pd.VGIC.restoreLines(img.VGIC, img.VGICPending)
	pd.lastHcEntry = img.LastHcEntry
	want := pd.Core.Clock.Now() + img.TimerRemaining
	if pd.timerEvent == nil || pd.timerEvent.When != want {
		k.parkVirtualTimer(pd)
		pd.timerRemaining = img.TimerRemaining
		k.armVirtualTimer(pd)
	}
	pd.Guest = guest
	k.spawn(pd)
	return nil
}

// CloneArenaStats reports arena recycling state (tests, footprint).
func (k *Kernel) CloneArenaStats() (allocated int, free int) {
	if k.cloneArenaNext == 0 {
		return 0, len(k.cloneArenaFree)
	}
	total := int((k.cloneArenaNext - physCloneArenas) / cloneArenaSize)
	return total - len(k.cloneArenaFree), len(k.cloneArenaFree)
}
