package scenario

import (
	"fmt"
	"testing"

	"repro/internal/physmem"
	"repro/internal/simclock"
	"repro/internal/ucos"
)

// TestForkStormBudget pins the headline claim on the oversubscribed
// scenario: forking and activating 256 clones costs less simulated time
// than twice one template boot, and the fleet really runs (COW breaks,
// warm-pool hits for the prewarmed shelf, cold builds for the rest).
func TestForkStormBudget(t *testing.T) {
	spec, ok := FindSpec("oversubscribed-256vm", true)
	if !ok {
		t.Fatal("oversubscribed-256vm not in suite")
	}
	r := Build(spec).Run()
	if r.CloneCount != 256 {
		t.Fatalf("CloneCount = %d, want 256", r.CloneCount)
	}
	if r.ForkCycles == 0 || r.BootCycles == 0 {
		t.Fatalf("phase timings missing: boot %d fork %d", r.BootCycles, r.ForkCycles)
	}
	if r.ForkCycles > 2*r.BootCycles {
		t.Fatalf("forking 256 VMs cost %d cycles > 2x one boot (%d): fork is not O(metadata)",
			r.ForkCycles, r.BootCycles)
	}
	if r.COWFaults == 0 || r.FramesCopied != r.COWFaults {
		t.Fatalf("COW ledger: faults %d copied %d", r.COWFaults, r.FramesCopied)
	}
	if want := uint64(spec.Snapshot.Prewarm); r.PoolHits != want {
		t.Fatalf("pool hits = %d, want %d (the prewarmed shelf)", r.PoolHits, want)
	}
	if want := uint64(spec.Snapshot.Clones - spec.Snapshot.Prewarm); r.PoolMisses != want {
		t.Fatalf("pool misses = %d, want %d", r.PoolMisses, want)
	}
}

// TestWarmPoolReapScenario checks the churn scenario: TTL reaping fires,
// KeepWarm rebuilds the shelf past the initial prewarm, and the live
// clones still make progress.
func TestWarmPoolReapScenario(t *testing.T) {
	spec, ok := FindSpec("warm-pool-reap", true)
	if !ok {
		t.Fatal("warm-pool-reap not in suite")
	}
	r := Build(spec).Run()
	if r.CloneCount != spec.Snapshot.Clones {
		t.Fatalf("CloneCount = %d, want %d", r.CloneCount, spec.Snapshot.Clones)
	}
	if r.PoolReaped == 0 {
		t.Fatal("TTL reaper never fired")
	}
	if r.PoolBuilt <= uint64(spec.Snapshot.Prewarm+spec.Snapshot.Clones) {
		t.Fatalf("PoolBuilt = %d: KeepWarm never rebuilt the shelf", r.PoolBuilt)
	}
	if r.COWFaults == 0 {
		t.Fatal("active clones broke no COW shares")
	}
}

// shelfSystem builds a one-template snapshot spec, boots the template to
// quiescence and checkpoints it: the state runSnapshot starts its fork
// phases from.
func shelfSystem(t *testing.T, snap SnapshotSpec) *System {
	t.Helper()
	sys := Build(Spec{
		Name: "shelf", Cores: 2, RunMs: 4, Seed: 14,
		Snapshot: &snap,
		VMs:      []VM{{Name: "template"}},
	})
	t.Cleanup(sys.Kernel.Shutdown)
	sys.bootToQuiescence()
	sys.checkpointTemplate()
	return sys
}

// TestWarmShelfAcquireIsLIFO: acquire takes the most recently built
// clone off the shelf, and forks a fresh one when the shelf is empty.
func TestWarmShelfAcquireIsLIFO(t *testing.T) {
	sys := shelfSystem(t, SnapshotSpec{Prewarm: 3})
	sr := sys.snap
	sys.prewarm(sys.Kernel.Clock.Now())
	if len(sr.shelf) != 3 {
		t.Fatalf("prewarm shelved %d clones, want 3", len(sr.shelf))
	}
	newest := sr.shelf[2]
	if got := sys.acquire(); got != newest || got.name != "template.c2" || sr.hits != 1 {
		t.Fatalf("acquire = %s (hits %d), want the newest clone template.c2 off the shelf", got.name, sr.hits)
	}
	for len(sr.shelf) > 0 {
		sys.acquire()
	}
	if got := sys.acquire(); got != sr.clones[len(sr.clones)-1] || got.name != "template.c3" || sr.hits != 3 {
		t.Errorf("acquire on an empty shelf = %s (hits %d), want a fresh template.c3 (hits 3)", got.name, sr.hits)
	}
}

// TestWarmShelfTTLReapingIsDeterministic: prewarmed clones get a reap
// deadline in [now+TTL, now+TTL+TTL/8) from the seeded jitter, the same
// seed gives the same deadlines, nothing expires before now+TTL,
// everything has by now+TTL+TTL/8, and the reap goes oldest first.
func TestWarmShelfTTLReapingIsDeterministic(t *testing.T) {
	ttl := simclock.FromMillis(1)
	var first []simclock.Cycles
	for run := 0; run < 2; run++ {
		sys := shelfSystem(t, SnapshotSpec{Prewarm: 4, TTLMs: 1})
		sr := sys.snap
		now := sys.Kernel.Clock.Now()
		sys.prewarm(now)
		if len(sr.shelf) != 4 {
			t.Fatalf("prewarm shelved %d clones, want 4", len(sr.shelf))
		}
		for i, cv := range sr.shelf {
			if cv.deadline < now+ttl || cv.deadline >= now+ttl+ttl/8 {
				t.Errorf("%s deadline %d outside [%d, %d)", cv.name, cv.deadline, now+ttl, now+ttl+ttl/8)
			}
			if run == 0 {
				first = append(first, cv.deadline)
			} else if cv.deadline != first[i] {
				t.Errorf("%s deadline %d on the second run, %d on the first", cv.name, cv.deadline, first[i])
			}
		}

		sys.reapExpired(now + ttl - 1)
		if len(sr.shelf) != 4 || sr.reaped != 0 {
			t.Fatalf("early reap left %d shelved and reaped %d, want 4 and 0", len(sr.shelf), sr.reaped)
		}
		// A destroyed clone's arena goes on a LIFO free list, so the
		// order the top-up's forks get the arenas back in shows the
		// order the reap destroyed them.
		var arenas []uint32
		for _, cv := range sr.shelf {
			arenas = append(arenas, cv.pd.VCPU.TTBR)
		}
		sys.reapExpired(now + ttl + ttl/8)
		if len(sr.shelf) != 0 || sr.reaped != 4 {
			t.Fatalf("reap at TTL+TTL/8 left %d shelved and reaped %d, want 0 and 4", len(sr.shelf), sr.reaped)
		}
		sys.prewarm(now + 2*ttl)
		for i, cv := range sr.shelf {
			if want := arenas[len(arenas)-1-i]; cv.pd.VCPU.TTBR != want {
				t.Errorf("%s reuses arena %#x, want %#x: the reap did not go oldest first",
					cv.name, cv.pd.VCPU.TTBR, want)
			}
		}
	}
}

// TestWarmShelfPrewarmTopsUpAfterReap: once a reap empties the shelf,
// the next prewarm refills it with fresh build ordinals — the
// template.cN names continue rather than recycle.
func TestWarmShelfPrewarmTopsUpAfterReap(t *testing.T) {
	sys := shelfSystem(t, SnapshotSpec{Prewarm: 2, TTLMs: 1})
	sr := sys.snap
	ttl := simclock.FromMillis(1)
	now := sys.Kernel.Clock.Now()
	sys.prewarm(now)
	sys.reapExpired(now + 2*ttl)
	if len(sr.shelf) != 0 || sr.reaped != 2 {
		t.Fatalf("reap at 2*TTL left %d shelved and reaped %d, want 0 and 2", len(sr.shelf), sr.reaped)
	}
	sys.prewarm(now + 2*ttl)
	if len(sr.shelf) != 2 {
		t.Fatalf("top-up shelved %d clones, want 2", len(sr.shelf))
	}
	for i, cv := range sr.shelf {
		if want := fmt.Sprintf("template.c%d", 2+i); cv.name != want {
			t.Errorf("top-up shelf[%d] = %s, want %s (fresh ordinals)", i, cv.name, want)
		}
	}
	if got := sys.acquire(); got.name != "template.c3" {
		t.Errorf("post-reap acquire = %s, want template.c3", got.name)
	}
}

// TestWarmShelfZeroTTLNeverReaps: without a TTL, shelf clones carry no
// deadline and no reap scan destroys them.
func TestWarmShelfZeroTTLNeverReaps(t *testing.T) {
	sys := shelfSystem(t, SnapshotSpec{Prewarm: 2})
	sr := sys.snap
	sys.prewarm(sys.Kernel.Clock.Now())
	sys.reapExpired(1 << 40)
	if len(sr.shelf) != 2 || sr.reaped != 0 {
		t.Fatalf("zero-TTL reap left %d shelved and reaped %d, want 2 and 0", len(sr.shelf), sr.reaped)
	}
	for _, cv := range sr.shelf {
		if cv.deadline != 0 || cv.reaped {
			t.Errorf("%s: deadline %d reaped %v, want no deadline and alive", cv.name, cv.deadline, cv.reaped)
		}
	}
}

// midpointRun boots the template to quiescence and runs it for the
// spec's budget. With interrupt set, the quiesced midpoint is
// checkpointed withContents, the guest's restorable state is then
// deliberately scrambled — RAM frames, vCPU registers — and the PD is
// restored in place from the image before the run continues. A correct
// checkpoint/restore makes the two timelines indistinguishable.
func midpointRun(t *testing.T, shards int, interrupt bool) Result {
	t.Helper()
	spec := Spec{
		Name: "midpoint-restore", Cores: 2, RunMs: 6, Seed: 21, Shards: shards,
		Snapshot: &SnapshotSpec{},
		VMs:      []VM{{Name: "template"}},
	}
	sys := Build(spec)
	k := sys.Kernel
	defer k.Shutdown()
	sys.bootToQuiescence()

	if interrupt {
		sr := sys.snap
		pd := sr.tpl.pd
		osnap, err := sr.tpl.guest.OS.Snapshot()
		if err != nil {
			t.Fatalf("guest snapshot: %v", err)
		}
		img, err := k.Checkpoint(pd, true)
		if err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		// Scramble everything the image claims to capture: if restore
		// missed any of it, the continued timeline diverges and the
		// digest comparison below catches it.
		garbage := make([]byte, physmem.FrameSize)
		for i := range garbage {
			garbage[i] = 0xA5
		}
		for _, f := range img.Frames {
			if err := k.Bus.WriteBytes(f.PA, garbage); err != nil {
				t.Fatal(err)
			}
		}
		for i := range pd.VCPU.Regs.R {
			pd.VCPU.Regs.R[i] = 0xDEADBEEF
		}
		pd.VCPU.Regs.CPSR = 0xDEADBEEF
		if pd.Core.Current == pd {
			pd.Core.CPU.Regs = pd.VCPU.Regs
		}
		rg := &ucos.Guest{
			GuestName: "template",
			Snap:      osnap,
			Setup:     slsSetup(sr.tplStates),
		}
		if err := k.RestoreInPlace(pd, img, rg); err != nil {
			t.Fatalf("restore in place: %v", err)
		}
		sr.tpl.guest = rg
	}

	chunk := simclock.FromMillis(sys.Spec.RunMs) / 8
	for i := 0; i < 8; i++ {
		sys.advance(chunk)
	}
	return sys.collect()
}

// TestCheckpointRestoreContinuity: checkpoint mid-run, scramble, restore
// in place, continue — the final state dump must be byte-identical to an
// uninterrupted run, sequentially and on every shard count, and the
// engines must agree with each other.
func TestCheckpointRestoreContinuity(t *testing.T) {
	var ref Result
	for i, shards := range []int{0, 2, 4} {
		base := midpointRun(t, shards, false)
		restored := midpointRun(t, shards, true)
		if base.Detail != restored.Detail {
			t.Fatalf("shards=%d: restored timeline diverged from uninterrupted run\n%s",
				shards, diffDetail(base.Detail, restored.Detail))
		}
		if base.Checksum != restored.Checksum {
			t.Fatalf("shards=%d: checksum %016x != %016x with identical detail",
				shards, restored.Checksum, base.Checksum)
		}
		if i == 0 {
			ref = base
		} else if base.Detail != ref.Detail {
			t.Fatalf("shards=%d: baseline diverged from sequential baseline\n%s",
				shards, diffDetail(ref.Detail, base.Detail))
		}
	}
}

// TestSnapshotSweepPinned pins the rows of the short -snapshot sweep
// (fleets of 1 and 8 clones), from which cmd/experiments derives the
// fork/boot ratio, the copy rate and the shelf hit ratio.
func TestSnapshotSweepPinned(t *testing.T) {
	for _, want := range []struct {
		clones         int
		boot, fork     simclock.Cycles
		copied, shared uint64
		hits, misses   uint64
	}{
		{1, 2310012, 6396, 9, 1015, 0, 1},
		{8, 2310012, 51168, 70, 8122, 4, 4},
	} {
		r := Build(snapshotForkSpec(want.clones)).Run()
		if r.CloneCount != want.clones || r.BootCycles != want.boot || r.ForkCycles != want.fork ||
			r.FramesCopied != want.copied || r.FramesShared != want.shared ||
			r.PoolHits != want.hits || r.PoolMisses != want.misses {
			t.Errorf("%s drifted from the pinned row:\n  got  clones=%d boot=%d fork=%d copied=%d shared=%d hits=%d misses=%d\n  want %+v",
				r.Name, r.CloneCount, r.BootCycles, r.ForkCycles, r.FramesCopied, r.FramesShared,
				r.PoolHits, r.PoolMisses, want)
		}
	}
}
