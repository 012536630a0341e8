package scenario

import (
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
		img, err := k.Checkpoint(pd, osnap, true, "mid")
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
			k.Bus.LoadFrame(f.PA, garbage)
		}
		for i := range pd.VCPU.Regs.R {
			pd.VCPU.Regs.R[i] = 0xDEADBEEF
		}
		pd.VCPU.Regs.CPSR = 0xDEADBEEF
		if pd.Core.Current == pd {
			pd.Core.CPU.Regs = pd.VCPU.Regs
		}
		rg := &ucos.ResumedGuest{
			GuestName: "template",
			Snap:      osnap,
			Setup:     slsSetup(sys.Spec.TickMs, sr.tplStates),
		}
		if err := k.RestoreInPlace(pd, img, rg); err != nil {
			t.Fatalf("restore in place: %v", err)
		}
		sr.tpl.resumed = rg
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
