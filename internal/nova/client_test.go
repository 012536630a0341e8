package nova_test

import (
	"fmt"
	"testing"

	"repro/internal/abi"
	"repro/internal/hwtask"
	"repro/internal/nova"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// acquirer is a guest that maps a 16 KB data section from its last RAM
// MB, registers it, acquires a QAM4 hardware task and parks. reply is
// the acquire's reply word.
type acquirer struct{ reply uint32 }

func (g *acquirer) RunSlice(env *nova.Env) {
	const size = 4 << 12
	for off := uint32(0); off < size; off += 1 << 12 {
		env.Hypercall(abi.HcMapPage, nova.GuestDataSect+off, 3<<20+off)
	}
	env.Hypercall(abi.HcRegionCreate, nova.GuestDataSect, size)
	g.reply = env.Hypercall(abi.HcHwTaskRequest, hwtask.TaskQAM4, nova.GuestIfaceBase, nova.GuestDataSect)
	for {
		env.Hypercall(abi.HcSuspend, 1)
		env.CheckPreempt()
	}
}

// lateClientAcquires boots the paper platform on cores cores, forks 70
// clones of a frozen template, which push the PD IDs past 64, then
// creates a PD that acquires a hardware task. With two cores the manager
// owns core 1 and the late PD core 0.
func lateClientAcquires(t *testing.T, cores int) {
	k := nova.NewKernelSMP(cores)
	defer k.Shutdown()
	var mgrMask, guestMask sched.CPUMask
	if cores > 1 {
		mgrMask, guestMask = sched.MaskOf(1), sched.MaskOf(0)
	}
	hwtask.BootPaperPlatform(k, mgrMask)
	_, img := nova.BootFrozenTemplate(t, k, false)
	for i := range 70 {
		k.CreateClone(img, fmt.Sprintf("c%d", i), nova.CloneWriter("c", 0))
	}
	g := &acquirer{}
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("CreatePD after 70 clones: %v", r)
			}
		}()
		late := k.CreatePD(nova.PDConfig{Name: "late", Priority: nova.PrioGuest, Affinity: guestMask, Guest: g})
		if cores > 1 && late.Core.ID != 0 {
			t.Fatalf("late PD on core %d, want 0", late.Core.ID)
		}
	}()
	k.RunParallelFor(simclock.FromMillis(5), cores)
	if st := abi.ReplyStatus(g.reply); st != abi.StatusOK && st != abi.StatusReconfig {
		t.Fatalf("late PD's acquire: status %s (reply %#x), want OK or Reconfig", abi.StatusName(st), g.reply)
	}
	if prr := abi.ReplyPRR(g.reply); prr < 0 {
		t.Fatalf("late PD's acquire granted PRR %d", prr)
	}
}

// TestLatePDAcquiresHwTask: a PD created after 70 clones, with the
// Hardware Task Manager registered, is a client like any other — its
// creation hands the manager a handle to it, and its acquire succeeds.
func TestLatePDAcquiresHwTask(t *testing.T) { lateClientAcquires(t, 1) }

// TestLatePDClientTwoShards is TestLatePDAcquiresHwTask on two cores run
// by two shards: the request crosses from core 0 to the manager on core
// 1 at an epoch barrier (CI runs this under -race).
func TestLatePDClientTwoShards(t *testing.T) { lateClientAcquires(t, 2) }
