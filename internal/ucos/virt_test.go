package ucos

import (
	"strings"
	"testing"
	"time"

	"repro/internal/hwtask"
	"repro/internal/nova"
	"repro/internal/pl"
	"repro/internal/simclock"
)

// virtSystem boots a Mini-NOVA kernel with the paper's fabric + manager
// service and n uCOS guests configured by setup(i, os).
func virtSystem(t *testing.T, n int, setup func(vm int, os *OS)) (*nova.Kernel, []*Guest) {
	t.Helper()
	k := nova.NewKernel()
	caps := hwtask.PaperPRRCapacities()
	fabric := pl.NewFabric(k.Clock, k.Bus, k.GIC, caps)
	for id, core := range paperCores() {
		fabric.RegisterCore(id, core)
	}
	k.AttachFabric(fabric)

	mgr := hwtask.NewManager(len(caps), nova.GuestUserBase+0x10_0000)
	if err := hwtask.InstallTaskSet(mgr, k.Bus, nova.BitstreamStorePA(), caps, hwtask.PaperTaskSet()); err != nil {
		t.Fatal(err)
	}
	svc := hwtask.NewService(mgr, k)
	svcPD := k.CreatePD(nova.PDConfig{
		Name: "hwtm", Priority: nova.PrioService, Caps: nova.CapHwManager,
		Guest: svc, CodeBase: nova.GuestUserBase, CodeSize: 8 << 10,
		StartSuspended: true,
	})
	k.RegisterHwService(svcPD)

	var guests []*Guest
	for i := 0; i < n; i++ {
		i := i
		g := &Guest{GuestName: "ucos-vm", Setup: func(os *OS) { setup(i, os) }}
		guests = append(guests, g)
		k.CreatePD(nova.PDConfig{Name: g.GuestName, Priority: nova.PrioGuest, Guest: g})
	}
	return k, guests
}

func TestVirtUCOSBootsAndTicks(t *testing.T) {
	k, guests := virtSystem(t, 1, func(_ int, os *OS) {
		os.TaskCreate("work", 10, func(task *Task) {
			for {
				task.Exec(300)
			}
		})
	})
	defer k.Shutdown()
	k.RunFor(simclock.FromMillis(20))
	if guests[0].OS == nil {
		t.Fatal("guest OS never constructed")
	}
	if guests[0].OS.Ticks < 15 {
		t.Errorf("guest saw %d ticks in 20ms at 1ms period, want ~19", guests[0].OS.Ticks)
	}
}

func TestVirtUCOSPrintSupervised(t *testing.T) {
	k, _ := virtSystem(t, 1, func(_ int, os *OS) {
		os.TaskCreate("hello", 10, func(task *Task) {
			task.Print("hello-virt")
		})
	})
	defer k.Shutdown()
	k.RunFor(simclock.FromMillis(5))
	if !strings.Contains(k.ConsoleString(), "hello-virt") {
		t.Errorf("console = %q", k.ConsoleString())
	}
}

func TestVirtHwTaskEndToEnd(t *testing.T) {
	var status uint32 = 999
	ran := false
	k, _ := virtSystem(t, 1, func(_ int, os *OS) {
		os.TaskCreate("hw", 10, func(task *Task) {
			if _, ok := task.OS.M.SetupDataSection(64 << 10); !ok {
				t.Error("data section setup failed")
				return
			}
			h, st := task.AcquireHw(hwtask.TaskQAM16)
			status = st
			if h == nil {
				return
			}
			ran = h.Run(task, 0x100, 0x800, 64, 16, 100)
		})
	})
	defer k.Shutdown()
	k.RunFor(simclock.FromMillis(50))
	if status != hwtask.ReplyReconfig {
		t.Fatalf("acquire status = %d, want Reconfig (cold PRR)", status)
	}
	if !ran {
		t.Fatal("hardware task did not complete under virtualization")
	}
	// Table III probes must have samples now.
	for _, ph := range []string{"mgr_entry", "mgr_exit", "mgr_exec", "plirq_entry"} {
		if k.Probes.Get(ph).Count == 0 {
			t.Errorf("probe %s has no samples", ph)
		}
	}
}

func TestVirtTwoVMsShareHardwareTask(t *testing.T) {
	// Both VMs use the same QAM task; the manager must hand the region
	// back and forth with the consistency protocol of §IV-C.
	results := make([]bool, 2)
	k, _ := virtSystem(t, 2, func(vm int, os *OS) {
		os.TaskCreate("hw", 10, func(task *Task) {
			task.OS.M.SetupDataSection(64 << 10)
			// Asymmetric backoff: two clients hammering the same task can
			// reclaim it from each other between acquire and use (the
			// §IV-C consistency flag catches it); backing off differently
			// guarantees progress.
			for try := 0; try < 60; try++ {
				h, st := task.AcquireHw(hwtask.TaskQAM4)
				if h == nil {
					if st == hwtask.ReplyBusy {
						task.Delay(uint32(2 + vm))
						continue
					}
					return
				}
				if h.Run(task, 0x100, 0x800, 32, 4, 200) {
					results[vm] = true
					task.ReleaseHw(h)
					return
				}
				task.ReleaseHw(h)
				task.Delay(uint32(2 + 3*vm + try%3))
			}
		})
	})
	defer k.Shutdown()
	k.RunFor(simclock.FromMillis(1000))
	if !results[0] || !results[1] {
		t.Errorf("hardware task completion per VM = %v, want both true", results)
	}
	if k.Fabric.HwMMU.Violations.Load() != 0 {
		t.Errorf("hwMMU violations = %d, want 0", k.Fabric.HwMMU.Violations.Load())
	}
}

// TestDestroyRunningCloneInTask destroys an activated clone while it is
// preempted inside a task. The kill must unwind the task and then the
// OS that dispatched it, so DestroyClone returns rather than waiting on
// an OS parked in dispatch.
func TestDestroyRunningCloneInTask(t *testing.T) {
	k := nova.NewKernel()
	defer k.Shutdown()
	tg := &Guest{GuestName: "tpl"}
	tpl := k.CreatePD(nova.PDConfig{Name: "tpl", Priority: nova.PrioGuest, Guest: tg})
	for i := 0; i < 40 && !tpl.IdleParked(); i++ {
		k.RunFor(simclock.FromMicros(250))
	}
	snap, err := tg.OS.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	img, err := k.Checkpoint(tpl, snap, false, "tpl")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Freeze(tpl); err != nil {
		t.Fatal(err)
	}

	rg := &ResumedGuest{GuestName: "clone", Snap: snap, Setup: func(os *OS) {
		os.TaskCreate("spin", 10, func(task *Task) {
			for {
				task.Exec(300)
			}
		})
	}}
	c := k.CreateClone(img, nova.CloneConfig{Name: "clone", Guest: rg})
	if err := k.ActivateClone(c); err != nil {
		t.Fatal(err)
	}
	k.RunFor(simclock.FromMillis(10))
	if rg.OS == nil || rg.OS.current == nil {
		t.Fatal("clone is not preempted inside its task")
	}

	done := make(chan error, 1)
	go func() { done <- k.DestroyClone(c) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DestroyClone did not return with the clone preempted inside a task")
	}
	if !c.Dead() {
		t.Error("destroyed clone not marked dead")
	}
}

func TestVirtIsolationHwTaskDMAConfined(t *testing.T) {
	// A guest programming its task to DMA outside its data section must
	// get a DMA error, not a breach (§IV-C second principle).
	var runOK bool
	var errSeen bool
	k, _ := virtSystem(t, 1, func(_ int, os *OS) {
		os.TaskCreate("evil", 10, func(task *Task) {
			task.OS.M.SetupDataSection(16 << 10)
			h, _ := task.AcquireHw(hwtask.TaskQAM4)
			if h == nil {
				return
			}
			// dst offset far outside the 16 KB window
			runOK = h.Run(task, 0x100, 1<<20, 64, 4, 200)
			errSeen = !runOK
		})
	})
	defer k.Shutdown()
	k.RunFor(simclock.FromMillis(100))
	if runOK {
		t.Error("DMA escape reported success")
	}
	if !errSeen {
		t.Error("no error observed")
	}
	if k.Fabric.HwMMU.Violations.Load() == 0 {
		t.Error("hwMMU did not record the violation")
	}
}
