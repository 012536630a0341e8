// DPR sharing: the §IV-C scenario of Fig. 5 made concrete — two VMs
// compete for the same hardware task. The Hardware Task Manager hands the
// region back and forth: each handover demaps the loser's interface page,
// saves the register group into its data section with the "inconsistent"
// flag, and reloads the hwMMU for the new owner. The guests observe the
// flag through the reserved structure, exactly as the paper describes.
//
//	go run ./examples/dprsharing
package main

import (
	"fmt"
	"log"

	"repro/internal/abi"
	"repro/internal/hwtask"
	"repro/internal/nova"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/ucos"
)

func main() {
	// Dual-core: the contending VMs share core 0 while the Hardware Task
	// Manager arbitrates from core 1.
	k := nova.NewKernelSMP(2)
	defer k.Shutdown()

	// One large PRR only: maximal contention for the shared task.
	caps := hwtask.PaperPRRCapacities()[:1]
	mgr := hwtask.NewManager(len(caps), nova.GuestUserBase+0x10_0000)
	if err := hwtask.InstallTaskSet(mgr, k.Bus, nova.BitstreamStorePA(), caps); err != nil {
		log.Fatal(err)
	}
	svcPD := k.CreatePD(nova.PDConfig{
		Name: "hwtm", Priority: nova.PrioService, Caps: nova.CapHwManager,
		Guest: &hwtask.Service{M: mgr, K: k}, CodeBase: nova.GuestUserBase,
		CodeSize: 8 << 10, Affinity: sched.MaskOf(1), StartSuspended: true,
	})
	k.RegisterHwService(svcPD, hwtask.NewPaperFabric(k.Clock, k.Bus, k.GIC, caps))

	runs := make([]int, 2)
	inconsistencies := make([]int, 2)
	for vm := 0; vm < 2; vm++ {
		vm := vm
		g := &ucos.Guest{
			GuestName: fmt.Sprintf("vm%d", vm),
			Setup: func(os *ucos.OS) {
				os.TaskCreate("worker", 10, func(t *ucos.Task) {
					t.OS.M.SetupDataSection(64 << 10)
					for {
						h, st := t.AcquireHw(hwtask.TaskQAM4)
						if h == nil {
							if st == abi.StatusBusy {
								t.Delay(2)
								continue
							}
							return
						}
						// Use the task a few times; a reclaim by the peer
						// VM will flip the consistency flag under us.
						for i := 0; i < 3; i++ {
							if !h.Consistent(t) {
								inconsistencies[vm]++
								break
							}
							if h.Run(t, 0x1000, 0x5000, 32, 4, 100) {
								runs[vm]++
							}
							t.Delay(1)
						}
						t.Delay(3)
					}
				})
			},
		}
		k.CreatePD(nova.PDConfig{
			Name: g.GuestName, Priority: nova.PrioGuest, Guest: g,
			Affinity: sched.MaskOf(0),
		})
	}

	k.RunFor(simclock.FromMillis(600))

	fmt.Printf("600 simulated ms of two VMs sharing one PRR:\n")
	for vm := 0; vm < 2; vm++ {
		fmt.Printf("  vm%d: %d accelerator runs, %d consistency-flag trips\n",
			vm, runs[vm], inconsistencies[vm])
	}
	fmt.Printf("manager: hits=%d reclaims=%d reconfigs=%d busy=%d\n",
		mgr.Stats.Hits, mgr.Stats.Reclaims, mgr.Stats.Reconfigs, mgr.Stats.Busy)
	fmt.Printf("hwMMU violations (must be 0): %d\n", k.Fabric.HwMMU.Violations.Load())
	if runs[0] == 0 || runs[1] == 0 {
		fmt.Println("WARNING: a VM was starved of the shared task")
	}
}
