// Quickstart: boot Mini-NOVA with one paravirtualized uC/OS-II guest,
// acquire a QAM hardware task through the Hardware Task Manager, run it
// on the simulated FPGA fabric, and read the result back.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/hwtask"
	"repro/internal/nova"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/ucos"
)

func main() {
	// 1. Boot the microkernel on both cores of the simulated Zynq-7000
	//    PS, statically partitioned: guest VMs own core 0, the Hardware
	//    Task Manager service owns core 1 (the paper's intended
	//    deployment on the dual-core part).
	k := nova.NewKernelSMP(2)

	// 2. Bring up the paper's hardware-task platform: the PL with its
	//    four reconfigurable regions, the FFT/QAM bitstream catalog and
	//    behavioural IP cores, and the Hardware Task Manager as a
	//    user-level service PD on core 1.
	mgr := hwtask.BootPaperPlatform(k, sched.MaskOf(1))

	// 3. Create one uC/OS-II guest with a task that uses the accelerator.
	guest := &ucos.Guest{
		GuestName: "demo-vm",
		Setup: func(os *ucos.OS) {
			os.TaskCreate("qam-user", 10, func(t *ucos.Task) {
				t.Print("requesting QAM-16 accelerator\n")
				if _, ok := t.OS.M.SetupDataSection(64 << 10); !ok {
					t.Print("data section failed\n")
					return
				}
				h, status := t.AcquireHw(hwtask.TaskQAM16)
				if h == nil {
					t.Print(fmt.Sprintf("acquire failed: status %d\n", status))
					return
				}
				t.Print(fmt.Sprintf("granted PRR%d, IRQ %d\n", h.Grant.PRR, h.Grant.IRQ))
				if h.Run(t, 0x1000, 0x9000, 48, 16, 200) {
					t.Print("hardware task completed: 96 QAM-16 symbols produced\n")
				} else {
					t.Print("hardware task failed\n")
				}
			})
		},
	}
	k.CreatePD(nova.PDConfig{
		Name: guest.GuestName, Priority: nova.PrioGuest, Guest: guest,
		Affinity: sched.MaskOf(0),
	})

	// 4. Run 50 simulated milliseconds and show what happened.
	k.RunFor(simclock.FromMillis(50))
	defer k.Shutdown()

	fmt.Print(k.ConsoleString())
	fmt.Printf("\nsimulated %.1f ms; manager stats: %+v\n",
		k.Clock.Now().Millis(), mgr.Stats)
	for _, c := range k.Cores {
		fmt.Printf("cpu%d utilization: %.2f%%\n", c.ID, c.Utilization(k.Clock.Now())*100)
	}
	fmt.Printf("probes:\n%s", k.Probes)
}
