// Mixed criticality: the paper's core motivation — "simultaneously host
// real-time OS (RTOS) and high-level generic OS on a single unified
// platform". A hard-real-time control VM shares the CPU with a bulk
// compression VM; the kernel's priority scheduler and quantum carry-over
// keep the control loop's deadlines intact while the batch guest soaks
// up the remaining CPU.
//
//	go run ./examples/mixedcriticality
package main

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/nova"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/ucos"
)

func main() {
	// Static partitioning on the dual-core part: the hard-real-time
	// control VM owns core 1 outright while the batch guest soaks core 0
	// — the partitioned-hypervisor arrangement that removes scheduling
	// jitter from the control loop entirely.
	k := nova.NewKernelSMP(2)
	defer k.Shutdown()

	// Control VM: 1 kHz loop, must observe its tick within a tolerance.
	var (
		loops        int
		deadlineMiss int
		worstJitter  simclock.Cycles
	)
	control := &ucos.Guest{
		GuestName: "rt-control",
		Setup: func(os *ucos.OS) {
			os.TaskCreate("pid-loop", 4, func(t *ucos.Task) {
				last := t.OS.M.Now()
				for {
					t.Delay(1) // 1 ms control period (virtual time)
					now := t.OS.M.Now()
					period := now - last
					last = now
					// Virtual time pauses while descheduled, so the guest-
					// visible period should stay near 1 ms.
					if period > simclock.FromMicros(1500) {
						deadlineMiss++
					}
					if period > worstJitter {
						worstJitter = period
					}
					t.Exec(900) // PID computation + actuator output
					loops++
				}
			})
		},
	}

	// Batch VM: ADPCM compression, as much as it can get.
	var w *apps.CodecWorkload[apps.ADPCMState]
	batch := &ucos.Guest{
		GuestName: "batch-compress",
		Setup: func(os *ucos.OS) {
			os.TaskCreate("compress", 20, func(t *ucos.Task) {
				w = apps.NewADPCMWorkload(2, 7)
				for {
					w.Step(t.Ctx, 0x0012_0000)
					t.Exec(60)
				}
			})
		},
	}

	// The control VM keeps the higher PD priority (paper Fig. 3) and is
	// additionally pinned to its own core: no world switch ever lands in
	// its control period.
	k.CreatePD(nova.PDConfig{
		Name: control.GuestName, Priority: nova.PrioService, Guest: control,
		Affinity: sched.MaskOf(1),
	})
	k.CreatePD(nova.PDConfig{
		Name: batch.GuestName, Priority: nova.PrioGuest, Guest: batch,
		Affinity: sched.MaskOf(0),
	})

	k.RunFor(simclock.FromMillis(400))

	fmt.Printf("simulated 400 ms of mixed-criticality operation\n")
	fmt.Printf("control loop iterations: %d (expect ~395+)\n", loops)
	fmt.Printf("deadline misses (>1.5ms guest-visible period): %d\n", deadlineMiss)
	fmt.Printf("worst guest-visible period: %.3f ms\n", worstJitter.Millis())
	for _, c := range k.Cores {
		fmt.Printf("cpu%d utilization: %.2f%%\n", c.ID, c.Utilization(k.Clock.Now())*100)
	}
	fmt.Printf("batch blocks compressed meanwhile: %d\n", w.Steps())
	fmt.Printf("world switches: %d\n", k.Probes.Get("vm_switch").Count)
}
