// SDR pipeline: the communication workload the paper's introduction
// motivates — a guest implements a software-defined-radio transmit chain
// where the compute-heavy stages (QAM constellation mapping and an FFT
// for OFDM modulation) run as DPR hardware tasks while framing runs in
// software on the virtualized uC/OS-II.
//
//	go run ./examples/sdr
package main

import (
	"fmt"

	"repro/internal/hwtask"
	"repro/internal/nova"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/ucos"
)

func buildSystem() (*nova.Kernel, *hwtask.Manager) {
	// Dual-core deployment: the SDR guest owns core 0, and the paper's
	// hardware-task platform brings the Hardware Task Manager service up
	// on core 1, so accelerator requests never evict the pipeline from
	// its core.
	k := nova.NewKernelSMP(2)
	return k, hwtask.BootPaperPlatform(k, sched.MaskOf(1))
}

func main() {
	k, mgr := buildSystem()
	defer k.Shutdown()

	framesDone := 0
	guest := &ucos.Guest{
		GuestName: "sdr-vm",
		Setup: func(os *ucos.OS) {
			// The pipeline stages communicate through a uC/OS-II queue:
			// the framer produces payloads, the modulator maps + OFDMs.
			payloadQ := os.QueueCreate(8)

			os.TaskCreate("framer", 12, func(t *ucos.Task) {
				for burst := uint32(1); ; burst++ {
					t.Exec(1200) // scramble + FEC-encode a 48-byte payload
					if !t.QueuePost(payloadQ, burst) {
						t.Delay(1)
					}
					t.Delay(2) // 2 ms frame cadence
				}
			})

			os.TaskCreate("modulator", 10, func(t *ucos.Task) {
				if _, ok := t.OS.M.SetupDataSection(128 << 10); !ok {
					t.Print("modulator: no data section\n")
					return
				}
				qam, st := t.AcquireHw(hwtask.TaskQAM16)
				if qam == nil {
					t.Print(fmt.Sprintf("modulator: QAM acquire failed (%d)\n", st))
					return
				}
				fft, st := t.AcquireHw(hwtask.TaskFFT256)
				if fft == nil {
					t.Print(fmt.Sprintf("modulator: FFT acquire failed (%d)\n", st))
					return
				}
				t.Print("modulator: QAM-16 + FFT-256 accelerators online\n")
				for {
					if _, ok := t.QueuePend(payloadQ, 50); !ok {
						continue
					}
					// Stage 1: map 48 payload bytes to 96 QAM-16 symbols.
					if !qam.Run(t, 0x1000, 0x3000, 48, 16, 100) {
						t.Print("modulator: QAM stage failed\n")
						continue
					}
					// Stage 2: 256-point IFFT-equivalent over the symbol
					// block (the core is direction-agnostic here).
					if !fft.Run(t, 0x3000, 0x5000, 256*4, 256, 100) {
						t.Print("modulator: FFT stage failed\n")
						continue
					}
					framesDone++
					t.Exec(400) // cyclic prefix + DMA descriptor setup
				}
			})
		},
	}
	k.CreatePD(nova.PDConfig{
		Name: guest.GuestName, Priority: nova.PrioGuest, Guest: guest,
		Affinity: sched.MaskOf(0),
	})

	k.RunFor(simclock.FromMillis(300))
	fmt.Print(k.ConsoleString())
	fmt.Printf("\nOFDM bursts modulated in 300 simulated ms: %d\n", framesDone)
	fmt.Printf("manager: %+v\n", mgr.Stats)
	fmt.Printf("PL IRQ injections delivered: %d\n",
		k.Probes.Get("plirq_entry").Count)
	for _, c := range k.Cores {
		fmt.Printf("cpu%d utilization: %.2f%%\n", c.ID, c.Utilization(k.Clock.Now())*100)
	}
}
