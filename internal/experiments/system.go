// Package experiments assembles full systems (virtualized and native) and
// regenerates every measured artifact of the paper's evaluation (§V):
// Table III (hardware-task-management overheads vs. number of guest OSes)
// and Figure 9 (degradation ratios), plus the §V-B footprint scalars.
package experiments

import (
	"fmt"

	"repro/internal/abi"
	"repro/internal/apps"
	"repro/internal/hwtask"
	"repro/internal/measure"
	"repro/internal/nova"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/ucos"
)

// Config parameterizes one evaluation run.
type Config struct {
	// Guests is the number of parallel uCOS-II VMs (paper: 1..4).
	Guests int
	// Cores is the number of simulated A9 cores (0 or 1 = the paper's
	// CPU0-only measurement setup). With 2+, the system reproduces the
	// paper's intended dual-core Zynq deployment: guest VMs partitioned
	// on core 0, the Hardware Task Manager service pinned on core 1,
	// cross-core requests travelling by SGI.
	Cores int
	// Iterations is the number of T_hw hardware-task requests per guest.
	Iterations int
	// RequestGapTicks is T_hw's delay between requests, in guest ticks.
	// Roughly one request per slice mirrors the paper's heavy-workload
	// regime.
	RequestGapTicks uint32
	// Warmup is the number of per-guest requests executed before the
	// probes are reset: steady-state averages, as in the paper's
	// "sufficient number of iterations".
	Warmup int
	// Seed diversifies the per-guest task-selection streams.
	Seed uint32
	// KeepWarmupProbes skips the steady-state probe reset, so samples
	// from the warm-up phase survive — the reconfiguration sweep needs
	// them because that is where the cold (SD-fetch) misses happen.
	KeepWarmupProbes bool
	// CacheBytes overrides the reconfiguration pipeline's bitstream
	// cache budget (0 keeps reconfig.New's 1 MiB). Small budgets
	// force evictions and give the prefetcher work.
	CacheBytes uint32
}

// DefaultConfig returns the configuration used by cmd/experiments.
func DefaultConfig() Config {
	return Config{
		Guests:          4,
		Iterations:      24,
		RequestGapTicks: 31,
		Warmup:          4,
		Seed:            1,
	}
}

// hwDriverTask is T_hw: the special guest task that exercises the
// Hardware Task Manager. It acquires a pseudo-random task, runs it once
// through its data section, and sleeps until the next request. When
// stopWhenDone is set (native baseline) it halts the OS after the last
// iteration; under virtualization it parks so the VM keeps running.
func hwDriverTask(cfg Config, vm int, done *bool, requests *int, stopWhenDone bool, onWarm func()) func(t *ucos.Task) {
	return func(t *ucos.Task) {
		picker := hwtask.NewMenuPicker(hwtask.DefaultTaskMenu(vm), cfg.Seed*2654435761+uint32(vm)*97, false)
		if _, ok := t.OS.M.SetupDataSection(64 << 10); !ok {
			panic("experiments: data section setup failed")
		}
		for i := 0; i < cfg.Warmup+cfg.Iterations; i++ {
			if i == cfg.Warmup && onWarm != nil {
				onWarm()
			}
			id := picker.Next()
			h, st := t.AcquireHw(id)
			if h != nil {
				length, param := hwtask.TaskParams(id)
				h.Run(t, 0x1000, 0x9000, length, param, 400)
				if i >= cfg.Warmup {
					*requests++
				}
			} else if st == abi.StatusBusy && i >= cfg.Warmup {
				*requests++ // busy replies are manager executions too
			}
			t.Delay(cfg.RequestGapTicks)
		}
		*done = true
		if stopWhenDone {
			t.OS.Stop()
			return
		}
		for {
			t.Delay(1000) // park; keep the VM alive
		}
	}
}

// workloadTask runs the guest's heavy workload (GSM or ADPCM by VM id):
// a dense codec pass over its live buffers plus sparse touches across its
// wider heap (lookup tables, descriptors, history), which is what
// pressures the shared TLB and L2 as more VMs run — the paper's stated
// cause for the Table III growth ("increase of miss rate of cache and
// TLB table").
func workloadTask(vm int) func(t *ucos.Task) {
	return func(t *ucos.Task) {
		bufVA := t.OS.M.TaskCodeBase(30) + 0x10_0000
		heapVA := t.OS.M.TaskCodeBase(30) + 0x20_0000
		const heapPages = 72 // ~288 KB of occasionally-touched pages per VM
		var w apps.Workload
		if vm%2 == 0 {
			w = apps.NewGSMWorkload(1, uint32(vm)+3)
		} else {
			w = apps.NewADPCMWorkload(1, uint32(vm)+5)
		}
		rng := uint32(vm)*2654435761 + 12345
		for {
			w.Step(t.Ctx, bufVA)
			for i := 0; i < 6; i++ {
				rng ^= rng << 13
				rng ^= rng >> 17
				rng ^= rng << 5
				page := rng % heapPages
				// One line per page: page-granular TLB pressure without
				// sweeping whole pages through L2.
				t.Ctx.Touch(heapVA+page*4096+(page&63)*64, i%3 == 0)
			}
			t.Exec(80)
		}
	}
}

// VirtSystem is a booted Mini-NOVA stack with n uCOS guests.
type VirtSystem struct {
	Kernel  *nova.Kernel
	Manager *hwtask.Manager
	Guests  []*ucos.Guest
	done    []bool
	reqs    []int
	warmed  int
}

// BuildVirtSystem boots the full virtualized stack of Fig. 8: Mini-NOVA,
// the PL fabric with the paper's 4 PRRs and FFT/QAM bitstream catalog,
// the Hardware Task Manager service PD, and n uCOS-II guest VMs each
// running a workload task plus T_hw. With cfg.Cores >= 2 the stack is
// partitioned: guests on core 0, the manager service on core 1.
func BuildVirtSystem(cfg Config) *VirtSystem {
	cores := cfg.Cores
	if cores < 1 {
		cores = 1
	}
	k := nova.NewKernelSMP(cores)
	var svcMask, guestMask sched.CPUMask
	if cores > 1 {
		// Static partitioning (Bao-style): the service owns core 1, the
		// guests share core 0 — the paper's intended Zynq deployment.
		svcMask, guestMask = sched.MaskOf(1), sched.MaskOf(0)
	}

	mgr := hwtask.BootPaperPlatform(k, svcMask)
	if cfg.CacheBytes != 0 {
		k.Reconfig.SetCacheCapacity(cfg.CacheBytes)
	}

	sys := &VirtSystem{
		Kernel:  k,
		Manager: mgr,
		done:    make([]bool, cfg.Guests),
		reqs:    make([]int, cfg.Guests),
	}
	onWarm := func() {
		sys.warmed++
		if sys.warmed == cfg.Guests && !cfg.KeepWarmupProbes {
			k.Probes.Reset() // steady state reached: measure from here
		}
	}
	for i := 0; i < cfg.Guests; i++ {
		i := i
		g := &ucos.Guest{
			GuestName: fmt.Sprintf("ucos-vm%d", i),
			Setup: func(os *ucos.OS) {
				os.TaskCreate("t_hw", 8, hwDriverTask(cfg, i, &sys.done[i], &sys.reqs[i], false, onWarm))
				os.TaskCreate("workload", 30, workloadTask(i))
			},
		}
		sys.Guests = append(sys.Guests, g)
		k.CreatePD(nova.PDConfig{
			Name: g.GuestName, Priority: nova.PrioGuest, Guest: g,
			Affinity: guestMask,
		})
	}
	return sys
}

// AllDone reports whether every guest's T_hw finished its iterations.
func (s *VirtSystem) AllDone() bool {
	for _, d := range s.done {
		if !d {
			return false
		}
	}
	return true
}

// Requests sums manager requests issued so far.
func (s *VirtSystem) Requests() int {
	n := 0
	for _, r := range s.reqs {
		n += r
	}
	return n
}

// RunToCompletion advances the system until all T_hw drivers finish (or
// the safety horizon passes) and returns the kernel's probe set.
func (s *VirtSystem) RunToCompletion(horizon simclock.Cycles) *measure.Set {
	start := s.Kernel.Clock.Now()
	for !s.AllDone() && s.Kernel.Clock.Now()-start < horizon {
		s.Kernel.RunFor(simclock.FromMillis(20))
	}
	return s.Kernel.Probes
}

// NativeSystem is the baseline: one native uCOS-II with the manager as a
// direct OS function (§V-B "native execution").
type NativeSystem struct {
	Machine *ucos.NativeMachine
	OS      *ucos.OS
	Probes  *measure.Set
	done    bool
	reqs    int
}

// BuildNativeSystem boots the baseline with the same two tasks.
func BuildNativeSystem(cfg Config) *NativeSystem {
	nm := ucos.NewNativeMachine()
	os := ucos.NewOS("native-ucos", nm)
	sys := &NativeSystem{Machine: nm, OS: os, Probes: nm.Probes}
	os.TaskCreate("t_hw", 8, hwDriverTask(cfg, 0, &sys.done, &sys.reqs, true, nm.Probes.Reset))
	os.TaskCreate("workload", 30, workloadTask(0))
	return sys
}

// RunToCompletion runs the baseline until T_hw finishes (the driver stops
// the OS) or the safety horizon passes.
func (s *NativeSystem) RunToCompletion(horizon simclock.Cycles) *measure.Set {
	s.OS.Deadline = s.Machine.Now() + horizon
	s.OS.Run()
	s.OS.Shutdown()
	return s.Probes
}
