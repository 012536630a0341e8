package scenario

import (
	"repro/internal/abi"
	"repro/internal/apps"
	"repro/internal/hwtask"
	"repro/internal/ucos"
)

// newPicker builds the churn driver's task stream: the VM's explicit
// menu, or the Table III mix (shared QAM pool + per-VM FFT stage) when
// none is given — the same picker T_hw uses, so scenario traffic mirrors
// the Table III traffic by construction.
func newPicker(vm VM, vmIndex int, seed uint32) *hwtask.TaskPicker {
	menu := vm.HwMenu
	if len(menu) == 0 {
		menu = hwtask.DefaultTaskMenu(vmIndex)
	}
	return hwtask.NewMenuPicker(menu, seed, vm.HwSequential)
}

// churnTask is the scenario counterpart of the experiments' T_hw driver:
// it acquires a menu task, runs it once through the data section, and
// sleeps HwGapTicks — forever, until the scenario's runtime budget ends.
// With ReleaseEvery set it periodically hands the task back to the
// manager, churning the IRQ register/unregister path on top of the
// reclaim churn the shared pool already produces.
//
// The driver is a well-behaved QoS citizen: a Throttled or Retry answer
// from the admission guards doubles a backoff added to the churn gap
// (breaker rejections back off harder — the breaker's cooldown outlasts
// a bucket refill), and any success resets it. StatusFaulted answers
// (retries exhausted, regions quarantined) are counted and retried at
// the normal cadence — the fault plan is transient by construction.
func (s *System) churnTask(p *vmProbe, vmIndex int, seed uint32) func(t *ucos.Task) {
	vm := p.spec
	return func(t *ucos.Task) {
		pick := newPicker(vm, vmIndex, seed)
		if _, ok := t.OS.M.SetupDataSection(64 << 10); !ok {
			panic("scenario: data section setup failed")
		}
		backoff := uint32(0)
		for n := 1; ; n++ {
			id := pick.Next()
			t0 := t.OS.M.Now()
			h, st := t.AcquireHw(id)
			if h != nil {
				p.acq.Add(t.OS.M.Now() - t0)
				backoff = 0
				length, param := hwtask.TaskParams(id)
				if h.Run(t, 0x1000, 0x9000, length, param, 400) {
					p.requests++
				} else {
					p.failures++
				}
				if vm.ReleaseEvery > 0 && n%vm.ReleaseEvery == 0 {
					t.ReleaseHw(h)
				}
			} else {
				// Only statuses that tune the retry cadence are dispatched;
				// success codes cannot reach this failure branch and
				// anything else retries at the base gap.
				//detlint:partial success statuses unreachable here; unlisted failures use the base backoff
				switch st {
				case abi.StatusBusy:
					p.busy++
				case abi.StatusThrottled:
					p.throttled++
					if backoff < 16 {
						backoff = backoff*2 + 1
					}
				case abi.StatusRetry:
					p.retried++
					if backoff < 64 {
						backoff = backoff*2 + 4
					}
				case abi.StatusFaulted:
					p.faulted++
				}
			}
			t.Delay(vm.HwGapTicks + backoff)
		}
	}
}

// workloadTask runs the VM's background computation: the named codec (or
// memory hog) over its live buffers plus sparse touches across a wider
// heap, the cache/TLB pressure pattern of the Table III workload tasks.
func (s *System) workloadTask(p *vmProbe, vmIndex int, seed uint32) func(t *ucos.Task) {
	name := p.spec.Workload
	return func(t *ucos.Task) {
		w, ok := apps.NewWorkloadByName(name, seed)
		if !ok {
			panic("scenario: unknown workload " + name)
		}
		bufVA := t.OS.M.TaskCodeBase(30) + 0x10_0000
		heapVA := t.OS.M.TaskCodeBase(30) + 0x20_0000
		const heapPages = 72
		rng := seed ^ uint32(vmIndex)<<8
		for {
			w.Step(t.Ctx, bufVA)
			p.output = w.Output()
			for i := 0; i < 6; i++ {
				rng ^= rng << 13
				rng ^= rng >> 17
				rng ^= rng << 5
				page := rng % heapPages
				t.Ctx.Touch(heapVA+page*4096+(page&63)*64, i%3 == 0)
			}
			t.Exec(80)
		}
	}
}
