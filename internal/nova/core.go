package nova

import (
	"repro/internal/cpu"
	"repro/internal/measure"
	"repro/internal/simclock"
	"repro/internal/timer"
)

// CoreCtx is one simulated Cortex-A9 core as the kernel sees it: the
// architectural core model, that core's private timer (quantum source),
// the kernel's execution context on that core (its own fetch cursor over
// the shared kernel text), the PD currently resident, and the per-core
// scheduling flags that used to be kernel-global when the reproduction
// pinned everything on CPU0.
type CoreCtx struct {
	ID    int
	CPU   *cpu.CPU
	Timer *timer.PrivateTimer

	// Clock is this core's time cursor. Core 0's clock is the kernel's
	// Clock; on a multi-core machine the other cores advance their own
	// cursors independently between epoch barriers.
	Clock *simclock.Clock

	// Current is the PD whose context is live on this core. It stays
	// resident across the interleaved run loop's window boundaries —
	// a core that keeps running the same PD never re-pays the switch.
	Current *PD

	// kctx is the kernel's execution context on this core.
	kctx *cpu.ExecContext

	// needResched asks the core to return to its scheduler at the next
	// chunk boundary; quantumExpired marks a genuine end-of-slice (the
	// private-timer PPI) as opposed to a pause or cross-core kick.
	needResched    bool
	quantumExpired bool

	// vfpOwner is the PD whose VFP context is live on this core's VFP
	// unit (lazy switch state, Table I) — per-core, as on silicon.
	vfpOwner *PD

	// ipcFastCalls counts same-core synchronous portal-call handoffs
	// taken on this core (sharded so concurrent cores never share the
	// counter; Kernel.IPCFastCalls sums).
	ipcFastCalls uint64

	// BusyCycles accumulates simulated time this core spent executing
	// PDs; everything else is idle. Utilization derives from it.
	BusyCycles simclock.Cycles
}

// Utilization returns the fraction of simulated time [0,1] this core
// spent executing protection domains, measured against the global clock.
func (c *CoreCtx) Utilization(now simclock.Cycles) float64 {
	if now == 0 {
		return 0
	}
	return float64(c.BusyCycles) / float64(now)
}

// runCore gives core c one scheduling window: pick from c's runqueue,
// switch in, and let the PD run until it yields (quantum expiry, block,
// horizon, or a reschedule kick). Reports whether the core found anything
// to run. This is the single-core reference loop's window; multi-core
// machines run epochs (runCoreEpoch).
func (k *Kernel) runCore(c *CoreCtx, until simclock.Cycles) bool {
	var pd *PD
	for {
		n := k.Sched.Pick(c.ID)
		if n == nil {
			return false
		}
		pd = n.Owner.(*PD)
		if !pd.dead {
			break
		}
		k.Sched.Dequeue(n)
	}

	k.worldSwitch(c, pd)
	// Complete the Table III "HW Manager exit" probe on the activation
	// that resumes a guest: on a single core this instant coincides with
	// the world switch away from the service.
	if k.mgrExitArmed && pd != k.hwSvc {
		k.Probes.Add(measure.PhaseMgrExit, k.Clock.Now()-k.mgrExitFrom)
		k.mgrExitArmed = false
	}
	c.needResched = false
	c.quantumExpired = false
	if pd.VCPU.QuantumLeft == 0 {
		pd.VCPU.QuantumLeft = k.Sched.Quantum()
	}
	c.Timer.Start(pd.VCPU.QuantumLeft, true)

	// Bound the activation by the caller's horizon.
	stop := k.Clock.At(until, func(simclock.Cycles) { c.needResched = true })

	start := k.Clock.Now()
	c.CPU.Mode, c.CPU.IRQMasked = cpu.ModeUSR, false
	k.activate(c, pd)
	elapsed := k.Clock.Now() - start
	c.Timer.Stop()
	k.Clock.Cancel(stop)
	c.BusyCycles += elapsed

	if c.quantumExpired || elapsed >= pd.VCPU.QuantumLeft {
		// Slice fully consumed: fresh quantum next time, go to the back
		// of the priority circle (round-robin, §III-D).
		pd.VCPU.QuantumLeft = 0
		if k.Sched.Queued(&pd.node) {
			k.Sched.Rotate(c.ID, pd.Priority)
		}
	} else {
		// Paused early (preemption, horizon, cross-core kick): carry the
		// remaining quantum (§III-D).
		pd.VCPU.QuantumLeft -= elapsed
	}
	return true
}

// activate hands core c to pd by resuming its coroutine until the PD
// yields; a finished coroutine reports yieldExited.
func (k *Kernel) activate(c *CoreCtx, pd *PD) yieldReason {
	r, ok := pd.next()
	if !ok {
		r = yieldExited
	}
	// Kernel loop regains the core in SVC, IRQs masked.
	c.CPU.Mode, c.CPU.IRQMasked = cpu.ModeSVC, true
	return r
}

// idleUntil advances to the next event (or until) with every core's
// interrupts open — the kernel's WFI loop, entered only when no core has
// runnable work.
func (k *Kernel) idleUntil(until simclock.Cycles) {
	target := until
	if d, ok := k.Clock.NextDeadline(); ok && d < target {
		target = d
	}
	k.Clock.AdvanceTo(target)
	for _, c := range k.Cores {
		c.CPU.IRQMasked = false
		c.CPU.PollIRQ()
		c.CPU.IRQMasked = true
	}
}
