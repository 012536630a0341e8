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
	// resident across the run loop's window boundaries — a core that
	// keeps running the same PD never re-pays the switch.
	Current *PD

	// kctx is the kernel's execution context on this core.
	kctx *cpu.ExecContext

	// edge is the scheduling window's end, re-armed by every runCore: it
	// asks the resident PD to give the core back at the window edge.
	edge simclock.Event

	// probes holds the hot-path probes this core has recorded into,
	// resolved from Kernel.Probes on first use (see Kernel.probe). Each
	// core fills only its own cache, so the lazy lookup never races.
	probes [numHotProbes]*measure.Probe

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

// Hot-path probes: the phases the kernel records on every hypercall,
// portal round trip and world switch.
const (
	hotHypercall = iota
	hotIPCCall
	hotVMSwitch
	numHotProbes
)

var hotProbeNames = [numHotProbes]string{
	hotHypercall: measure.PhaseHypercall,
	hotIPCCall:   measure.PhaseIPCCall,
	hotVMSwitch:  measure.PhaseVMSwitch,
}

// probe returns core c's handle on hot probe i, resolving it by name on
// the core's first sample, so a kernel lists only the phases it has
// recorded. Reset keeps probe identity, so a handle never goes stale.
func (k *Kernel) probe(c *CoreCtx, i int) *measure.Probe {
	p := c.probes[i]
	if p == nil {
		p = k.Probes.Get(hotProbeNames[i])
		c.probes[i] = p
	}
	return p
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
