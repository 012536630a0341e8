package nova

import (
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Tracing wiring: EnableTrace attaches per-core bounded event rings to
// the kernel, then points every instrumented subsystem (vGICs,
// reconfiguration pipeline) at them; the kernel traces its own scheduler
// calls. Tracing is strictly read-only with respect to simulated state —
// no emission ever advances a clock, touches a probe the scenario digest
// hashes, or iterates a map — so a traced run produces byte-identical
// scenario checksums to an untraced one.
//
// Ring writer discipline: each per-core ring is written only by the
// goroutine that logically holds that core — mid-epoch by the core's own
// host goroutine, at the barrier by the single-threaded commit replay —
// so rings need no locks even under RunParallelFor.

// EnableTrace switches tracing on with trace.DefaultCapacity rings.
// Idempotent: a second call returns the existing tracer. Call it before
// guests run so rings catch the whole scenario; PDs created afterwards
// are hooked up automatically.
func (k *Kernel) EnableTrace() *trace.Tracer {
	if k.Tracer != nil {
		return k.Tracer
	}
	t := trace.New(len(k.Cores), 0)
	t.SelectorName = k.portalName
	t.PDName = func(id int) string {
		if id >= 0 && id < len(k.PDs) {
			return k.PDs[id].Name_
		}
		return ""
	}
	k.Tracer = t
	for _, pd := range k.PDs {
		k.traceVGIC(pd)
	}
	if k.Reconfig != nil {
		k.Reconfig.Trace = t.Core(k.hwSvc.Core.ID)
	}
	return t
}

// portalName resolves a hypercall selector to its portal object's name
// (empty when out of range, so the exporter falls back to sel_N).
func (k *Kernel) portalName(sel int) string {
	if sel >= 0 && sel < len(k.portalObjs) && k.portalObjs[sel] != nil {
		return k.portalObjs[sel].Name
	}
	return ""
}

// traceSched records a runqueue transition of pd (a sched_wake, carrying
// its priority, or a sched_block) on its home core's ring. Every
// Enqueue, Dequeue and Unplace runs on that core or inside the
// single-threaded barrier commit, both of which may write the ring.
func (k *Kernel) traceSched(kind trace.Kind, pd *PD) {
	if k.Tracer == nil {
		return
	}
	var prio uint64
	if kind == trace.KindSchedWake {
		prio = uint64(pd.Priority)
	}
	k.Tracer.Core(pd.Core.ID).Emit(pd.Core.Clock.Now(), kind, 0, uint64(pd.ID), prio)
}

// traceVGIC points one PD's vGIC transition hook at its core's ring.
func (k *Kernel) traceVGIC(pd *PD) {
	if pd.VGIC == nil {
		return
	}
	pd.VGIC.Trace = func(kind trace.Kind, irq int) {
		if pd.Core == nil {
			return
		}
		k.Tracer.Core(pd.Core.ID).Emit(pd.Core.Clock.Now(),
			kind, 0, uint64(irq), uint64(pd.ID))
	}
}

// traceCompletionIRQ records the completion-interrupt delivery that closes
// a reconfiguration flow, on the owning client's core.
func (k *Kernel) traceCompletionIRQ(own pcapOwner, irq int) {
	if k.Tracer == nil || own.pd.Core == nil {
		return
	}
	k.Tracer.Core(own.pd.Core.ID).Emit(own.pd.Core.Clock.Now(),
		trace.KindCompletionIRQ, own.flow, uint64(irq), uint64(own.pd.ID))
}

// traceHwReq closes the client-side span of one hardware-task request:
// from hypercall entry to the wake that delivered the reply. Emitted
// after resume (req.ID is stable by then on both the same-core and
// cross-core paths), backdated to the entry stamp.
func (k *Kernel) traceHwReq(c *CoreCtx, t0 simclock.Cycles, req *hwRequest) {
	if k.Tracer == nil {
		return
	}
	now := c.Clock.Now()
	k.Tracer.Core(c.ID).EmitSpan(t0, since(now, t0),
		trace.KindHwReq, uint64(req.ID), uint64(req.TaskID), uint64(req.reply))
}
