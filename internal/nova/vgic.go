package nova

import (
	"iter"
	"slices"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/trace"
)

// VGIC is one virtual machine's virtual interrupt controller (paper
// §III-B, Fig. 2): a record list of the interrupt lines the VM uses, each
// entry tracking the virtual state of that line, plus the VM's registered
// IRQ entry. The physical GIC stays under exclusive kernel control; on
// every VM switch the kernel masks the outgoing VM's lines and unmasks the
// incoming VM's enabled lines (§III-B).
type VGIC struct {
	// recs is the record list proper: one record per registered line, in
	// ascending IRQ order, found by binary search (find). Every walk of
	// the record list (lines) goes through it in that order, so the
	// distributor-op sequence is identical run to run. The records are
	// the checkpoint's own type, so a capture copies the list whole.
	recs []checkpoint.VGICLine

	// Entry is the VM's IRQ handler entry point, registered by the guest.
	// The kernel "injects" a virtual IRQ by scheduling this callback to
	// run in guest context (the guest's RunSlice drains pending vIRQs).
	Entry func(irq int)

	// pending vIRQs injected while the VM was not running (Fig. 6: "the
	// IRQ state remains the same until the next time the VM is scheduled").
	pending []int

	// Injected counts total injections (for the experiment probes).
	Injected uint64

	// Relatched counts injections that arrived while the line was still
	// in service and were latched for redelivery at EOI — the
	// level-triggered re-raise a storm produces.
	Relatched uint64

	// Trace, when set, receives every vGIC state transition
	// (KindVGICInject / KindVGICEOI / KindVGICRelatch). The kernel's
	// tracing layer points this at the owning core's event ring; it runs
	// synchronously on whatever goroutine performed the operation and
	// must not mutate vGIC state.
	Trace func(kind trace.Kind, irq int)
}

// NewVGIC returns an empty vGIC.
func NewVGIC() *VGIC { return &VGIC{} }

// search returns where irq's record is, or would go in the record list,
// and whether the line is registered.
func (v *VGIC) search(irq int) (int, bool) {
	i := sort.Search(len(v.recs), func(i int) bool { return v.recs[i].IRQ >= irq })
	return i, i < len(v.recs) && v.recs[i].IRQ == irq
}

// find returns irq's record, or nil when the line is not registered.
func (v *VGIC) find(irq int) *checkpoint.VGICLine {
	if i, ok := v.search(irq); ok {
		return &v.recs[i]
	}
	return nil
}

// Register adds an interrupt line to the VM's record list (disabled).
func (v *VGIC) Register(irq int) {
	if i, ok := v.search(irq); !ok {
		v.recs = slices.Insert(v.recs, i, checkpoint.VGICLine{IRQ: irq})
	}
}

// Unregister removes a line (task released, VM torn down), purging every
// trace of it: a queued-but-undelivered injection must not dispatch after
// the VM released the line, and a fresh Register must start from a clean
// (not in-service) state.
func (v *VGIC) Unregister(irq int) {
	i, ok := v.search(irq)
	if !ok {
		return
	}
	v.recs = slices.Delete(v.recs, i, i+1)
	kept := v.pending[:0]
	for _, p := range v.pending {
		if p != irq {
			kept = append(kept, p)
		}
	}
	v.pending = kept
}

// Enable marks a registered line enabled; reports whether the line exists.
func (v *VGIC) Enable(irq int) bool {
	e := v.find(irq)
	if e != nil {
		e.Enabled = true
	}
	return e != nil
}

// Disable masks a line in the vGIC. A latched re-raise is dropped: the
// guest explicitly masked the source, so redelivering it on EOI would
// resurrect an interrupt the guest asked not to see.
func (v *VGIC) Disable(irq int) bool {
	e := v.find(irq)
	if e != nil {
		e.Enabled = false
		e.RePending = false
	}
	return e != nil
}

// Owns reports whether the line is in this VM's record list.
func (v *VGIC) Owns(irq int) bool {
	_, ok := v.search(irq)
	return ok
}

// lines walks the record list in place, in ascending IRQ order,
// yielding each registered line and whether it is enabled. The world
// switch masks every line of the outgoing VM and unmasks the incoming
// VM's enabled ones straight from this walk.
func (v *VGIC) lines() iter.Seq2[int, bool] {
	return func(yield func(irq int, enabled bool) bool) {
		for _, e := range v.recs {
			if !yield(e.IRQ, e.Enabled) {
				return
			}
		}
	}
}

// Inject queues a virtual interrupt for delivery. The caller (kernel IRQ
// path) has already EOI'd the physical GIC; "it is the guest OS'
// responsibility to manage its own vIRQ state" from here (§III-B).
//
// A line that is still in service (injected, not yet EOI'd) latches a
// re-pending bit instead of dropping the event: the source is
// level-triggered, so the interrupt is redelivered when the guest EOIs.
// Returns whether a new injection was queued now.
func (v *VGIC) Inject(irq int) bool {
	e := v.find(irq)
	if e == nil || !e.Enabled {
		return false
	}
	if e.InService {
		if !e.RePending {
			e.RePending = true
			v.Relatched++
			if v.Trace != nil {
				v.Trace(trace.KindVGICRelatch, irq)
			}
		}
		return false
	}
	e.InService = true
	v.pending = append(v.pending, irq)
	v.Injected++
	if v.Trace != nil {
		v.Trace(trace.KindVGICInject, irq)
	}
	return true
}

// EOI completes a previously injected vIRQ. A re-raise latched while the
// line was in service is re-injected immediately, so level-triggered
// interrupts are never lost under storms.
func (v *VGIC) EOI(irq int) bool {
	e := v.find(irq)
	if e == nil || !e.InService {
		return false
	}
	e.InService = false
	if v.Trace != nil {
		v.Trace(trace.KindVGICEOI, irq)
	}
	if e.RePending && e.Enabled {
		e.RePending = false
		e.InService = true
		v.pending = append(v.pending, irq)
		v.Injected++
		if v.Trace != nil {
			v.Trace(trace.KindVGICInject, irq)
		}
	}
	return true
}

// DrainPending pops all queued injections in arrival order. The guest's
// run loop calls this and dispatches each through its IRQ entry.
func (v *VGIC) DrainPending() []int {
	p := v.pending
	v.pending = nil
	return p
}

// HasPending reports whether injected vIRQs await delivery.
func (v *VGIC) HasPending() bool { return len(v.pending) > 0 }

// snapshotLines returns fresh copies of the record list and the queued
// injections, for a checkpoint image.
func (v *VGIC) snapshotLines() (lines []checkpoint.VGICLine, pending []int) {
	return slices.Clone(v.recs), slices.Clone(v.pending)
}

// restoreLines replaces the record list and the queued injections with
// copies of a checkpoint's. Counters (Injected/Relatched) are the
// restored VM's own and start at zero on a fresh clone; an in-place
// restore keeps the PD's live counters by design — they are cumulative
// activity statistics, not vCPU state.
func (v *VGIC) restoreLines(lines []checkpoint.VGICLine, pending []int) {
	v.recs, v.pending = append(v.recs[:0], lines...), slices.Clone(pending)
}
