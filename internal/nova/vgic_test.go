package nova

import (
	"sort"
	"testing"

	"repro/internal/gic"
)

// The record list must come back in ascending IRQ order no matter the
// registration order: the world-switch path programs the physical
// distributor straight from this walk, so any order instability leaks
// into the GIC op sequence (and from there into the simulated timeline).
func TestVGICLinesSorted(t *testing.T) {
	// A scrambled registration order over enough lines that map iteration
	// would essentially never come back sorted by accident.
	irqs := []int{61, 40, 75, 29, 63, 70, 62, 68, 64, 76, 66, 71, 65, 69, 67, 72, 73, 74, 32, 45}
	v := NewVGIC()
	for _, irq := range irqs {
		v.Register(irq)
		v.Enable(irq)
	}
	walk := func() (all, enabled []int) {
		for irq, en := range v.lines() {
			all = append(all, irq)
			if en {
				enabled = append(enabled, irq)
			}
		}
		return all, enabled
	}
	all, enabled := walk()
	for name, lines := range map[string][]int{"all": all, "enabled": enabled} {
		if len(lines) != len(irqs) {
			t.Fatalf("%s: got %d lines, want %d", name, len(lines), len(irqs))
		}
		if !sort.IntsAreSorted(lines) {
			t.Errorf("%s lines not in ascending order: %v", name, lines)
		}
	}
	// A disabled line stays in the walk, reported disabled.
	v.Disable(63)
	all, enabled = walk()
	if len(enabled) != len(irqs)-1 {
		t.Errorf("enabled lines after disable = %d, want %d", len(enabled), len(irqs)-1)
	}
	if len(all) != len(irqs) {
		t.Errorf("all lines after disable = %d, want %d", len(all), len(irqs))
	}
	// Unregistering a line in the middle, and registering one again, keeps
	// the walk sorted, and a second Register of a line adds nothing.
	v.Unregister(63)
	v.Register(40)
	all, _ = walk()
	if len(all) != len(irqs)-1 || !sort.IntsAreSorted(all) || v.Owns(63) {
		t.Errorf("lines after unregistering 63 = %v", all)
	}
}

// A line re-raised while in service (storm: the device fires again before
// the guest EOIs) must be redelivered at EOI, not silently dropped.
func TestVGICRelatchOnEOI(t *testing.T) {
	v := NewVGIC()
	irq := gic.PLIRQBase
	v.Register(irq)
	v.Enable(irq)

	if !v.Inject(irq) {
		t.Fatal("first injection refused")
	}
	if v.Inject(irq) {
		t.Fatal("in-service injection claimed immediate delivery")
	}
	if v.Relatched != 1 {
		t.Fatalf("Relatched = %d, want 1", v.Relatched)
	}
	// Guest drains and handles the first delivery, then EOIs.
	if got := v.DrainPending(); len(got) != 1 || got[0] != irq {
		t.Fatalf("first drain = %v, want [%d]", got, irq)
	}
	if !v.EOI(irq) {
		t.Fatal("EOI refused")
	}
	// The latched re-raise must now be pending again.
	if !v.HasPending() {
		t.Fatal("re-raised interrupt lost: nothing pending after EOI")
	}
	if got := v.DrainPending(); len(got) != 1 || got[0] != irq {
		t.Fatalf("redelivery drain = %v, want [%d]", got, irq)
	}
	if v.Injected != 2 {
		t.Fatalf("Injected = %d, want 2 (original + redelivery)", v.Injected)
	}
	// The redelivery is itself in service until EOI'd; after that the
	// line is clean.
	if !v.EOI(irq) {
		t.Fatal("second EOI refused")
	}
	if v.HasPending() {
		t.Fatal("stale pending after final EOI")
	}
}

// Multiple re-raises before EOI collapse into one redelivery (the latch
// is a level, not a counter).
func TestVGICRelatchCoalesces(t *testing.T) {
	v := NewVGIC()
	irq := gic.PLIRQBase + 3
	v.Register(irq)
	v.Enable(irq)
	v.Inject(irq)
	for i := 0; i < 5; i++ {
		v.Inject(irq)
	}
	if v.Relatched != 1 {
		t.Fatalf("Relatched = %d, want 1 (coalesced)", v.Relatched)
	}
	v.DrainPending()
	v.EOI(irq)
	if got := v.DrainPending(); len(got) != 1 {
		t.Fatalf("redelivery drain = %v, want exactly one", got)
	}
}

// Disabling a line while its re-raise is latched drops the latch: the
// guest masked the source, so EOI must not resurrect it.
func TestVGICDisableClearsLatch(t *testing.T) {
	v := NewVGIC()
	irq := gic.PLIRQBase + 1
	v.Register(irq)
	v.Enable(irq)
	v.Inject(irq)
	v.Inject(irq) // latched
	v.Disable(irq)
	v.DrainPending()
	v.EOI(irq)
	if v.HasPending() {
		t.Fatal("masked line redelivered after EOI")
	}
}

// Unregister must purge queued injections and in-service state: a drained
// guest must never dispatch an interrupt for a line it already released,
// and a later re-registration starts clean.
func TestVGICUnregisterPurgesPending(t *testing.T) {
	v := NewVGIC()
	keep := gic.PLIRQBase
	gone := gic.PLIRQBase + 2
	for _, irq := range []int{keep, gone} {
		v.Register(irq)
		v.Enable(irq)
		if !v.Inject(irq) {
			t.Fatalf("injection refused for %d", irq)
		}
	}

	v.Unregister(gone)
	for _, irq := range v.DrainPending() {
		if irq == gone {
			t.Fatalf("dispatched vIRQ %d for an unregistered line", gone)
		}
	}
	if v.Owns(gone) {
		t.Fatal("unregistered line still owned")
	}

	// Re-register: the line must not carry the old in-service state —
	// a fresh injection must deliver immediately.
	v.Register(gone)
	v.Enable(gone)
	if !v.Inject(gone) {
		t.Fatal("injection on a re-registered line refused (stale in-service state)")
	}
	if got := v.DrainPending(); len(got) != 1 || got[0] != gone {
		t.Fatalf("drain after re-register = %v, want [%d]", got, gone)
	}
}
