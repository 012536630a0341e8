package gic

import (
	"testing"
	"testing/quick"
)

func TestRaiseAckEOICycle(t *testing.T) {
	g := New()
	g.Enable(UARTIRQ)
	g.Raise(UARTIRQ)
	if !g.PendingDeliverable(0) {
		t.Fatal("enabled+pending not deliverable")
	}
	id := g.Acknowledge(0)
	if id != UARTIRQ {
		t.Fatalf("Acknowledge = %d, want %d", id, UARTIRQ)
	}
	if g.IsPending(UARTIRQ) {
		t.Error("pending latch survived acknowledge")
	}
	// While active, the same line cannot be re-delivered.
	g.Raise(UARTIRQ)
	if got := g.Acknowledge(0); got != SpuriousID {
		t.Errorf("re-delivery while active: got %d, want spurious", got)
	}
	g.EOI(0, UARTIRQ)
	if got := g.Acknowledge(0); got != UARTIRQ {
		t.Errorf("after EOI: Acknowledge = %d, want %d", got, UARTIRQ)
	}
}

func TestDisabledStaysLatched(t *testing.T) {
	g := New()
	g.Raise(PLIRQBase)
	if g.PendingDeliverable(0) {
		t.Error("disabled interrupt deliverable")
	}
	g.Enable(PLIRQBase)
	if !g.PendingDeliverable(0) {
		t.Error("latched interrupt lost on enable")
	}
}

func TestPriorityOrdering(t *testing.T) {
	g := New()
	g.Enable(PrivateTimerIRQ)
	g.Enable(PLIRQBase)
	g.SetPriority(PrivateTimerIRQ, 0x20)
	g.SetPriority(PLIRQBase, 0x80)
	g.Raise(PLIRQBase)
	g.Raise(PrivateTimerIRQ)
	if id := g.Acknowledge(0); id != PrivateTimerIRQ {
		t.Errorf("Acknowledge = %d, want higher-priority timer %d", id, PrivateTimerIRQ)
	}
	if id := g.Acknowledge(0); id != PLIRQBase {
		t.Errorf("second Acknowledge = %d, want %d", id, PLIRQBase)
	}
}

// The CPU interfaces keep their reset priority mask (GICC_PMR = 0xFF):
// every priority below it is taken, and priority 0xFF never is.
func TestPriorityMask(t *testing.T) {
	g := New()
	g.Enable(UARTIRQ)
	g.SetPriority(UARTIRQ, 0xFF)
	g.Raise(UARTIRQ)
	if g.PendingDeliverable(0) {
		t.Error("interrupt at the PMR value 0xFF delivered")
	}
	g.SetPriority(UARTIRQ, 0xFE)
	if !g.PendingDeliverable(0) {
		t.Error("interrupt just below the PMR not delivered")
	}
}

func TestTieBreakByID(t *testing.T) {
	g := New()
	g.Enable(PLIRQBase)
	g.Enable(PLIRQBase + 5)
	g.Raise(PLIRQBase + 5)
	g.Raise(PLIRQBase)
	if id := g.Acknowledge(0); id != PLIRQBase {
		t.Errorf("equal priorities: got %d, want lowest id %d", id, PLIRQBase)
	}
}

func TestStrayEOIIgnored(t *testing.T) {
	g := New()
	g.EOI(0, UARTIRQ) // must not panic or count
	if g.Stats().Completed != 0 {
		t.Error("stray EOI counted as completion")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range id did not panic")
		}
	}()
	New().Enable(NumIRQs)
}

// Property: acknowledged count never exceeds raised count, and every
// Acknowledge that returns a real ID leaves that ID active until EOI.
func TestPropertyAckBookkeeping(t *testing.T) {
	f := func(ops []uint8) bool {
		g := New()
		for id := 0; id < NumIRQs; id++ {
			g.Enable(id)
		}
		for _, op := range ops {
			id := int(op) % NumIRQs
			switch op % 3 {
			case 0:
				g.Raise(id)
			case 1:
				got := g.Acknowledge(0)
				if got != SpuriousID {
					if g.IsPending(got) {
						return false
					}
				}
			case 2:
				g.EOI(0, id)
			}
		}
		s := g.Stats()
		return s.Acknowledged <= s.Raised && s.Completed <= s.Acknowledged
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// --- multi-CPU interfaces and SGIs ---------------------------------------

func TestSGIDelivery(t *testing.T) {
	g := NewMP(2)
	const resched = 1
	g.Enable(resched)
	g.RaiseSGI(1, resched)
	// The SGI is banked: only the target CPU's interface sees it.
	if g.PendingDeliverable(0) {
		t.Error("SGI for CPU1 deliverable on CPU0")
	}
	if !g.PendingDeliverable(1) {
		t.Fatal("SGI not deliverable on its target CPU")
	}
	if id := g.Acknowledge(1); id != resched {
		t.Fatalf("CPU1 Acknowledge = %d, want SGI %d", id, resched)
	}
	if g.PendingDeliverable(1) {
		t.Error("SGI still deliverable while active")
	}
	g.EOI(1, resched)
	// Each interface banks its own active state: an SGI to CPU0 after
	// CPU1's cycle must deliver independently.
	g.RaiseSGI(0, resched)
	if id := g.Acknowledge(0); id != resched {
		t.Errorf("CPU0 Acknowledge = %d, want SGI %d", id, resched)
	}
	if s := g.Stats(); s.SGIsSent != 2 {
		t.Errorf("SGIsSent = %d, want 2", s.SGIsSent)
	}
}

func TestSGIPerCPUBanksIndependent(t *testing.T) {
	g := NewMP(2)
	const resched = 1
	g.Enable(resched)
	g.RaiseSGI(0, resched)
	g.RaiseSGI(1, resched)
	// Both interfaces hold their own pending latch for the same ID.
	if g.Acknowledge(0) != resched || g.Acknowledge(1) != resched {
		t.Fatal("banked SGI lost on one interface")
	}
	// CPU0's EOI must not complete CPU1's active SGI.
	g.EOI(0, resched)
	g.RaiseSGI(1, resched)
	if g.PendingDeliverable(1) {
		t.Error("SGI re-delivered on CPU1 while still active there")
	}
	g.EOI(1, resched)
	if !g.PendingDeliverable(1) {
		t.Error("latched SGI lost after EOI on CPU1")
	}
}

func TestSPITargetRouting(t *testing.T) {
	g := NewMP(2)
	g.Enable(PLIRQBase)
	g.SetTarget(PLIRQBase, 1)
	g.Raise(PLIRQBase)
	if g.PendingDeliverable(0) {
		t.Error("SPI routed to CPU1 deliverable on CPU0")
	}
	if id := g.Acknowledge(1); id != PLIRQBase {
		t.Errorf("CPU1 Acknowledge = %d, want %d", id, PLIRQBase)
	}
	if got := g.TargetOf(PLIRQBase); got != 1 {
		t.Errorf("TargetOf = %d, want 1", got)
	}
}

func TestPPIBankedPerCPU(t *testing.T) {
	g := NewMP(2)
	g.Enable(PrivateTimerIRQ) // enables every bank
	g.RaiseOn(1, PrivateTimerIRQ)
	if g.PendingDeliverable(0) {
		t.Error("CPU1's private timer visible on CPU0")
	}
	if id := g.Acknowledge(1); id != PrivateTimerIRQ {
		t.Errorf("CPU1 Acknowledge = %d, want private timer", id)
	}
}

func TestSGIOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SGI id >= NumSGIs did not panic")
		}
	}()
	NewMP(2).RaiseSGI(0, NumSGIs)
}
