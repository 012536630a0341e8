package sched

import "testing"

// ent is a minimal schedulable owner for tests.
type ent struct {
	id   int
	node Node
}

func mkEnt(id, prio int, mask CPUMask) *ent {
	e := &ent{id: id}
	e.node = NewNode(e, prio, mask)
	return e
}

func place(t *testing.T, p Policy, e *ent) {
	t.Helper()
	p.Place(&e.node)
}

func pickID(p Policy, cpu int) int {
	n := p.Pick(cpu)
	if n == nil {
		return -1
	}
	return n.Owner.(*ent).id
}

const (
	prioGuest   = 1
	prioService = 2
)

func TestPickHighestPriority(t *testing.T) {
	s := NewPrioRR(1, 1000)
	low := mkEnt(0, prioGuest, 0)
	high := mkEnt(1, prioService, 0)
	for _, e := range []*ent{low, high} {
		place(t, s, e)
		s.Enqueue(&e.node)
	}
	if got := pickID(s, 0); got != 1 {
		t.Errorf("Pick = ent%d, want the service-priority entity", got)
	}
	s.Dequeue(&high.node)
	if got := pickID(s, 0); got != 0 {
		t.Error("Pick did not fall back to lower priority")
	}
}

func TestRoundRobinRotation(t *testing.T) {
	s := NewPrioRR(1, 1000)
	for i := 0; i < 3; i++ {
		e := mkEnt(i, prioGuest, 0)
		place(t, s, e)
		s.Enqueue(&e.node)
	}
	// Rotation must cycle 0 -> 1 -> 2 -> 0.
	for round := 0; round < 6; round++ {
		if got := pickID(s, 0); got != round%3 {
			t.Fatalf("round %d: Pick = ent%d, want ent%d", round, got, round%3)
		}
		s.Rotate(0, prioGuest)
	}
}

func TestDequeueMidRing(t *testing.T) {
	s := NewPrioRR(1, 1000)
	var ents []*ent
	for i := 0; i < 4; i++ {
		e := mkEnt(i, prioGuest, 0)
		ents = append(ents, e)
		place(t, s, e)
		s.Enqueue(&e.node)
	}
	s.Dequeue(&ents[1].node)
	s.Dequeue(&ents[3].node)
	if n := s.RingLen(0, prioGuest); n != 2 {
		t.Fatalf("ring len = %d, want 2", n)
	}
	seen := map[int]bool{}
	for i := 0; i < 2; i++ {
		seen[pickID(s, 0)] = true
		s.Rotate(0, prioGuest)
	}
	if !seen[0] || !seen[2] {
		t.Errorf("remaining ring = %v, want {0,2}", seen)
	}
}

func TestDequeueHeadAdjusts(t *testing.T) {
	s := NewPrioRR(1, 1000)
	a, b := mkEnt(0, prioGuest, 0), mkEnt(1, prioGuest, 0)
	for _, e := range []*ent{a, b} {
		place(t, s, e)
		s.Enqueue(&e.node)
	}
	s.Dequeue(&a.node) // removing the head must promote b
	if got := pickID(s, 0); got != 1 {
		t.Error("head removal did not promote the next entity")
	}
	s.Dequeue(&b.node)
	if s.Pick(0) != nil {
		t.Error("empty runqueue still picks")
	}
}

func TestDoubleEnqueueIdempotent(t *testing.T) {
	s := NewPrioRR(1, 1000)
	a := mkEnt(0, prioGuest, 0)
	place(t, s, a)
	s.Enqueue(&a.node)
	s.Enqueue(&a.node)
	if n := s.RingLen(0, prioGuest); n != 1 {
		t.Errorf("double enqueue produced ring of %d", n)
	}
	s.Dequeue(&a.node)
	s.Dequeue(&a.node) // and double dequeue is harmless
	if s.Pick(0) != nil {
		t.Error("entity still schedulable after dequeue")
	}
}

func TestEnqueuePreservesRRWindow(t *testing.T) {
	// A re-enqueued entity goes to the tail: the current head keeps its
	// turn.
	s := NewPrioRR(1, 1000)
	a, b, c := mkEnt(0, prioGuest, 0), mkEnt(1, prioGuest, 0), mkEnt(2, prioGuest, 0)
	for _, e := range []*ent{a, b} {
		place(t, s, e)
		s.Enqueue(&e.node)
	}
	s.Dequeue(&a.node)
	place(t, s, c)
	s.Enqueue(&c.node)
	s.Enqueue(&a.node) // back at the tail, after c
	order := []int{}
	for i := 0; i < 3; i++ {
		order = append(order, pickID(s, 0))
		s.Rotate(0, prioGuest)
	}
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestPriorityChangeTakesEffectOnReenqueue(t *testing.T) {
	s := NewPrioRR(1, 1000)
	a, b := mkEnt(0, prioGuest, 0), mkEnt(1, prioGuest, 0)
	for _, e := range []*ent{a, b} {
		place(t, s, e)
		s.Enqueue(&e.node)
	}
	s.Dequeue(&b.node)
	b.node.Priority = prioService // promoted while suspended
	s.Enqueue(&b.node)
	if got := pickID(s, 0); got != 1 {
		t.Errorf("Pick = ent%d, want the promoted entity", got)
	}
	s.Dequeue(&b.node) // dequeue must come off the ring it joined
	if got := pickID(s, 0); got != 0 {
		t.Error("demotion bookkeeping broken: original guest lost")
	}
}

// --- multi-CPU behavior ---------------------------------------------------

func TestPrioRRBalancesPlacement(t *testing.T) {
	s := NewPrioRR(2, 1000)
	homes := map[int]int{}
	for i := 0; i < 4; i++ {
		e := mkEnt(i, prioGuest, 0) // any CPU
		homes[s.Place(&e.node)]++
		s.Enqueue(&e.node)
	}
	if homes[0] != 2 || homes[1] != 2 {
		t.Errorf("placement = %v, want 2 per CPU", homes)
	}
	if s.QueueLen(0) != 2 || s.QueueLen(1) != 2 {
		t.Errorf("queue lens = %d/%d, want 2/2", s.QueueLen(0), s.QueueLen(1))
	}
}

func TestPrioRRHonorsAffinity(t *testing.T) {
	s := NewPrioRR(2, 1000)
	// Load CPU1 with pinned entities, then place a free one: it must go
	// to CPU0 (least loaded), and a CPU1-pinned one must stay on CPU1.
	for i := 0; i < 3; i++ {
		e := mkEnt(i, prioGuest, MaskOf(1))
		if got := s.Place(&e.node); got != 1 {
			t.Fatalf("pinned entity placed on CPU%d", got)
		}
		s.Enqueue(&e.node)
	}
	free := mkEnt(9, prioGuest, 0)
	if got := s.Place(&free.node); got != 0 {
		t.Errorf("free entity placed on CPU%d, want 0 (least loaded)", got)
	}
	pinned := mkEnt(10, prioGuest, MaskOf(1))
	if got := s.Place(&pinned.node); got != 1 {
		t.Errorf("pinned entity placed on CPU%d, want 1", got)
	}
}

func TestPlacementStable(t *testing.T) {
	s := NewPrioRR(2, 1000)
	a := mkEnt(0, prioGuest, 0)
	first := s.Place(&a.node)
	// More load lands on the other CPU; re-placing must not migrate.
	for i := 1; i < 4; i++ {
		e := mkEnt(i, prioGuest, 0)
		s.Place(&e.node)
	}
	if again := s.Place(&a.node); again != first {
		t.Errorf("re-Place moved home %d -> %d", first, again)
	}
}

func TestPartitionedPinsLowestMaskBit(t *testing.T) {
	s := NewPartitioned(2, 1000)
	svc := mkEnt(0, prioService, MaskOf(1))
	if got := s.Place(&svc.node); got != 1 {
		t.Fatalf("service placed on CPU%d, want 1", got)
	}
	s.Enqueue(&svc.node)
	for i := 1; i < 4; i++ {
		g := mkEnt(i, prioGuest, MaskOf(0))
		if got := s.Place(&g.node); got != 0 {
			t.Fatalf("guest placed on CPU%d, want 0", got)
		}
		s.Enqueue(&g.node)
	}
	// Per-CPU picks are independent: CPU1 sees only the service even
	// though CPU0's guests are lower priority.
	if got := pickID(s, 1); got != 0 {
		t.Errorf("CPU1 pick = ent%d, want the pinned service", got)
	}
	if got := pickID(s, 0); got == 0 {
		t.Error("CPU0 picked the CPU1-pinned service")
	}
	multi := mkEnt(9, prioGuest, MaskOf(0, 1))
	if got := s.Place(&multi.node); got != 0 {
		t.Errorf("multi-bit mask placed on CPU%d, want lowest bit 0", got)
	}
}

func TestCPUMaskHelpers(t *testing.T) {
	m := MaskOf(0, 2)
	if !m.Has(0) || m.Has(1) || !m.Has(2) {
		t.Errorf("MaskOf(0,2) membership wrong: %v", m)
	}
	if m.First() != 0 || m.Count() != 2 {
		t.Errorf("First/Count = %d/%d, want 0/2", m.First(), m.Count())
	}
	if CPUMask(0).First() != -1 {
		t.Error("empty mask First should be -1")
	}
	if got := CPUMask(0).Normalize(2); got != MaskOf(0, 1) {
		t.Errorf("zero mask normalize = %v, want both CPUs", got)
	}
	if got := MaskOf(1, 3).Normalize(2); got != MaskOf(1) {
		t.Errorf("mixed mask normalize = %v, want out-of-range bits dropped", got)
	}
	// A nonzero mask with only out-of-range bits is an unhonorable pin:
	// it must panic, not silently float the entity onto other cores.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unsatisfiable mask did not panic")
			}
		}()
		MaskOf(5).Normalize(2)
	}()
}

func TestUnplaceReleasesPlacement(t *testing.T) {
	s := NewPrioRR(2, 1000)
	a, b := mkEnt(0, prioGuest, 0), mkEnt(1, prioGuest, 0)
	s.Place(&a.node)
	s.Place(&b.node) // one entity per CPU
	s.Enqueue(&a.node)
	home := a.node.CPU()
	s.Unplace(&a.node)
	if a.node.Queued() || a.node.CPU() != -1 {
		t.Error("Unplace left the node placed or queued")
	}
	// The freed CPU must be the least-loaded target again.
	c := mkEnt(2, prioGuest, 0)
	if got := s.Place(&c.node); got != home {
		t.Errorf("new entity placed on CPU%d, want freed CPU%d", got, home)
	}
}

func TestQuantumExposed(t *testing.T) {
	if q := NewPrioRR(1, 12345).Quantum(); q != 12345 {
		t.Errorf("Quantum = %d, want 12345", q)
	}
}
