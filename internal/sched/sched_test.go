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

func place(t *testing.T, s *Scheduler, e *ent) {
	t.Helper()
	s.Place(&e.node)
}

func pickID(s *Scheduler, cpu int) int {
	n := s.Pick(cpu)
	if n == nil {
		return -1
	}
	return n.Owner.(*ent).id
}

// ringLen counts the nodes on one CPU's ring at one priority level.
func ringLen(s *Scheduler, cpu, prio int) int {
	head := s.queues[cpu].rings[prio]
	if head == nil {
		return 0
	}
	n := 1
	for p := head.next; p != head; p = p.next {
		n++
	}
	return n
}

const (
	prioGuest   = 1
	prioService = 2
)

func TestPickHighestPriority(t *testing.T) {
	s := New(1, 1000)
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
	s := New(1, 1000)
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
	s := New(1, 1000)
	var ents []*ent
	for i := 0; i < 4; i++ {
		e := mkEnt(i, prioGuest, 0)
		ents = append(ents, e)
		place(t, s, e)
		s.Enqueue(&e.node)
	}
	s.Dequeue(&ents[1].node)
	s.Dequeue(&ents[3].node)
	if n := ringLen(s, 0, prioGuest); n != 2 {
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
	s := New(1, 1000)
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
	s := New(1, 1000)
	a := mkEnt(0, prioGuest, 0)
	place(t, s, a)
	// Each transition reports whether the node changed state: only the
	// first of two enqueues (and of two dequeues) is a wake (a block).
	if !s.Enqueue(&a.node) || s.Enqueue(&a.node) {
		t.Error("Enqueue reports: want true, then false for the queued node")
	}
	if n := ringLen(s, 0, prioGuest); n != 1 {
		t.Errorf("double enqueue produced ring of %d", n)
	}
	if !s.Dequeue(&a.node) || s.Dequeue(&a.node) {
		t.Error("Dequeue reports: want true, then false for the dequeued node")
	}
	if s.Pick(0) != nil {
		t.Error("entity still schedulable after dequeue")
	}
}

func TestEnqueuePreservesRRWindow(t *testing.T) {
	// A re-enqueued entity goes to the tail: the current head keeps its
	// turn.
	s := New(1, 1000)
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
	s := New(1, 1000)
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
	s := New(2, 1000)
	homes := map[int]int{}
	for i := 0; i < 4; i++ {
		e := mkEnt(i, prioGuest, 0) // any CPU
		homes[s.Place(&e.node)]++
		s.Enqueue(&e.node)
	}
	if homes[0] != 2 || homes[1] != 2 {
		t.Errorf("placement = %v, want 2 per CPU", homes)
	}
	if l0, l1 := ringLen(s, 0, prioGuest), ringLen(s, 1, prioGuest); l0 != 2 || l1 != 2 {
		t.Errorf("queue lens = %d/%d, want 2/2", l0, l1)
	}
}

func TestPrioRRHonorsAffinity(t *testing.T) {
	s := New(2, 1000)
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
	// Per-CPU picks are independent: a service-priority entity pinned to
	// CPU1 wins there, and never on CPU0, whose guest is lower priority.
	svc := mkEnt(11, prioService, MaskOf(1))
	s.Place(&svc.node)
	s.Enqueue(&svc.node)
	s.Enqueue(&free.node)
	if got := pickID(s, 1); got != 11 {
		t.Errorf("CPU1 pick = ent%d, want the pinned service", got)
	}
	if got := pickID(s, 0); got != 9 {
		t.Errorf("CPU0 pick = ent%d, want its own guest", got)
	}
}

func TestPlacementStable(t *testing.T) {
	s := New(2, 1000)
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

func TestCPUMaskHelpers(t *testing.T) {
	m := MaskOf(0, 2)
	if !m.Has(0) || m.Has(1) || !m.Has(2) {
		t.Errorf("MaskOf(0,2) membership wrong: %v", m)
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
	s := New(2, 1000)
	a, b := mkEnt(0, prioGuest, 0), mkEnt(1, prioGuest, 0)
	s.Place(&a.node)
	s.Place(&b.node) // one entity per CPU
	s.Enqueue(&a.node)
	home := a.node.cpu
	if !s.Unplace(&a.node) {
		t.Error("Unplace of a runnable node reported no dequeue")
	}
	if a.node.Queued() || a.node.cpu != -1 {
		t.Error("Unplace left the node placed or queued")
	}
	// The freed CPU must be the least-loaded target again.
	c := mkEnt(2, prioGuest, 0)
	if got := s.Place(&c.node); got != home {
		t.Errorf("new entity placed on CPU%d, want freed CPU%d", got, home)
	}
	if s.Unplace(&b.node) {
		t.Error("Unplace of a never-enqueued node reported a dequeue")
	}
}

func TestQuantumExposed(t *testing.T) {
	if q := New(1, 12345).Quantum(); q != 12345 {
		t.Errorf("Quantum = %d, want 12345", q)
	}
}
