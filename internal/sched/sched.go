// Package sched is Mini-NOVA's scheduler: the paper's §III-D preemptive
// priority round-robin over double-linked circles per priority level,
// generalized to N CPUs with one runqueue per CPU and CPU-affinity
// masks. A one-bit mask pins an entity to a core, which is how the
// static partitioning of Arm mixed-criticality hypervisors is expressed
// here; with one CPU it reduces exactly to the paper's single run queue.
//
// A protection domain embeds one Node and the kernel hands that node to
// the Scheduler, so enqueue/dequeue stay allocation-free (intrusive
// rings). Enqueue, Dequeue and Unplace report whether the node changed
// state, which is what the kernel traces.
package sched

import (
	"fmt"

	"repro/internal/simclock"
)

// NumPriorities bounds the priority levels a runqueue tracks (paper
// Fig. 3: idle=0, guest OSes=1, user services=2; one spare).
const NumPriorities = 4

// CPUMask is a bitmask of CPUs an entity may run on (bit i = CPU i).
// The zero value is treated as "any CPU" by Normalize.
type CPUMask uint32

// MaskOf builds a mask allowing exactly the given CPUs.
func MaskOf(cpus ...int) CPUMask {
	var m CPUMask
	for _, c := range cpus {
		m |= 1 << uint(c)
	}
	return m
}

// Has reports whether cpu is in the mask.
func (m CPUMask) Has(cpu int) bool { return m&(1<<uint(cpu)) != 0 }

// Normalize clamps the mask to ncpu CPUs. A zero mask means "any CPU"
// and widens to all; a nonzero mask with no CPU in range is a caller bug
// (a pin that cannot be honored) and panics rather than silently placing
// the entity on a core it was supposed to be isolated from.
func (m CPUMask) Normalize(ncpu int) CPUMask {
	full := CPUMask(1)<<uint(ncpu) - 1
	if m == 0 {
		return full
	}
	if m&full == 0 {
		panic(fmt.Sprintf("sched: affinity %v names no CPU below %d", m, ncpu))
	}
	return m & full
}

func (m CPUMask) String() string { return fmt.Sprintf("cpus:%b", uint32(m)) }

// Node is one schedulable entity as the Scheduler sees it. The owner (a
// protection domain) embeds a Node and keeps Priority/Affinity current;
// everything lower-case belongs to the Scheduler.
type Node struct {
	// Owner is an opaque back-pointer for the kernel (the *PD).
	Owner any
	// Priority is the entity's level (higher runs first). Read at
	// Enqueue time; the node remembers the ring it joined so a later
	// priority change takes effect on the next enqueue.
	Priority int
	// Affinity restricts placement (zero = any CPU).
	Affinity CPUMask

	cpu      int // home CPU assigned by Place (-1 = unplaced)
	ringPrio int // priority ring the node currently sits on
	queued   bool
	next     *Node
	prev     *Node
}

// Queued reports whether the node is on a runqueue.
func (n *Node) Queued() bool { return n.queued }

// runqueue is one CPU's priority rings — the §III-D run-queue structure,
// now instantiated per CPU.
type runqueue struct {
	rings [NumPriorities]*Node // head of each priority circle (nil = empty)
}

// enqueue links n at the tail of its priority circle; false when it was
// already queued.
func (q *runqueue) enqueue(n *Node) bool {
	if n.queued {
		return false
	}
	n.queued = true
	n.ringPrio = clampPrio(n.Priority)
	head := q.rings[n.ringPrio]
	if head == nil {
		n.next, n.prev = n, n
		q.rings[n.ringPrio] = n
		return true
	}
	tail := head.prev
	tail.next, n.prev = n, tail
	n.next, head.prev = head, n
	return true
}

// dequeue unlinks n from its circle; false when it was not queued.
func (q *runqueue) dequeue(n *Node) bool {
	if !n.queued {
		return false
	}
	n.queued = false
	if n.next == n {
		q.rings[n.ringPrio] = nil
	} else {
		n.prev.next = n.next
		n.next.prev = n.prev
		if q.rings[n.ringPrio] == n {
			q.rings[n.ringPrio] = n.next
		}
	}
	n.next, n.prev = nil, nil
	return true
}

// pick returns the head of the highest non-empty priority circle.
func (q *runqueue) pick() *Node {
	for p := NumPriorities - 1; p >= 0; p-- {
		if q.rings[p] != nil {
			return q.rings[p]
		}
	}
	return nil
}

func (q *runqueue) rotate(prio int) {
	prio = clampPrio(prio)
	if q.rings[prio] != nil {
		q.rings[prio] = q.rings[prio].next
	}
}

func clampPrio(p int) int {
	if p < 0 {
		return 0
	}
	if p >= NumPriorities {
		return NumPriorities - 1
	}
	return p
}

// Scheduler is one runqueue per CPU plus the placement load that
// balances new entities across them.
type Scheduler struct {
	queues  []runqueue
	placed  []int // entities homed on each CPU (placement load)
	quantum simclock.Cycles
}

// New builds the scheduler for ncpu CPUs with the given default quantum.
func New(ncpu int, quantum simclock.Cycles) *Scheduler {
	if ncpu < 1 {
		panic("sched: need at least one CPU")
	}
	return &Scheduler{
		queues:  make([]runqueue, ncpu),
		placed:  make([]int, ncpu),
		quantum: quantum,
	}
}

// Quantum is the default time slice handed to a freshly picked node.
func (s *Scheduler) Quantum() simclock.Cycles { return s.quantum }

// Place assigns the node's home CPU and returns it: the least-loaded CPU
// in its affinity mask, lowest CPU id breaking ties. An already-placed
// node keeps its home while the mask still allows it. Called once per
// node before its first Enqueue.
func (s *Scheduler) Place(n *Node) int {
	mask := n.Affinity.Normalize(len(s.queues))
	if n.cpu >= 0 && mask.Has(n.cpu) {
		return n.cpu
	}
	best := -1
	for c := range s.queues {
		if mask.Has(c) && (best < 0 || s.placed[c] < s.placed[best]) {
			best = c
		}
	}
	if n.cpu >= 0 {
		s.placed[n.cpu]--
	}
	s.placed[best]++
	n.cpu = best
	return best
}

// Enqueue makes the node runnable at the tail of its priority ring on its
// home CPU. It reports whether the node became runnable (false when it
// already was).
func (s *Scheduler) Enqueue(n *Node) bool { return s.queues[s.homeOf(n)].enqueue(n) }

// Dequeue removes the node from its runqueue (suspend). It reports
// whether the node was runnable.
func (s *Scheduler) Dequeue(n *Node) bool { return s.queues[s.homeOf(n)].dequeue(n) }

// Unplace retires the node for good: it leaves its runqueue and its home
// CPU's placement load, so later Place calls no longer balance against a
// dead entity. It reports whether the node was runnable.
func (s *Scheduler) Unplace(n *Node) bool {
	was := s.Dequeue(n)
	if n.cpu >= 0 {
		s.placed[n.cpu]--
	}
	n.cpu = -1
	return was
}

// Pick returns the node to run next on cpu, or nil when its queue is
// empty. Pick does not dequeue.
func (s *Scheduler) Pick(cpu int) *Node { return s.queues[cpu].pick() }

// Rotate advances cpu's ring at prio after its head exhausted a quantum.
func (s *Scheduler) Rotate(cpu, prio int) { s.queues[cpu].rotate(prio) }

// homeOf returns the node's home CPU, defaulting an unplaced node to 0
// (Place should have run first; this keeps Dequeue total).
func (s *Scheduler) homeOf(n *Node) int {
	if n.cpu < 0 {
		return 0
	}
	return n.cpu
}

// NewNode initializes a Node for an owner (home CPU unassigned).
func NewNode(owner any, prio int, affinity CPUMask) Node {
	return Node{Owner: owner, Priority: prio, Affinity: affinity, cpu: -1}
}
