// Package sched is Mini-NOVA's pluggable scheduling subsystem. The paper's
// §III-D scheduler — preemptive priority round-robin over double-linked
// circles per priority level — is one Policy implementation; the package
// generalizes it to N CPUs with per-CPU runqueues and CPU-affinity masks,
// the architectural pivot that static-partitioning hypervisors for Arm
// mixed-criticality systems use to host partitioned multicore workloads.
//
// The kernel talks to the subsystem exclusively through the Policy
// interface and schedules opaque Nodes; it never sees runqueue internals.
// A protection domain embeds one Node and the kernel hands that node to
// the policy, so enqueue/dequeue stay allocation-free (intrusive rings).
package sched

import (
	"fmt"
	"math/bits"

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

// First returns the lowest CPU in the mask, or -1 when empty.
func (m CPUMask) First() int {
	if m == 0 {
		return -1
	}
	return bits.TrailingZeros32(uint32(m))
}

// Count returns the number of CPUs in the mask.
func (m CPUMask) Count() int { return bits.OnesCount32(uint32(m)) }

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

// Node is one schedulable entity as the policies see it. The owner (a
// protection domain) embeds a Node and keeps Priority/Affinity current;
// everything lower-case belongs to the policy that placed the node.
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

// CPU returns the node's home CPU (-1 before Place).
func (n *Node) CPU() int { return n.cpu }

// Queued reports whether the node is on a runqueue.
func (n *Node) Queued() bool { return n.queued }

// Observer receives runqueue transitions — the hook the kernel's tracing
// layer uses to record scheduling decisions. Callbacks fire only on real
// state changes (an idempotent re-Enqueue of a queued node is silent) and
// run synchronously on whatever goroutine performed the operation, which
// under the kernel's discipline is the node's home core or the
// single-threaded epoch commit. Observers must not call back into the
// policy.
type Observer interface {
	// Enqueued fires when a node becomes runnable.
	Enqueued(n *Node)
	// Dequeued fires when a node leaves its runqueue.
	Dequeued(n *Node)
	// Rotated fires when a CPU's priority ring advances after a quantum.
	Rotated(cpu, prio int)
}

// Observable is implemented by policies that can report runqueue
// transitions (both built-in policies, via multiQueue).
type Observable interface {
	SetObserver(o Observer)
}

// Policy is the scheduler interface the kernel depends on. All methods
// are single-threaded (the platform model is one event loop).
type Policy interface {
	// NumCPUs returns the number of per-CPU runqueues.
	NumCPUs() int
	// Quantum is the default time slice handed to a freshly picked node.
	Quantum() simclock.Cycles
	// Place assigns (or re-validates) the node's home CPU from its
	// affinity mask and returns it. Called once per node before its
	// first Enqueue; placement is stable thereafter.
	Place(n *Node) int
	// Enqueue makes the node runnable on its home CPU's queue, at the
	// tail of its priority ring. Idempotent.
	Enqueue(n *Node)
	// Dequeue removes the node from its runqueue (suspend). Idempotent.
	Dequeue(n *Node)
	// Unplace retires the node for good: dequeues it and releases its
	// home-CPU placement so dead entities stop weighing on balancing.
	Unplace(n *Node)
	// Pick returns the node to run next on cpu, or nil when the CPU's
	// queue is empty. Pick does not dequeue.
	Pick(cpu int) *Node
	// Rotate advances cpu's ring at the given priority after its head
	// exhausted a quantum.
	Rotate(cpu, prio int)
	// Queued reports whether the node is currently runnable.
	Queued(n *Node) bool
}

// runqueue is one CPU's priority rings — the §III-D run-queue structure,
// now instantiated per CPU.
type runqueue struct {
	rings [NumPriorities]*Node // head of each priority circle (nil = empty)
}

func (q *runqueue) enqueue(n *Node) {
	if n.queued {
		return
	}
	n.queued = true
	n.ringPrio = clampPrio(n.Priority)
	head := q.rings[n.ringPrio]
	if head == nil {
		n.next, n.prev = n, n
		q.rings[n.ringPrio] = n
		return
	}
	tail := head.prev
	tail.next, n.prev = n, tail
	n.next, head.prev = head, n
}

func (q *runqueue) dequeue(n *Node) {
	if !n.queued {
		return
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

// ringLen counts the nodes at one priority level (tests, load metrics).
func (q *runqueue) ringLen(prio int) int {
	head := q.rings[clampPrio(prio)]
	if head == nil {
		return 0
	}
	n, p := 1, head.next
	for p != head {
		n++
		p = p.next
	}
	return n
}

func (q *runqueue) len() int {
	total := 0
	for p := 0; p < NumPriorities; p++ {
		total += q.ringLen(p)
	}
	return total
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

// multiQueue is the shared core of the built-in policies: one runqueue
// per CPU plus the bookkeeping both placement strategies need.
type multiQueue struct {
	queues  []runqueue
	placed  []int // entities homed on each CPU (placement load)
	quantum simclock.Cycles
	obs     Observer
}

func newMultiQueue(ncpu int, quantum simclock.Cycles) multiQueue {
	if ncpu < 1 {
		panic("sched: need at least one CPU")
	}
	return multiQueue{
		queues:  make([]runqueue, ncpu),
		placed:  make([]int, ncpu),
		quantum: quantum,
	}
}

func (m *multiQueue) NumCPUs() int             { return len(m.queues) }
func (m *multiQueue) Quantum() simclock.Cycles { return m.quantum }
func (m *multiQueue) Queued(n *Node) bool      { return n.queued }

// SetObserver implements Observable.
func (m *multiQueue) SetObserver(o Observer) { m.obs = o }

func (m *multiQueue) Rotate(cpu, prio int) {
	m.queues[cpu].rotate(prio)
	if m.obs != nil {
		m.obs.Rotated(cpu, prio)
	}
}

func (m *multiQueue) Dequeue(n *Node) {
	was := n.queued
	m.queues[m.homeOf(n)].dequeue(n)
	if was && !n.queued && m.obs != nil {
		m.obs.Dequeued(n)
	}
}

func (m *multiQueue) Enqueue(n *Node) {
	was := n.queued
	m.queues[m.homeOf(n)].enqueue(n)
	if !was && n.queued && m.obs != nil {
		m.obs.Enqueued(n)
	}
}

// Unplace implements Policy: the node leaves its runqueue and its home
// CPU's placement count, so future Place calls no longer balance against
// a retired entity.
func (m *multiQueue) Unplace(n *Node) {
	m.Dequeue(n)
	if n.cpu >= 0 && n.cpu < len(m.placed) {
		m.placed[n.cpu]--
	}
	n.cpu = -1
}

func (m *multiQueue) Pick(cpu int) *Node { return m.queues[cpu].pick() }

// RingLen counts runnable nodes at one priority level on one CPU.
func (m *multiQueue) RingLen(cpu, prio int) int { return m.queues[cpu].ringLen(prio) }

// QueueLen counts all runnable nodes on one CPU.
func (m *multiQueue) QueueLen(cpu int) int { return m.queues[cpu].len() }

// homeOf returns the node's home CPU, defaulting an unplaced node to 0
// (a policy's Place should have run first; this keeps Dequeue total).
func (m *multiQueue) homeOf(n *Node) int {
	if n.cpu < 0 || n.cpu >= len(m.queues) {
		return 0
	}
	return n.cpu
}

func (m *multiQueue) assign(n *Node, cpu int) int {
	if n.cpu >= 0 && n.cpu < len(m.placed) && n.cpu != cpu {
		m.placed[n.cpu]--
	}
	if n.cpu != cpu {
		m.placed[cpu]++
	}
	n.cpu = cpu
	return cpu
}

// NewNode initializes a Node for an owner (home CPU unassigned).
func NewNode(owner any, prio int, affinity CPUMask) Node {
	return Node{Owner: owner, Priority: prio, Affinity: affinity, cpu: -1}
}
