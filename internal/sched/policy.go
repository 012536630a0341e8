package sched

import (
	"fmt"

	"repro/internal/simclock"
)

// New builds a policy by name — the registry declarative harnesses (the
// scenario engine, config-driven experiments) use to pick a scheduler
// from a spec string. Known names: "prio-rr" (default when name is
// empty) and "partitioned".
func New(name string, ncpu int, quantum simclock.Cycles) (Policy, error) {
	switch name {
	case "", "prio-rr":
		return NewPrioRR(ncpu, quantum), nil
	case "partitioned":
		return NewPartitioned(ncpu, quantum), nil
	}
	return nil, fmt.Errorf("sched: unknown policy %q", name)
}

// PrioRR is the default policy: the paper's preemptive priority
// round-robin (§III-D, Fig. 3) generalized to per-CPU runqueues. New
// entities are homed on the least-loaded CPU their affinity mask allows
// (load = entities already homed there), which balances symmetric guests
// across cores while still honoring pinning. With one CPU it reduces
// exactly to the paper's single run queue.
type PrioRR struct {
	multiQueue
}

// NewPrioRR builds the policy for ncpu CPUs with the given default
// quantum.
func NewPrioRR(ncpu int, quantum simclock.Cycles) *PrioRR {
	return &PrioRR{multiQueue: newMultiQueue(ncpu, quantum)}
}

// Place implements Policy: least-loaded CPU in the affinity mask, lowest
// CPU id breaking ties. An already-placed node keeps its home while the
// mask still allows it.
func (p *PrioRR) Place(n *Node) int {
	mask := n.Affinity.Normalize(p.NumCPUs())
	if n.cpu >= 0 && mask.Has(n.cpu) {
		return n.cpu
	}
	best := -1
	for c := 0; c < p.NumCPUs(); c++ {
		if !mask.Has(c) {
			continue
		}
		if best < 0 || p.placed[c] < p.placed[best] {
			best = c
		}
	}
	if best < 0 {
		best = 0 // unreachable after Normalize; stay total
	}
	return p.assign(n, best)
}

// Partitioned is the static-partitioning policy of mixed-criticality
// hypervisors (Bao-style): every entity is pinned to the lowest CPU of
// its affinity mask, deterministically and permanently — no balancing,
// no migration, so one partition's load can never perturb another's
// core. The paper's intended Zynq deployment (guests on CPU0, the
// Hardware Task Manager service on CPU1) is expressed as two one-bit
// masks under this policy.
type Partitioned struct {
	multiQueue
}

// NewPartitioned builds the policy for ncpu CPUs.
func NewPartitioned(ncpu int, quantum simclock.Cycles) *Partitioned {
	return &Partitioned{multiQueue: newMultiQueue(ncpu, quantum)}
}

// Place implements Policy: the lowest CPU the mask allows, always.
func (p *Partitioned) Place(n *Node) int {
	mask := n.Affinity.Normalize(p.NumCPUs())
	return p.assign(n, mask.First())
}
