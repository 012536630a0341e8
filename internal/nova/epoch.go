package nova

import (
	"sync"

	"repro/internal/cpu"
	"repro/internal/measure"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// DefaultEpoch is the conservative epoch length of a multi-core run:
// cross-core effects (wakes, request postings, IPC handoffs) initiated
// inside an epoch are delivered at its barrier, so the epoch bounds the
// model's cross-core signalling latency. 20 µs sits well under the
// measured manager-entry and wake latencies the scenarios assert, while
// keeping barrier frequency low enough for the parallel engine to win
// wall-clock on multi-core workloads.
const DefaultEpoch = simclock.Cycles(20 * simclock.CyclesPerMicrosecond)

// farFuture is the "no event, no work" horizon sentinel.
const farFuture = ^simclock.Cycles(0)

// since returns now-from, clamped at zero: a probe armed by a peer core
// inside the same epoch may carry a stamp slightly ahead of this core's
// cursor, which the conservative engine reads as a zero-length phase.
func since(now, from simclock.Cycles) simclock.Cycles {
	if now < from {
		return 0
	}
	return now - from
}

// post defers fn to the next epoch barrier, stamped with core c's current
// time. The committer replays deferred effects in (time, core, seq) order,
// which is a pure function of simulated state — host scheduling cannot
// reorder them.
func (k *Kernel) post(c *CoreCtx, fn func()) {
	k.committer.Post(c.ID, c.Clock.Now(), fn)
}

// onCore applies fn(pd), an effect that code on core from has on core
// to's state: now when the two are one core, as they always are on a
// single-core machine, and at the next barrier otherwise, since to's
// goroutine may be running.
func (k *Kernel) onCore(from, to *CoreCtx, fn func(*PD), pd *PD) {
	if from == to {
		fn(pd)
		return
	}
	k.post(from, func() { fn(pd) })
}

// serialize applies fn, an effect on state that every core may observe
// (a line's routing), now on a single-core machine or inside a barrier
// commit, and otherwise at the next barrier, stamped with core c's time.
func (k *Kernel) serialize(c *CoreCtx, fn func()) {
	if len(k.Cores) == 1 || k.inCommit {
		fn()
		return
	}
	k.post(c, fn)
}

// wakeFrom wakes pd from core c's context. A wake onto the issuing core
// (and every wake inside a barrier commit) applies immediately; a
// cross-core wake is charged the doorbell write on the waker and
// delivered at the next epoch barrier — the conservative engine bounds
// cross-core latency by one epoch instead of making it instantaneous.
func (k *Kernel) wakeFrom(c *CoreCtx, pd *PD) {
	if c == nil || c == pd.Core || k.inCommit {
		k.wake(pd)
		return
	}
	c.Clock.Advance(CostDeviceAccess) // GICD_SGIR doorbell
	k.post(c, func() { k.wake(pd) })
}

// drainCommits replays every deferred cross-core effect at an epoch
// barrier. Commits run with all cores parked, so they may touch any
// core's scheduler ring, vGIC or GIC bank — but never advance a clock
// (costs were charged on the posting core).
func (k *Kernel) drainCommits() {
	before := k.committer.Commits
	k.inCommit = true
	for k.committer.Pending() {
		k.committer.Commit()
	}
	k.inCommit = false
	if fired := k.committer.Commits - before; fired > 0 && k.Tracer != nil {
		// One event per non-empty barrier on core 0's ring (the commit
		// replay is single-threaded, so writing ring 0 here is safe).
		k.Tracer.Core(0).Emit(k.Cores[0].Clock.Now(),
			trace.KindEpochCommit, 0, k.Epochs, fired)
	}
	k.refreshPRRSnapshot()
}

// refreshPRRSnapshot re-reads every PRR's busy state at a barrier. During
// an epoch the manager polls PRRBusy against this snapshot: the live
// registers change on the owning client's clock, which another core must
// not read mid-epoch.
func (k *Kernel) refreshPRRSnapshot() {
	if k.Fabric == nil {
		return
	}
	if len(k.prrBusySnap) != len(k.Fabric.PRRs) {
		k.prrBusySnap = make([]bool, len(k.Fabric.PRRs))
	}
	for i := range k.prrBusySnap {
		k.prrBusySnap[i] = k.Fabric.Busy(i)
	}
}

// PRRBusy reports whether PRR r is executing a hardware task. Inside a
// parallel run the reading core sees the epoch-entry snapshot, at most
// one epoch stale — within the polling granularity the workloads use.
func (k *Kernel) PRRBusy(r int) bool {
	if k.Fabric == nil {
		return false
	}
	if len(k.Cores) == 1 || !k.running {
		return k.Fabric.Busy(r)
	}
	if r >= 0 && r < len(k.prrBusySnap) {
		return k.prrBusySnap[r]
	}
	return false
}

// reconfigCore is the core the reconfiguration machinery (PCAP, fabric
// default clock, request bookkeeping) runs on: the manager service's home
// core once one is registered.
func (k *Kernel) reconfigCore() *CoreCtx {
	if k.hwSvc != nil {
		return k.hwSvc.Core
	}
	return k.Cores[0]
}

// RunParallel advances the system to the given absolute time using the
// conservative epoch-barrier engine, spreading the simulated cores over
// shards host goroutines. The result is byte-identical for every shard
// count: within an epoch the cores touch disjoint simulated state
// (cross-core effects are deferred to the barrier), so host interleaving
// cannot be observed.
func (k *Kernel) RunParallel(until simclock.Cycles, shards int) {
	k.runEpochs(until, min(max(shards, 1), len(k.Cores)))
}

// RunParallelFor advances the system by d cycles with RunParallel.
func (k *Kernel) RunParallelFor(d simclock.Cycles, shards int) {
	k.RunParallel(k.Clock.Now()+d, shards)
}

// runEpochs is the epoch-barrier engine. Each iteration computes the
// earliest instant any lagging core could act (run a PD or fire a local
// event), closes the epoch window at the next epoch boundary past it,
// runs every core independently up to the window edge, then commits the
// deferred cross-core effects. Cores with nothing to do jump straight to
// the window edge, so an idle-heavy system advances at event resolution,
// not epoch resolution. A single core has no peer whose skew an epoch
// would bound, so its one window reaches the horizon and counts no epoch.
func (k *Kernel) runEpochs(until simclock.Cycles, shards int) {
	k.running = true
	defer func() { k.running = false }()
	k.refreshPRRSnapshot()

	// Persistent shard workers: one goroutine per shard for the whole run,
	// fed an epoch window per barrier round. Spawning fresh goroutines
	// every 20 µs epoch costs more than the barrier itself on small
	// windows. The channel send publishes the commit phase's writes to the
	// worker; wg.Done/Wait publishes the slice's writes back — the same
	// happens-before edges the per-epoch spawn provided.
	var crew []chan simclock.Cycles
	var wg sync.WaitGroup
	if shards > 1 {
		crew = make([]chan simclock.Cycles, shards)
		for s := range crew {
			ch := make(chan simclock.Cycles)
			crew[s] = ch
			go func(s int, ch chan simclock.Cycles) {
				for w := range ch {
					for i := s; i < len(k.Cores); i += shards {
						if c := k.Cores[i]; c.Clock.Now() < w {
							k.runSlice(c, w)
						}
					}
					wg.Done()
				}
			}(s, ch)
		}
		defer func() {
			for _, ch := range crew {
				close(ch)
			}
		}()
	}
	for {
		t := farFuture
		allDone := true
		for _, c := range k.Cores {
			if c.Clock.Now() >= until {
				continue
			}
			allDone = false
			ct := farFuture
			if k.Sched.Pick(c.ID) != nil {
				ct = c.Clock.Now()
			} else if d, ok := c.Clock.NextDeadline(); ok {
				ct = d
			}
			if ct < t {
				t = ct
			}
		}
		if allDone {
			break
		}
		if t == farFuture {
			// No lagging core has runnable work or a timed event. Deferred
			// commits may still create some; failing that, nothing can
			// happen before the horizon — fast-forward everyone.
			if k.committer.Pending() {
				k.drainCommits()
				continue
			}
			for _, c := range k.Cores {
				c.Clock.AdvanceTo(until)
			}
			break
		}
		w := until
		if len(k.Cores) > 1 {
			w = min(t/DefaultEpoch*DefaultEpoch+DefaultEpoch, until)
			k.Epochs++
		}
		if shards <= 1 {
			for _, c := range k.Cores {
				if c.Clock.Now() < w {
					k.runSlice(c, w)
				}
			}
		} else {
			wg.Add(shards)
			for _, ch := range crew {
				ch <- w
			}
			wg.Wait()
		}
		k.drainCommits()
	}
	k.drainCommits()
}

// runSlice advances one core to the epoch window edge w: deliver latched
// cross-core interrupts, then alternate scheduling windows and local-event
// sleeps until the core's cursor reaches w.
func (k *Kernel) runSlice(c *CoreCtx, w simclock.Cycles) {
	c.CPU.IRQMasked = false
	c.CPU.PollIRQ()
	c.CPU.IRQMasked = true
	for c.Clock.Now() < w {
		var pd *PD
		for {
			n := k.Sched.Pick(c.ID)
			if n == nil {
				break
			}
			p := n.Owner.(*PD)
			if !p.dead {
				pd = p
				break
			}
			if k.Sched.Dequeue(n) {
				k.traceSched(trace.KindSchedBlock, p)
			}
		}
		if pd == nil {
			d, ok := c.Clock.NextDeadline()
			if !ok || d > w {
				c.Clock.AdvanceTo(w)
				return
			}
			if d <= c.Clock.Now() {
				// A due event at the current instant: Advance(0) fires it,
				// where AdvanceTo would be a no-op and spin forever.
				c.Clock.Advance(0)
			} else {
				c.Clock.AdvanceTo(d)
			}
			c.CPU.IRQMasked = false
			c.CPU.PollIRQ()
			c.CPU.IRQMasked = true
			continue
		}
		k.runCore(c, pd, w)
	}
}

// runCore gives core c one scheduling window on pd, bounded by the window
// edge w and driven by the core's own clock: switch in, and let the PD run
// until it yields (quantum expiry, block, window edge, or a reschedule
// kick).
func (k *Kernel) runCore(c *CoreCtx, pd *PD, w simclock.Cycles) {
	k.worldSwitch(c, pd)
	// Complete the Table III "HW Manager exit" probe when the manager's own
	// core switches to a guest after a completion (the co-resident layout).
	// The probe state lives on the manager's core, so only this goroutine
	// reads it; on a dedicated manager core the exit instead ends when the
	// service self-suspends, inside awaitRequest.
	if k.hwSvc != nil && c == k.hwSvc.Core && pd != k.hwSvc && k.mgrExitArmed {
		k.Probes.Add(measure.PhaseMgrExit, since(c.Clock.Now(), k.mgrExitFrom))
		k.mgrExitArmed = false
	}
	c.needResched = false
	c.quantumExpired = false
	if pd.VCPU.QuantumLeft == 0 {
		pd.VCPU.QuantumLeft = k.Sched.Quantum()
	}
	c.Timer.Start(pd.VCPU.QuantumLeft, true)
	c.Clock.Schedule(&c.edge, w)

	start := c.Clock.Now()
	c.CPU.Mode, c.CPU.IRQMasked = cpu.ModeUSR, false
	k.activate(c, pd)
	elapsed := c.Clock.Now() - start
	c.Timer.Stop()
	c.Clock.Cancel(&c.edge)
	c.BusyCycles += elapsed

	if c.quantumExpired || elapsed >= pd.VCPU.QuantumLeft {
		// Slice fully consumed: fresh quantum next time, go to the back
		// of the priority circle (round-robin, §III-D).
		pd.VCPU.QuantumLeft = 0
		if pd.node.Queued() {
			k.Sched.Rotate(c.ID, pd.Priority)
			if k.Tracer != nil {
				k.Tracer.Core(c.ID).Emit(c.Clock.Now(), trace.KindSchedRotate, 0, uint64(pd.Priority), 0)
			}
		}
	} else {
		// Paused early (preemption, window edge, cross-core kick): carry
		// the remaining quantum (§III-D).
		pd.VCPU.QuantumLeft -= elapsed
	}
}
