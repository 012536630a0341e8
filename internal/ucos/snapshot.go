// Guest-side checkpointing: capture a quiesced uC/OS-II instance as a
// plain-data Snapshot and rebuild a live instance from it inside a fresh
// (cloned) protection domain. The hypervisor-side half — registers, MMU,
// vGIC, guest RAM — lives in internal/checkpoint and internal/nova; this
// file handles only guest-kernel state the hypervisor cannot see: TCBs,
// tick counters, the local vIRQ table's pending list, and the cache/TLB
// cursors of every execution context.
//
// A snapshot is taken while the instance is parked in the idle loop
// (inside Machine.Idle, i.e. a HcSuspend hypercall): no task is current,
// so every task coroutine is either unstarted or parked at the top of a
// Delay and can be re-hosted on a fresh coroutine without capturing Go
// stacks. Restore relies on the tasks' bodies being loop-shaped with the
// Delay at the bottom: a re-created task resumes at the loop top, which
// charges the same cycles the parked original would have.
package ucos

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/nova"
	"repro/internal/simclock"
)

// TaskSnap is the checkpointed state of one TCB.
type TaskSnap struct {
	Prio        int
	Name        string
	State       int // taskState ordinal
	Delay       uint32
	Activations uint64
	Ctx         cpu.ExecState
}

// MachineSnap is the VirtMachine's allocation-cursor state.
type MachineSnap struct {
	DataVA    uint32
	DataSize  uint32
	IfaceNext uint32
	RamNext   uint32
}

// Snapshot is the full guest-kernel state of a quiesced OS instance.
type Snapshot struct {
	Name       string
	Ticks      uint64
	TickPeriod simclock.Cycles
	Switches   uint64
	IdleSpins  uint64
	NeedSwitch bool
	Pending    []int // local vIRQ table pending list
	KCtx       cpu.ExecState
	Tasks      []TaskSnap
	Mach       MachineSnap
}

// Snapshot captures the instance's state. It fails unless the OS is
// quiesced (no task current — the scheduler must be parked in Idle) and
// refuses tasks pending on sync objects, whose wait-queue position lives
// in pointers a snapshot cannot carry.
func (os *OS) Snapshot() (*Snapshot, error) {
	if os.current != nil {
		return nil, fmt.Errorf("ucos: snapshot of %s: task %s is current (not quiesced)", os.Name, os.current.Name)
	}
	s := &Snapshot{
		Name:       os.Name,
		Ticks:      os.Ticks,
		TickPeriod: os.TickPeriod,
		Switches:   os.Switches,
		IdleSpins:  os.IdleSpins,
		NeedSwitch: os.needSwitch,
		Pending:    append([]int(nil), os.pending...),
		KCtx:       os.kctx.SaveState(),
	}
	for p := 0; p < NumPriorities; p++ {
		t := os.tcbs[p]
		if t == nil {
			continue
		}
		if t.state == statePending {
			return nil, fmt.Errorf("ucos: snapshot of %s: task %s pends on a sync object", os.Name, t.Name)
		}
		s.Tasks = append(s.Tasks, TaskSnap{
			Prio:        t.Prio,
			Name:        t.Name,
			State:       int(t.state),
			Delay:       t.delay,
			Activations: t.Activations,
			Ctx:         t.ctx.SaveState(),
		})
	}
	if vm, ok := os.M.(*VirtMachine); ok {
		s.Mach = MachineSnap{
			DataVA:    vm.dataVA,
			DataSize:  vm.dataSize,
			IfaceNext: vm.ifaceNext,
			RamNext:   vm.ramNext,
		}
	}
	return s, nil
}

// Restore overwrites this (freshly built, tasks already re-created)
// instance's state with a snapshot's. Task bodies come from the caller's
// TaskCreate calls — a snapshot carries no code — so every checkpointed
// priority must have been re-created. Restored tasks stay unstarted; the
// first dispatch lazily hosts them on fresh coroutines, which costs the
// same as resuming a parked one (dispatch charges unconditionally).
func (os *OS) Restore(s *Snapshot) error {
	os.Ticks = s.Ticks
	os.TickPeriod = s.TickPeriod
	os.Switches = s.Switches
	os.IdleSpins = s.IdleSpins
	os.needSwitch = s.NeedSwitch
	os.pending = append(os.pending[:0], s.Pending...)
	os.kctx.RestoreState(s.KCtx)
	for _, ts := range s.Tasks {
		t := os.tcbs[ts.Prio]
		if t == nil {
			return fmt.Errorf("ucos: restore into %s: no task at priority %d (snapshot has %s)", os.Name, ts.Prio, ts.Name)
		}
		t.state = taskState(ts.State)
		t.delay = ts.Delay
		t.Activations = ts.Activations
		t.ctx.RestoreState(ts.Ctx)
	}
	return nil
}

// AttachResumeHandlers re-installs the host-side halves of boot — the
// vGIC entry callback and the tick handler in the local table — without
// issuing the boot hypercalls (EnableIRQ, SetTickTimer): their effects
// are machine state the hypervisor restored with the PD.
func (os *OS) AttachResumeHandlers() {
	os.M.SetIRQEntry(os.irqEntry)
	os.irqTable[TickIRQ] = os.tickHandler
}

// ResumeLoop re-enters the scheduler after a restore, skipping boot.
func (os *OS) ResumeLoop() { os.loop() }

// ResumedGuest adapts a Snapshot to nova.Guest: the guest body installed
// in a cloned or restored-in-place PD. Where Guest boots an OS from
// scratch, ResumedGuest rebuilds one from the snapshot and re-enters the
// scheduler loop behind a replayed HcSuspend exit — the clone wakes
// exactly where the template parked.
type ResumedGuest struct {
	GuestName string
	Snap      *Snapshot
	// Setup re-creates the instance's tasks (bodies are code, not data —
	// the snapshot cannot carry them). It must register the same
	// priorities the checkpointed instance had.
	Setup func(os *OS)
	// OS is populated when the PD first runs.
	OS *OS
}

// Name implements nova.Guest.
func (g *ResumedGuest) Name() string { return g.GuestName }

// RunSlice implements nova.Guest. Order matters: cursors and task state
// are restored before the suspend-exit replay, so by the time simulated
// time moves again the instance is indistinguishable from the template
// at its checkpoint.
func (g *ResumedGuest) RunSlice(env *nova.Env) {
	m := NewVirtMachine(env)
	m.RestoreCursors(g.Snap.Mach)
	g.OS = NewOS(g.GuestName, m)
	defer g.OS.Shutdown()
	if g.Setup != nil {
		g.Setup(g.OS)
	}
	if err := g.OS.Restore(g.Snap); err != nil {
		panic(err)
	}
	g.OS.AttachResumeHandlers()
	env.ResumeSuspendExit()
	env.CheckPreempt()
	g.OS.ResumeLoop()
}
