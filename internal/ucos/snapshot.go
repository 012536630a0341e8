// Guest-side checkpointing: capture a quiesced uC/OS-II instance as a
// plain-data Snapshot and rebuild a live instance from it inside a fresh
// (cloned) protection domain. The hypervisor-side half — registers, MMU,
// vGIC, guest RAM — lives in internal/checkpoint and internal/nova; this
// file handles only guest-kernel state the hypervisor cannot see: TCBs,
// tick counters, the local vIRQ table's pending list, the replay state of
// every execution context and a VirtMachine's allocation cursors. The
// last two are the values their live objects hold (cpu.ExecState, which
// every context embeds, and MachineSnap), so each is copied whole.
//
// A snapshot is taken while the instance is parked in the idle loop
// (inside Machine.Idle, i.e. a HcSuspend hypercall): no task is current,
// so every task coroutine is either unstarted or parked at the top of a
// Delay and can be re-hosted on a fresh coroutine without capturing Go
// stacks. A restore relies on the tasks' bodies being loop-shaped with the
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

// MachineSnap is the VirtMachine's allocation-cursor state, which the
// machine holds as one value.
type MachineSnap struct {
	DataVA    uint32 // the registered data section
	DataSize  uint32
	IfaceNext uint32 // VA of the next hardware-task interface page
	RamNext   uint32 // next unassigned RAM offset for data sections
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
		KCtx:       os.kctx.ExecState,
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
			Ctx:         t.ctx.ExecState,
		})
	}
	if vm, ok := os.M.(*VirtMachine); ok {
		s.Mach = vm.cur
	}
	return s, nil
}

// restore overwrites this (freshly built, tasks already re-created)
// instance's state with a snapshot's. Task bodies come from the caller's
// TaskCreate calls — a snapshot carries no code — so every checkpointed
// priority must have been re-created. Restored tasks stay unstarted; the
// first dispatch lazily hosts them on fresh coroutines, which costs the
// same as resuming a parked one (dispatch charges unconditionally). A
// VirtMachine's allocation cursors are rewound too, so a restored guest
// that later calls SetupDataSection or RequestHwTask carves the same
// addresses the template would have.
func (os *OS) restore(s *Snapshot) error {
	if vm, ok := os.M.(*VirtMachine); ok {
		vm.cur = s.Mach
	}
	os.Ticks = s.Ticks
	os.TickPeriod = s.TickPeriod
	os.Switches = s.Switches
	os.IdleSpins = s.IdleSpins
	os.needSwitch = s.NeedSwitch
	os.pending = append(os.pending[:0], s.Pending...)
	os.kctx.ExecState = s.KCtx
	for _, ts := range s.Tasks {
		t := os.tcbs[ts.Prio]
		if t == nil {
			return fmt.Errorf("ucos: restore into %s: no task at priority %d (snapshot has %s)", os.Name, ts.Prio, ts.Name)
		}
		t.state = taskState(ts.State)
		t.delay = ts.Delay
		t.Activations = ts.Activations
		t.ctx.ExecState = ts.Ctx
	}
	return nil
}

// resume is Guest.RunSlice for a guest with a snapshot: after Setup has
// re-created the instance's tasks (bodies are code, not data — the
// snapshot cannot carry them, so Setup must register the same priorities
// the checkpointed instance had), it rebuilds the instance from the
// snapshot and re-enters the scheduler loop behind a replayed HcSuspend
// exit, so the PD wakes exactly where the template parked. Order matters:
// the instance's state is restored before the suspend-exit replay, so by
// the time simulated time moves again the instance is indistinguishable
// from the template at its checkpoint.
func (g *Guest) resume(env *nova.Env) {
	if err := g.OS.restore(g.Snap); err != nil {
		panic(err)
	}
	// The host-side halves of boot — the vGIC entry callback and the tick
	// handler in the local table — without the boot hypercalls
	// (EnableIRQ, SetTickTimer): their effects are machine state the
	// hypervisor restored with the PD.
	g.OS.M.SetIRQEntry(g.OS.irqEntry)
	g.OS.irqTable[TickIRQ] = g.OS.tickHandler
	env.ResumeSuspendExit()
	env.CheckPreempt()
	g.OS.loop()
}
