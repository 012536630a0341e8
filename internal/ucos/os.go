// Package ucos implements a uC/OS-II-style real-time kernel — the guest
// operating system of the paper's evaluation (§V-A). Like the original,
// it is a strictly priority-based preemptive kernel: 64 priority levels,
// at most one task per level, the highest-priority ready task always
// runs, and a periodic tick drives time delays.
//
// The port layer is swappable, exactly as the paper's porting patch
// (~200 LoC) suggests:
//
//   - VirtMachine (virt.go) is the paravirtualized port: every sensitive
//     operation — timer programming, interrupt control, cache/TLB
//     maintenance, page-table edits, hardware-task access, shared I/O —
//     becomes a Mini-NOVA hypercall, and interrupts arrive as vGIC
//     injections recorded in a local vIRQ table (§V-A's bullet list).
//   - NativeMachine (native.go) runs the same kernel in SVC mode on the
//     bare machine model: the paper's baseline, where the tick comes
//     straight from the private timer and the hardware-task manager is a
//     direct function call.
//
// Guest (virt.go) hosts an instance in a Mini-NOVA protection domain. It
// boots the instance, or, given a Snapshot (snapshot.go), resumes it in a
// cloned or restored-in-place domain exactly where the template parked.
package ucos

import (
	"fmt"
	"iter"

	"repro/internal/cpu"
	"repro/internal/simclock"
)

// NumPriorities is uC/OS-II's task-priority range (0 = highest).
const NumPriorities = 64

// TickIRQ is the virtual interrupt line carrying the OS tick (the A9
// private-timer PPI number, virtualized by Mini-NOVA).
const TickIRQ = 29

// TickMs is the OS tick period NewOS sets, in milliseconds
// (paper-realistic: 1 ms).
const TickMs = 1

// taskState is a TCB lifecycle state.
type taskState int

const (
	stateDormant taskState = iota
	stateReady
	stateDelayed
	statePending // blocked on a semaphore or queue
	stateDone
)

// TCB is a task control block.
type TCB struct {
	Prio  int
	Name  string
	body  func(t *Task)
	state taskState
	delay uint32 // remaining ticks when delayed (also pend timeout)

	pendingOn interface{} // the sync object the task pends on
	pendOK    bool        // pend satisfied (vs timeout)

	// The task is a runtime coroutine (iter.Pull), created on its first
	// dispatch: next runs the body until it yields back to the scheduler,
	// stop unwinds it, and yield is the body's switch back to dispatch.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	os    *OS
	ctx   *cpu.ExecContext

	// Stats
	Activations uint64
}

// Task is the handle passed to a task body: its execution context plus
// the OS services it may call. All compute must go through Exec/Touch.
type Task struct {
	OS  *OS
	TCB *TCB
	Ctx *cpu.ExecContext
}

// OS is one uC/OS-II instance.
type OS struct {
	Name string
	M    Machine

	kctx    *cpu.ExecContext // kernel (scheduler/tick) context
	tcbs    [NumPriorities]*TCB
	current *TCB

	Ticks      uint64
	TickPeriod simclock.Cycles

	needSwitch bool
	stopped    bool

	// Local vIRQ table (§V-A: "a local table is built to record the
	// virtual IRQs states. uCOS-II can only access the local table to
	// handle the interrupts").
	irqTable map[int]func(irq int)
	pending  []int

	// Deadline stops the scheduler loop when the simulated clock passes
	// it (0 = run forever; the native harness sets it).
	Deadline simclock.Cycles

	// Stats
	Switches  uint64
	IdleSpins uint64
}

// NewOS builds an instance over a machine port. Code layout: the guest
// kernel's hot paths occupy a 12 KB region (uC/OS-II compiles to roughly
// that); each task body gets its own 6 KB code window so tasks contend
// for I-cache like separately-linked objects.
func NewOS(name string, m Machine) *OS {
	os := &OS{
		Name:       name,
		M:          m,
		TickPeriod: simclock.FromMillis(TickMs),
		irqTable:   make(map[int]func(int)),
	}
	os.kctx = m.NewContext(name+"/kernel", m.KernelCodeBase(), 12<<10)
	return os
}

// TaskCreate registers a task at prio (0 = highest). Mirrors
// OSTaskCreate: one task per priority; returns an error on collision.
func (os *OS) TaskCreate(name string, prio int, body func(t *Task)) error {
	if prio < 0 || prio >= NumPriorities {
		return fmt.Errorf("ucos: priority %d out of range", prio)
	}
	if os.tcbs[prio] != nil {
		return fmt.Errorf("ucos: priority %d already taken by %s", prio, os.tcbs[prio].Name)
	}
	t := &TCB{
		Prio:  prio,
		Name:  name,
		body:  body,
		state: stateReady,
		os:    os,
		ctx:   os.M.NewContext(os.Name+"/"+name, os.M.TaskCodeBase(prio), 6<<10),
	}
	os.tcbs[prio] = t
	return nil
}

// highestReady returns the ready TCB with the best (lowest) priority.
func (os *OS) highestReady() *TCB {
	for p := 0; p < NumPriorities; p++ {
		if t := os.tcbs[p]; t != nil && t.state == stateReady {
			return t
		}
	}
	return nil
}

// Run boots the kernel: install the tick, then schedule until stopped.
// Under virtualization this is the PD's main and never returns; the
// native harness sets Deadline.
func (os *OS) Run() {
	os.M.SetIRQEntry(os.irqEntry)
	os.irqTable[TickIRQ] = os.tickHandler
	os.M.EnableIRQ(TickIRQ)
	os.M.SetTickTimer(os.TickPeriod)
	os.loop()
}

// loop is the scheduler proper, shared by Run (cold boot) and
// Guest.resume (re-entry after a checkpoint restore, which must skip the
// boot hypercalls because their effects live in the restored machine
// state).
func (os *OS) loop() {
	for !os.stopped {
		if os.Deadline != 0 && os.M.Now() >= os.Deadline {
			break
		}
		os.drainVIRQs(os.kctx)
		t := os.highestReady()
		if t == nil {
			// Built-in idle task: a short spin, then the port's WFI (under
			// virtualization this parks the VM until the next vIRQ so
			// lower-priority VMs can run).
			os.IdleSpins++
			os.kctx.Exec(64)
			os.M.CheckPreempt()
			os.M.Idle()
			continue
		}
		os.dispatch(t)
	}
}

// Stop ends the scheduler loop at the next opportunity.
func (os *OS) Stop() { os.stopped = true }

// taskKill is the panic that unwinds a task once Shutdown stops its
// coroutine. The task body recovers only this; a hypervisor kill raised
// inside a task (a PD stopped while the task trapped into the kernel)
// leaves the task coroutine, re-raises in dispatch and unwinds the OS.
type taskKill struct{}

// Shutdown stops the scheduler and unwinds every started task coroutine,
// in priority order. The OS is unusable afterwards. It is safe to call
// more than once.
func (os *OS) Shutdown() {
	os.stopped = true
	for _, t := range os.tcbs {
		if t != nil && t.stop != nil {
			t.stop()
		}
	}
}

// dispatch switches to a task until it yields back. The first dispatch
// makes the task a coroutine; a finished body returns here for good.
func (os *OS) dispatch(t *TCB) {
	os.current = t
	os.needSwitch = false
	os.Switches++
	t.Activations++
	os.kctx.Exec(40) // OSSched + context switch (guest-level)
	if t.next == nil {
		t.next, t.stop = iter.Pull(t.run)
	}
	t.next()
	os.current = nil
}

// run is the task coroutine's body.
func (t *TCB) run(yield func(struct{}) bool) {
	defer func() {
		if r := recover(); r != nil && r != (taskKill{}) {
			panic(r)
		}
	}()
	t.yield = yield
	t.body(&Task{OS: t.os, TCB: t, Ctx: t.ctx})
	t.state = stateDone
}

// yieldToScheduler hands control from a task back to the OS loop.
func (t *TCB) yieldToScheduler() {
	if !t.yield(struct{}{}) {
		panic(taskKill{})
	}
}

// irqEntry is the VM's interrupt entry (registered with the machine): it
// records the IRQ in the local table's pending list; handlers run at the
// next dispatch boundary, as uCOS ISRs defer work to task level.
func (os *OS) irqEntry(irq int) {
	os.pending = append(os.pending, irq)
}

// drainVIRQs dispatches recorded interrupts through the local table.
func (os *OS) drainVIRQs(ctx *cpu.ExecContext) {
	for len(os.pending) > 0 {
		irq := os.pending[0]
		os.pending = os.pending[1:]
		ctx.Exec(18) // ISR prologue
		if h := os.irqTable[irq]; h != nil {
			h(irq)
		}
		os.M.EOI(irq)
		ctx.Exec(10) // ISR epilogue
	}
}

// tickHandler is OSTimeTick: advance time, expire delays and pend
// timeouts, and request a reschedule when somebody woke.
func (os *OS) tickHandler(int) {
	os.Ticks++
	os.kctx.Exec(30)
	for p := 0; p < NumPriorities; p++ {
		t := os.tcbs[p]
		if t == nil {
			continue
		}
		if (t.state == stateDelayed || t.state == statePending) && t.delay > 0 {
			t.delay--
			if t.delay == 0 {
				if t.state == statePending {
					t.pendOK = false // timeout
					removeWaiter(t)
				}
				t.state = stateReady
				os.needSwitch = true
			}
		}
		os.kctx.Touch(os.M.KernelCodeBase()+0xC000+uint32(p)*16, true)
	}
}

// RegisterIRQ installs a guest handler for an interrupt line in the
// local vIRQ table and enables the line in the vGIC.
func (os *OS) RegisterIRQ(irq int, h func(irq int)) {
	os.irqTable[irq] = h
	os.M.EnableIRQ(irq)
}

// InterruptTask services: the part of the Task API that can trigger a
// reschedule.

// checkpoint is the task-side chunk boundary: deliver interrupts, honor
// hypervisor preemption, and switch tasks if a higher-priority one woke.
func (t *Task) checkpoint() {
	os := t.OS
	if os.Deadline != 0 && os.M.Now() >= os.Deadline && !os.stopped {
		// Horizon reached (native harness): park this task and return to
		// the scheduler loop so Run can exit.
		os.stopped = true
		t.TCB.state = stateReady
		t.TCB.yieldToScheduler()
		return
	}
	t.OS.drainVIRQs(t.Ctx)
	t.OS.M.CheckPreempt()
	if t.OS.needSwitch {
		hr := t.OS.highestReady()
		if hr != nil && hr.Prio < t.TCB.Prio {
			t.TCB.os.current = nil
			t.TCB.yieldToScheduler()
		} else {
			t.OS.needSwitch = false
		}
	}
}

// Exec charges n instructions of task work, then hits a checkpoint.
func (t *Task) Exec(n int) {
	t.Ctx.Exec(n)
	t.checkpoint()
}

// Touch charges one data access.
func (t *Task) Touch(va uint32, write bool) { t.Ctx.Touch(va, write) }

// Delay is OSTimeDly: block for n ticks (n >= 1).
func (t *Task) Delay(ticks uint32) {
	if ticks == 0 {
		ticks = 1
	}
	t.TCB.state = stateDelayed
	t.TCB.delay = ticks
	t.TCB.yieldToScheduler()
}

// TimeGet is OSTimeGet: the tick counter.
func (t *Task) TimeGet() uint64 { return t.OS.Ticks }

// Print emits supervised console output (one hypercall per rune in the
// paravirtualized port, as UART access is supervised, §V-A).
func (t *Task) Print(s string) { t.OS.M.Print(s) }
