// Package timer models the Cortex-A9 MPCore private timer that Mini-NOVA
// uses both for its own scheduling quantum and as the backing source for
// guest virtual timers (paper §III-A, §V-A: "the guest timer is implemented
// by a virtual timer allocated by Mini-NOVA").
package timer

import (
	"repro/internal/gic"
	"repro/internal/simclock"
)

// PrivateTimer is a down-counting timer with auto-reload that raises
// gic.PrivateTimerIRQ on expiry. The A9 private timer ticks at CPU/2; for
// model simplicity it is programmed directly in core cycles. Each core of
// an MPCore has its own private timer raising the banked PPI on its own
// GIC CPU interface.
type PrivateTimer struct {
	clock *simclock.Clock
	gic   *gic.GIC
	cpu   int // GIC CPU interface the expiry PPI is banked on

	interval simclock.Cycles
	oneShot  bool
	running  bool
	event    simclock.Event // owned: Fire is bound once, every arm re-schedules it

	Expiries uint64
}

// New wires CPU0's private timer to the clock and interrupt controller.
func New(c *simclock.Clock, g *gic.GIC) *PrivateTimer {
	return NewFor(c, g, 0)
}

// NewFor wires the private timer of one core of an MPCore: expiries raise
// the private-timer PPI on that core's GIC CPU interface.
func NewFor(c *simclock.Clock, g *gic.GIC, cpu int) *PrivateTimer {
	t := &PrivateTimer{clock: c, gic: g, cpu: cpu}
	t.event.Fire = t.expire
	return t
}

// Start programs the timer to fire every interval cycles (auto-reload) or
// once (oneShot). Restarting a running timer reprograms it.
func (t *PrivateTimer) Start(interval simclock.Cycles, oneShot bool) {
	t.Stop()
	t.interval = interval
	t.oneShot = oneShot
	t.running = true
	t.arm()
}

func (t *PrivateTimer) arm() {
	t.clock.Schedule(&t.event, t.clock.Now()+t.interval)
}

func (t *PrivateTimer) expire(simclock.Cycles) {
	t.Expiries++
	t.gic.RaiseOn(t.cpu, gic.PrivateTimerIRQ)
	if t.oneShot {
		t.running = false
		return
	}
	t.arm()
}

// Stop cancels the timer.
func (t *PrivateTimer) Stop() {
	t.clock.Cancel(&t.event)
	t.running = false
}

// Running reports whether the timer is armed.
func (t *PrivateTimer) Running() bool { return t.running }

// Remaining returns cycles until the next expiry (0 when stopped).
func (t *PrivateTimer) Remaining() simclock.Cycles {
	if !t.running || !t.event.Queued() {
		return 0
	}
	if t.event.When <= t.clock.Now() {
		return 0
	}
	return t.event.When - t.clock.Now()
}
