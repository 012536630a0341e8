// Package simclock provides the simulated cycle clock that every other
// component of the Zynq-7000 platform model is driven by.
//
// The paper's measurements are taken on a 660 MHz ARM Cortex-A9, so the
// canonical conversion used throughout this repository is
// 660 cycles == 1 µs. All latencies reported by the experiment harness are
// derived from cycle counts through this package, never from wall-clock time,
// which makes every run bit-for-bit deterministic.
package simclock

import (
	"container/heap"
	"fmt"
)

// FrequencyHz is the clock rate of the modelled Cortex-A9 core
// (Zynq-7000 at 660 MHz, as in the paper's evaluation platform).
const FrequencyHz = 660_000_000

// CyclesPerMicrosecond is the number of core cycles in one microsecond.
const CyclesPerMicrosecond = FrequencyHz / 1_000_000

// Cycles is a duration or instant measured in CPU core cycles.
type Cycles uint64

// Micros converts a cycle count to microseconds as a float.
func (c Cycles) Micros() float64 {
	return float64(c) / float64(CyclesPerMicrosecond)
}

// Millis converts a cycle count to milliseconds as a float.
func (c Cycles) Millis() float64 {
	return c.Micros() / 1000
}

// String renders the count in a human-readable form.
func (c Cycles) String() string {
	return fmt.Sprintf("%dcyc (%.3fus)", uint64(c), c.Micros())
}

// FromMicros converts microseconds to cycles, rounding down.
func FromMicros(us float64) Cycles {
	return Cycles(us * float64(CyclesPerMicrosecond))
}

// FromMillis converts milliseconds to cycles, rounding down.
func FromMillis(ms float64) Cycles {
	return FromMicros(ms * 1000)
}

// Event is a callback scheduled to fire at an absolute instant. At and
// After build a fresh one per call; a source with at most one event in
// flight instead owns an Event, binds its Fire once, and re-arms it with
// Schedule, which allocates nothing. The zero Event is not queued.
type Event struct {
	When Cycles
	Fire func(now Cycles)

	seq uint64 // tiebreaker: FIFO among equal deadlines
	pos int    // heap index + 1; 0 while not queued (never armed, fired or cancelled)
}

// Queued reports whether the event is armed: scheduled, and neither fired
// nor cancelled since.
func (e *Event) Queued() bool { return e.pos > 0 }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].When != h[j].When {
		return h[i].When < h[j].When
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = i + 1
	h[j].pos = j + 1
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	*h = append(*h, e)
	e.pos = len(*h)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.pos = 0
	*h = old[:n-1]
	return e
}

// noDeadline is the cached-deadline sentinel for an empty event queue.
const noDeadline = ^Cycles(0)

// Clock is the global simulated time source plus a deadline queue.
// It is not safe for concurrent use; the platform model is single-threaded
// by design (one simulated core, as in the paper's evaluation, which pins
// everything to CPU0).
type Clock struct {
	now    Cycles
	events eventHeap
	seq    uint64
	// next caches events[0].When (noDeadline when empty) so the common
	// no-event Advance is a single compare+add; the heap is consulted only
	// when the cached deadline is crossed. Every heap mutation refreshes it.
	next Cycles
}

// New returns a clock at cycle zero with an empty event queue.
func New() *Clock {
	return &Clock{next: noDeadline}
}

// syncNext refreshes the cached earliest deadline after a heap mutation.
func (c *Clock) syncNext() {
	if len(c.events) == 0 {
		c.next = noDeadline
	} else {
		c.next = c.events[0].When
	}
}

// Now returns the current simulated instant.
func (c *Clock) Now() Cycles { return c.now }

// Advance moves time forward by d cycles, firing any events whose deadline
// is passed, in deadline order. Events fire with the clock set exactly to
// their deadline, so a handler observing Now() sees its own firing time.
//
// Advance is reentrant: an event handler may itself call Advance (an
// interrupt handler charging execution cycles, for instance). Time never
// moves backward — if a handler advanced past this call's target, the
// clock stays at the later instant.
func (c *Clock) Advance(d Cycles) {
	target := c.now + d
	if target < c.next {
		// Fast path: no pending event inside the window — a compare+add.
		c.now = target
		return
	}
	c.advanceSlow(target)
}

func (c *Clock) advanceSlow(target Cycles) {
	for len(c.events) > 0 && c.events[0].When <= target {
		e := heap.Pop(&c.events).(*Event)
		c.syncNext()
		if e.When > c.now {
			c.now = e.When
		}
		e.Fire(c.now)
	}
	if target > c.now {
		c.now = target
	}
}

// AdvanceTo moves time forward to the absolute instant t (no-op if t is in
// the past).
func (c *Clock) AdvanceTo(t Cycles) {
	if t > c.now {
		c.Advance(t - c.now)
	}
}

// After schedules fire to run d cycles from now and returns the event so the
// caller may cancel it.
func (c *Clock) After(d Cycles, fire func(now Cycles)) *Event {
	return c.At(c.now+d, fire)
}

// At schedules fire at the absolute instant when. If when is in the past the
// event fires on the next Advance of any size (including Advance(0)).
func (c *Clock) At(when Cycles, fire func(now Cycles)) *Event {
	e := &Event{Fire: fire}
	c.Schedule(e, when)
	return e
}

// Schedule arms e, an event the caller owns, to fire at the absolute
// instant when, moving it if it is already queued. It applies At's clamp
// and takes a fresh FIFO sequence number, so a re-armed event fires
// exactly where a fresh At event armed at the same point would. e must not
// be queued on another clock.
func (c *Clock) Schedule(e *Event, when Cycles) {
	if when < c.now {
		when = c.now
	}
	e.When = when
	e.seq = c.seq
	c.seq++
	if e.pos > 0 {
		heap.Fix(&c.events, e.pos-1)
	} else {
		heap.Push(&c.events, e)
	}
	c.syncNext()
}

// Cancel removes a queued event. Cancelling an event that is not queued
// (never armed, already fired or already cancelled) is a harmless no-op.
func (c *Clock) Cancel(e *Event) {
	if e == nil || e.pos == 0 {
		return
	}
	heap.Remove(&c.events, e.pos-1)
	c.syncNext()
}

// NextDeadline returns the earliest pending event time and true, or 0 and
// false when the queue is empty.
func (c *Clock) NextDeadline() (Cycles, bool) {
	if c.next == noDeadline {
		return 0, false
	}
	return c.next, true
}

// RunUntilIdle advances the clock through every pending event (including
// events scheduled by event handlers) and stops at the last deadline.
// It returns the number of events fired. The limit guards against handlers
// that reschedule themselves forever; RunUntilIdle panics if exceeded.
func (c *Clock) RunUntilIdle(limit int) int {
	fired := 0
	for len(c.events) > 0 {
		if fired >= limit {
			panic(fmt.Sprintf("simclock: RunUntilIdle exceeded %d events", limit))
		}
		next := c.events[0].When
		c.AdvanceTo(next)
		// AdvanceTo fires everything at == next.
		fired++
	}
	return fired
}
