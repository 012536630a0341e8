package simclock

import (
	"testing"
	"testing/quick"
)

func TestConversionRoundTrip(t *testing.T) {
	if CyclesPerMicrosecond != 660 {
		t.Fatalf("expected 660 cycles/us for a 660MHz A9, got %d", CyclesPerMicrosecond)
	}
	if got := FromMicros(1).Micros(); got != 1 {
		t.Errorf("FromMicros(1).Micros() = %v, want 1", got)
	}
	if got := FromMillis(33); got != 33*1000*660 {
		t.Errorf("FromMillis(33) = %d cycles, want %d", got, 33*1000*660)
	}
}

func TestAdvanceFiresInOrder(t *testing.T) {
	c := New()
	var order []int
	c.After(30, func(Cycles) { order = append(order, 3) })
	c.After(10, func(Cycles) { order = append(order, 1) })
	c.After(20, func(Cycles) { order = append(order, 2) })
	c.Advance(25)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("after Advance(25): order = %v, want [1 2]", order)
	}
	c.Advance(10)
	if len(order) != 3 || order[2] != 3 {
		t.Fatalf("after Advance(10): order = %v, want [1 2 3]", order)
	}
}

func TestEventSeesOwnDeadline(t *testing.T) {
	c := New()
	var seen Cycles
	c.After(42, func(now Cycles) { seen = now })
	c.Advance(100)
	if seen != 42 {
		t.Errorf("handler saw now=%d, want 42", seen)
	}
	if c.Now() != 100 {
		t.Errorf("clock at %d after Advance(100), want 100", c.Now())
	}
}

func TestFIFOAmongEqualDeadlines(t *testing.T) {
	c := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.After(5, func(Cycles) { order = append(order, i) })
	}
	c.Advance(5)
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO among equal deadlines)", i, v, i)
		}
	}
}

func TestCancel(t *testing.T) {
	c := New()
	fired := false
	e := c.After(10, func(Cycles) { fired = true })
	c.Cancel(e)
	c.Advance(20)
	if fired {
		t.Error("cancelled event fired")
	}
	if e.Queued() {
		t.Error("Queued() = true after Cancel")
	}
	c.Cancel(e) // double-cancel must be harmless
}

func TestPastDeadlineClamped(t *testing.T) {
	c := New()
	c.Advance(100)
	fired := Cycles(0)
	c.At(50, func(now Cycles) { fired = now })
	c.Advance(0)
	if fired != 100 {
		t.Errorf("past event fired at %d, want clamped to 100", fired)
	}
}

func TestHandlerScheduling(t *testing.T) {
	c := New()
	count := 0
	var tick func(now Cycles)
	tick = func(now Cycles) {
		count++
		if count < 5 {
			c.After(10, tick)
		}
	}
	c.After(10, tick)
	c.RunUntilIdle(100)
	if count != 5 {
		t.Errorf("chained ticks = %d, want 5", count)
	}
	if c.Now() != 50 {
		t.Errorf("clock at %d after 5 ticks, want 50", c.Now())
	}
}

func TestReentrantAdvance(t *testing.T) {
	c := New()
	var later bool
	c.After(10, func(Cycles) {
		// Handler does costed work, advancing past this Advance's target.
		c.Advance(100)
	})
	c.After(50, func(Cycles) { later = true })
	c.Advance(20)
	if c.Now() != 110 {
		t.Errorf("clock at %d, want 110 (handler advanced past target)", c.Now())
	}
	if !later {
		t.Error("event due during nested advance did not fire")
	}
	// Time must never move backward.
	c.Advance(1)
	if c.Now() != 111 {
		t.Errorf("clock at %d, want 111", c.Now())
	}
}

// TestRunUntilIdleFiresDueNow drains an event due at the current
// instant, as Advance(0) does, instead of spinning to the limit.
func TestRunUntilIdleFiresDueNow(t *testing.T) {
	c := New()
	c.Advance(7)
	fired := false
	c.At(c.Now(), func(Cycles) { fired = true })
	if n := c.RunUntilIdle(1); n != 1 || !fired {
		t.Fatalf("RunUntilIdle(1) = %d, fired %v; want 1, true", n, fired)
	}
	if c.Now() != 7 {
		t.Errorf("clock at %d, want 7", c.Now())
	}
}

func TestRunUntilIdleLimitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic when exceeding event limit")
		}
	}()
	c := New()
	var forever func(now Cycles)
	forever = func(Cycles) { c.After(1, forever) }
	c.After(1, forever)
	c.RunUntilIdle(10)
}

func TestNextDeadline(t *testing.T) {
	c := New()
	if _, ok := c.NextDeadline(); ok {
		t.Error("empty clock reported a deadline")
	}
	c.After(7, func(Cycles) {})
	if d, ok := c.NextDeadline(); !ok || d != 7 {
		t.Errorf("NextDeadline = %d,%v want 7,true", d, ok)
	}
}

// The cached next-deadline fast path must stay coherent through every heap
// mutation: schedule, fire, cancel, and handler-scheduled events.
func TestCachedDeadlineCoherence(t *testing.T) {
	c := New()
	// Fast advances with an empty queue.
	c.Advance(10)
	c.Advance(10)
	var order []int
	e1 := c.After(100, func(Cycles) { order = append(order, 1) })
	c.After(50, func(Cycles) {
		order = append(order, 2)
		// Handler schedules a nearer event; the cache must pick it up.
		c.After(5, func(Cycles) { order = append(order, 3) })
	})
	c.Advance(30) // 20 -> 50: nothing fires, fast path must stop short of 70
	if len(order) != 0 {
		t.Fatalf("events fired early: %v", order)
	}
	if d, ok := c.NextDeadline(); !ok || d != 70 {
		t.Fatalf("NextDeadline = %d,%v want 70,true", d, ok)
	}
	c.Advance(26) // crosses 70 and the handler-scheduled 75
	if len(order) != 2 || order[0] != 2 || order[1] != 3 {
		t.Fatalf("order = %v, want [2 3]", order)
	}
	c.Cancel(e1)
	if _, ok := c.NextDeadline(); ok {
		t.Error("cancelled last event but a deadline is still cached")
	}
	c.Advance(1000)
	if len(order) != 2 {
		t.Errorf("cancelled event fired: %v", order)
	}
}

// Property: advancing in any chunking reaches the same instant and fires the
// same number of events.
func TestPropertyChunkedAdvanceEquivalent(t *testing.T) {
	f := func(deadlines []uint16, chunks []uint8) bool {
		if len(deadlines) > 50 {
			deadlines = deadlines[:50]
		}
		run := func(split bool) (Cycles, int) {
			c := New()
			fired := 0
			for _, d := range deadlines {
				c.After(Cycles(d), func(Cycles) { fired++ })
			}
			total := Cycles(70000)
			if split {
				var done Cycles
				for _, ch := range chunks {
					step := Cycles(ch)
					if done+step > total {
						step = total - done
					}
					c.Advance(step)
					done += step
				}
				c.Advance(total - done)
			} else {
				c.Advance(total)
			}
			return c.Now(), fired
		}
		n1, f1 := run(false)
		n2, f2 := run(true)
		return n1 == n2 && f1 == f2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Cancel must leave the queue alone for an event that is not queued:
// never armed (the zero Event), already fired, or already cancelled —
// whether or not other events are pending.
func TestCancelUnqueuedEventIsNoOp(t *testing.T) {
	cases := []struct {
		name string
		ev   func(c *Clock) *Event
	}{
		{"nil", func(*Clock) *Event { return nil }},
		{"zero", func(*Clock) *Event { return &Event{} }},
		{"fired", func(c *Clock) *Event {
			e := c.At(c.Now(), func(Cycles) {})
			c.Advance(0)
			return e
		}},
		{"cancelled", func(c *Clock) *Event {
			e := c.At(c.Now()+5, func(Cycles) {})
			c.Cancel(e)
			return e
		}},
	}
	for _, tc := range cases {
		for _, pending := range []bool{false, true} {
			name := tc.name + "/empty"
			if pending {
				name = tc.name + "/pending"
			}
			t.Run(name, func(t *testing.T) {
				c := New()
				e := tc.ev(c)
				fired := false
				if pending {
					c.At(10, func(Cycles) { fired = true })
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("Cancel panicked: %v", r)
						}
					}()
					c.Cancel(e)
				}()
				c.Advance(20)
				if pending && !fired {
					t.Error("cancelling an unqueued event removed a different one")
				}
			})
		}
	}
}

// An owned event re-armed with Schedule fires once per arm, wherever it
// was: never armed, queued (the arm moves it), fired or cancelled.
func TestScheduleOwnedEvent(t *testing.T) {
	c := New()
	var at []Cycles
	var e Event
	e.Fire = func(now Cycles) { at = append(at, now) }
	if e.Queued() {
		t.Fatal("zero Event reports queued")
	}
	c.Schedule(&e, 10)
	c.Schedule(&e, 30) // moves it: one firing, at 30
	if !e.Queued() {
		t.Fatal("scheduled event not queued")
	}
	c.Advance(40)
	c.Schedule(&e, 50) // re-arm after firing
	c.Cancel(&e)
	c.Schedule(&e, 60) // re-arm after cancelling
	c.Advance(30)
	c.Schedule(&e, 5) // in the past: clamped to now, like At
	c.Advance(0)
	want := []Cycles{30, 60, 70}
	if len(at) != len(want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("fired at %v, want %v", at, want)
		}
	}
	if e.Queued() {
		t.Error("fired event still reports queued")
	}
}

// Property: a seeded random sequence of Schedule and Cancel on owned
// events, some of which re-arm themselves when they fire, fires in the
// same order at the same instants as the same sequence run with At and
// Cancel on fresh events (a re-arm being a cancel plus a new At).
// Deadlines are drawn from a narrow range so many coincide, which
// exercises the FIFO tiebreak.
func TestScheduleMatchesFreshEvents(t *testing.T) {
	type firing struct {
		slot int
		at   Cycles
	}
	const slots = 6
	run := func(seed uint64, owned bool) []firing {
		x := seed | 1
		rnd := func(n uint64) uint64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return x % n
		}
		c := New()
		var log []firing
		var own [slots]Event
		var fresh [slots]*Event
		var period [slots]Cycles
		var arm func(i int, when Cycles)
		fire := func(i int) func(Cycles) {
			return func(now Cycles) {
				log = append(log, firing{i, now})
				if period[i] != 0 {
					arm(i, now+period[i])
				}
			}
		}
		arm = func(i int, when Cycles) {
			if owned {
				c.Schedule(&own[i], when)
				return
			}
			c.Cancel(fresh[i])
			fresh[i] = c.At(when, fire(i))
		}
		for i := range own {
			own[i].Fire = fire(i)
			period[i] = Cycles(rnd(3) * 4) // 0 (one-shot), 4 or 8
		}
		for op := 0; op < 400; op++ {
			i := int(rnd(slots))
			switch rnd(4) {
			case 0, 1:
				// Deadlines up to 2 cycles in the past exercise the clamp.
				arm(i, c.Now()+Cycles(rnd(12))-min(c.Now(), 2))
			case 2:
				if owned {
					c.Cancel(&own[i])
				} else {
					c.Cancel(fresh[i])
				}
			case 3:
				c.Advance(Cycles(rnd(6)))
			}
		}
		c.Advance(100)
		return log
	}
	for seed := uint64(1); seed <= 50; seed++ {
		a, b := run(seed, true), run(seed, false)
		if len(a) != len(b) {
			t.Fatalf("seed %d: %d owned firings vs %d fresh", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: firing %d is %+v owned vs %+v fresh", seed, i, a[i], b[i])
			}
		}
		if len(a) == 0 {
			t.Fatalf("seed %d: nothing fired", seed)
		}
	}
}
