package nova

import (
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/simclock"
)

// An idle-heavy multi-core system must advance at event resolution, not
// epoch resolution: with every core parked, the engine fast-forwards all
// clocks to the next event (or the horizon) in one step instead of
// grinding through empty 20 µs epochs. A 100 ms horizon holds 5000
// epochs; a handful of timer pops must cost a comparable handful.
func TestIdleFastForward(t *testing.T) {
	k := dualKernel()
	defer k.Shutdown()
	var pops int
	var tick func(simclock.Cycles)
	tick = func(simclock.Cycles) {
		pops++
		if pops < 20 {
			k.Clock.After(simclock.FromMillis(5), tick)
		}
	}
	k.Clock.After(simclock.FromMillis(5), tick)
	k.RunFor(simclock.FromMillis(100))

	if pops != 20 {
		t.Fatalf("timer pops = %d, want 20", pops)
	}
	if k.Epochs == 0 {
		t.Fatal("multi-core run used no epochs")
	}
	// Each pop can open at most a couple of epoch windows (the pop's own
	// window plus a successor while the callback's effects drain); the
	// naive bound is horizon/epoch = 5000.
	if k.Epochs > 100 {
		t.Errorf("idle-heavy run used %d epochs for 20 events — the idle path is not fast-forwarding", k.Epochs)
	}
}

// The fast-forward must not skip runnable work: a PD that blocks and is
// woken by a timer must run at the wake instant, with the cores' clocks
// converged on the horizon afterwards.
func TestIdleFastForwardWakes(t *testing.T) {
	k := dualKernel()
	defer k.Shutdown()
	var ranAt simclock.Cycles
	pd := k.CreatePD(PDConfig{
		Name: "sleeper", Priority: PrioGuest, Affinity: sched.MaskOf(1),
		StartSuspended: true,
		Guest: &scriptGuest{"sleeper", func(env *Env) {
			ranAt = env.Now()
			env.Hypercall(HcSuspend)
		}},
	})
	k.Clock.After(simclock.FromMillis(40), func(simclock.Cycles) {
		k.wakeFrom(k.Cores[0], pd)
	})
	k.RunFor(simclock.FromMillis(100))
	if ranAt == 0 {
		t.Fatal("sleeper never ran")
	}
	if ranAt < simclock.FromMillis(40) || ranAt > simclock.FromMillis(41) {
		t.Errorf("sleeper ran at %v, want just past 40 ms", ranAt)
	}
	for _, c := range k.Cores {
		if c.Clock.Now() < simclock.FromMillis(100) {
			t.Errorf("core %d stopped at %v, want the 100 ms horizon", c.ID, c.Clock.Now())
		}
	}
}

// RunParallel must clamp its shard count: more shards than cores, zero or
// negative shards all run.
func TestRunParallelShardClamp(t *testing.T) {
	for _, shards := range []int{-1, 0, 1, 2, 8} {
		k := dualKernel()
		var ran simclock.Cycles
		k.CreatePD(PDConfig{
			Name: "g", Priority: PrioGuest, Affinity: sched.MaskOf(0),
			Guest: &scriptGuest{"g", func(env *Env) {
				for {
					start := env.Now()
					env.Ctx.Exec(200)
					ran += env.Now() - start
					env.CheckPreempt()
				}
			}},
		})
		k.RunParallelFor(simclock.FromMillis(5), shards)
		if ran == 0 {
			t.Errorf("shards=%d: guest made no progress", shards)
		}
		k.Shutdown()
	}
}

// An event due at the current instant on a machine with nothing runnable
// must fire, and the run must still reach its horizon. AdvanceTo(now) is a
// no-op, so an idle path that only jumps to the next deadline spins on
// such an event forever; the run loop fires it with Advance(0). The wait
// is bounded so a regression fails instead of hanging the suite.
func TestDueNowEventOnIdleMachine(t *testing.T) {
	for _, tc := range []struct {
		name string
		k    *Kernel
	}{{"single-core", NewKernel()}, {"dual-core", dualKernel()}} {
		k := tc.k
		fired := false
		k.Clock.At(k.Clock.Now(), func(simclock.Cycles) { fired = true })
		horizon := k.Clock.Now() + simclock.FromMillis(1)
		done := make(chan struct{})
		go func() {
			defer close(done)
			k.Run(horizon)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: Run did not return with an event due now and no runnable PD", tc.name)
		}
		if !fired {
			t.Errorf("%s: the due event never fired", tc.name)
		}
		for _, c := range k.Cores {
			if c.Clock.Now() != horizon {
				t.Errorf("%s: core %d stopped at %v, want the horizon %v", tc.name, c.ID, c.Clock.Now(), horizon)
			}
		}
		k.Shutdown()
	}
}

// A single core has no peer whose skew an epoch would bound: its run is
// one window to the horizon and counts no epoch, on RunFor and on
// RunParallelFor with more shards than cores alike.
func TestSingleCoreCountsNoEpochs(t *testing.T) {
	for _, shards := range []int{1, 4} {
		k := NewKernel()
		var ran simclock.Cycles
		k.CreatePD(PDConfig{
			Name: "g", Priority: PrioGuest,
			Guest: &scriptGuest{"g", func(env *Env) {
				for {
					start := env.Now()
					env.Ctx.Exec(200)
					ran += env.Now() - start
					env.CheckPreempt()
				}
			}},
		})
		horizon := simclock.FromMillis(5)
		if shards == 1 {
			k.RunFor(horizon)
		} else {
			k.RunParallelFor(horizon, shards)
		}
		if ran == 0 {
			t.Errorf("shards=%d: guest made no progress", shards)
		}
		if k.Epochs != 0 {
			t.Errorf("shards=%d: single-core run counted %d epochs, want 0", shards, k.Epochs)
		}
		if k.Clock.Now() < horizon {
			t.Errorf("shards=%d: clock stopped at %v, short of the %v horizon", shards, k.Clock.Now(), horizon)
		}
		k.Shutdown()
	}
}
