package nova_test

import (
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/nova"
	"repro/internal/simclock"
	"repro/internal/ucos"
)

// spinTask never blocks, so its OS is usually preempted inside it.
func spinTask(os *ucos.OS) {
	os.TaskCreate("spin", 12, func(t *ucos.Task) {
		for {
			t.Exec(300)
		}
	})
}

// tickTask wakes on every tick and sleeps again: a started task that
// leaves its OS parked in idle between ticks.
func tickTask(os *ucos.OS) {
	os.TaskCreate("tick", 10, func(t *ucos.Task) {
		for {
			t.Exec(100)
			t.Delay(1)
		}
	})
}

// settle waits for the goroutine count to fall to want. The shard
// workers of a parallel run exit just after it returns, so the count is
// polled rather than read once.
func settle(t *testing.T, after string, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			var b strings.Builder
			pprof.Lookup("goroutine").WriteTo(&b, 1)
			t.Fatalf("after %s: %d goroutines, want <= %d\n%s", after, runtime.NumGoroutine(), want, b.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShutdownTerminatesGoroutines checks that no guest or task
// goroutine outlives the operation that retires it — an in-place
// restore, destroying a clone that runs a uCOS task, and kernel shutdown
// — on a single-core machine run on one goroutine and on a dual-core
// machine run on two shards. The measurements before each operation
// follow one-goroutine runs only, so no exiting shard worker inflates
// them.
func TestShutdownTerminatesGoroutines(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			base := runtime.NumGoroutine()
			k := nova.NewKernelSMP(max(shards, 1))
			run := func(ms float64) {
				if shards > 1 {
					k.RunParallelFor(simclock.FromMillis(ms), shards)
				} else {
					k.RunFor(simclock.FromMillis(ms))
				}
			}
			quiesce := func(pd *nova.PD) {
				t.Helper()
				for i := 0; !pd.IdleParked(); i++ {
					if i == 100 {
						t.Fatalf("%s never parked in idle", pd.Name())
					}
					k.RunFor(simclock.FromMicros(250))
				}
			}

			// Background load below the template, which preempts it on
			// every tick and so parks in idle promptly.
			k.CreatePD(nova.PDConfig{Name: "busy", Priority: nova.PrioIdle,
				Guest: &ucos.Guest{GuestName: "busy", Setup: spinTask}})
			tg := &ucos.Guest{GuestName: "tpl", Setup: tickTask}
			tpl := k.CreatePD(nova.PDConfig{Name: "tpl", Priority: nova.PrioGuest, Guest: tg})
			k.RunFor(simclock.FromMillis(3))
			quiesce(tpl)

			// In-place restore: the old guest and its started task unwind;
			// the restored guest restarts its task on the next tick.
			snap, err := tg.OS.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			img, err := k.Checkpoint(tpl, snap, true, "tpl")
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			rg := &ucos.ResumedGuest{GuestName: "tpl", Snap: snap, Setup: tickTask}
			if err := k.RestoreInPlace(tpl, img, rg); err != nil {
				t.Fatal(err)
			}
			run(3)
			settle(t, "RestoreInPlace", before)

			// A clone running a compute task, destroyed mid-run.
			quiesce(tpl)
			if snap, err = rg.OS.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if img, err = k.Checkpoint(tpl, snap, false, "tpl"); err != nil {
				t.Fatal(err)
			}
			if err := k.Freeze(tpl); err != nil {
				t.Fatal(err)
			}
			before = runtime.NumGoroutine()
			c := k.CreateClone(img, nova.CloneConfig{Name: "clone", Guest: &ucos.ResumedGuest{
				GuestName: "clone", Snap: snap,
				Setup: func(os *ucos.OS) { tickTask(os); spinTask(os) },
			}})
			if err := k.ActivateClone(c); err != nil {
				t.Fatal(err)
			}
			run(5)
			if err := k.DestroyClone(c); err != nil {
				t.Fatal(err)
			}
			settle(t, "DestroyClone", before)

			k.Shutdown()
			settle(t, "Shutdown", base)
		})
	}
}
