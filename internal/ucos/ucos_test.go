package ucos

import (
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/apps"
	"repro/internal/hwtask"
	"repro/internal/simclock"
)

// nativeOS builds a native uC/OS-II, runs setup, and executes until the
// given simulated horizon.
func nativeOS(t *testing.T, horizon simclock.Cycles, setup func(os *OS)) (*OS, *NativeMachine) {
	t.Helper()
	nm := NewNativeMachine()
	os := NewOS("native-ucos", nm)
	setup(os)
	os.Deadline = nm.Now() + horizon
	os.Run()
	os.Shutdown()
	return os, nm
}

func TestTaskPriorityScheduling(t *testing.T) {
	var order []string
	nativeOS(t, simclock.FromMillis(5), func(os *OS) {
		os.TaskCreate("low", 20, func(task *Task) {
			order = append(order, "low")
			task.Exec(100)
		})
		os.TaskCreate("high", 5, func(task *Task) {
			order = append(order, "high")
			task.Exec(100)
		})
	})
	if len(order) != 2 || order[0] != "high" || order[1] != "low" {
		t.Errorf("execution order = %v, want [high low]", order)
	}
}

func TestOneTaskPerPriority(t *testing.T) {
	nm := NewNativeMachine()
	os := NewOS("t", nm)
	if err := os.TaskCreate("a", 7, func(*Task) {}); err != nil {
		t.Fatal(err)
	}
	if err := os.TaskCreate("b", 7, func(*Task) {}); err == nil {
		t.Error("duplicate priority accepted (uC/OS-II allows one task per level)")
	}
	if err := os.TaskCreate("c", NumPriorities, func(*Task) {}); err == nil {
		t.Error("out-of-range priority accepted")
	}
}

func TestTickAndDelay(t *testing.T) {
	var wakes []uint64
	os, _ := nativeOS(t, simclock.FromMillis(12), func(os *OS) {
		os.TaskCreate("periodic", 10, func(task *Task) {
			for i := 0; i < 5; i++ {
				wakes = append(wakes, task.TimeGet())
				task.Delay(2)
			}
		})
	})
	if os.Ticks < 10 {
		t.Fatalf("only %d ticks in 12ms at 1ms period", os.Ticks)
	}
	if len(wakes) != 5 {
		t.Fatalf("task woke %d times, want 5", len(wakes))
	}
	for i := 1; i < len(wakes); i++ {
		if d := wakes[i] - wakes[i-1]; d != 2 {
			t.Errorf("wake %d after %d ticks, want 2", i, d)
		}
	}
}

func TestDelayedTaskYieldsToLowerPriority(t *testing.T) {
	progress := 0
	nativeOS(t, simclock.FromMillis(6), func(os *OS) {
		os.TaskCreate("sleeper", 5, func(task *Task) {
			for {
				task.Delay(1)
			}
		})
		os.TaskCreate("worker", 30, func(task *Task) {
			for {
				task.Exec(200)
				progress++
			}
		})
	})
	if progress == 0 {
		t.Error("low-priority task starved by a sleeping high-priority task")
	}
}

func TestPreemptionOnWake(t *testing.T) {
	// A high-priority task waking from Delay must preempt the running
	// low-priority task at its next checkpoint.
	var trace []string
	nativeOS(t, simclock.FromMillis(4), func(os *OS) {
		os.TaskCreate("hi", 3, func(task *Task) {
			task.Delay(2)
			trace = append(trace, "hi-woke")
		})
		os.TaskCreate("lo", 40, func(task *Task) {
			for i := 0; i < 10000; i++ {
				task.Exec(500)
				if len(trace) > 0 {
					trace = append(trace, "lo-saw-it")
					return
				}
			}
		})
	})
	if len(trace) < 2 || trace[0] != "hi-woke" || trace[1] != "lo-saw-it" {
		t.Errorf("trace = %v, want preemption mid-loop", trace)
	}
}

func TestSemaphore(t *testing.T) {
	var got []int
	nativeOS(t, simclock.FromMillis(8), func(os *OS) {
		sem := os.SemCreate(0)
		os.TaskCreate("consumer", 8, func(task *Task) {
			for i := 0; i < 3; i++ {
				if task.SemPend(sem, 0) {
					got = append(got, i)
				}
			}
		})
		os.TaskCreate("producer", 12, func(task *Task) {
			for i := 0; i < 3; i++ {
				task.Delay(1)
				task.SemPost(sem)
			}
		})
	})
	if len(got) != 3 {
		t.Errorf("consumer completed %d pends, want 3", len(got))
	}
}

func TestSemTimeout(t *testing.T) {
	timedOut := false
	nativeOS(t, simclock.FromMillis(6), func(os *OS) {
		sem := os.SemCreate(0)
		os.TaskCreate("waiter", 8, func(task *Task) {
			timedOut = !task.SemPend(sem, 3)
		})
	})
	if !timedOut {
		t.Error("SemPend with no poster did not time out")
	}
}

func TestSemWakesPriorityOrder(t *testing.T) {
	var order []int
	nativeOS(t, simclock.FromMillis(10), func(os *OS) {
		sem := os.SemCreate(0)
		for _, prio := range []int{20, 10, 30} {
			p := prio
			os.TaskCreate("w", p, func(task *Task) {
				if task.SemPend(sem, 0) {
					order = append(order, p)
				}
			})
		}
		os.TaskCreate("poster", 40, func(task *Task) {
			task.Delay(2)
			for i := 0; i < 3; i++ {
				task.SemPost(sem)
				task.Delay(1)
			}
		})
	})
	if len(order) != 3 || order[0] != 10 || order[1] != 20 || order[2] != 30 {
		t.Errorf("wake order = %v, want priority order [10 20 30]", order)
	}
}

func TestQueueFIFO(t *testing.T) {
	var got []uint32
	nativeOS(t, simclock.FromMillis(8), func(os *OS) {
		q := os.QueueCreate(8)
		os.TaskCreate("rx", 8, func(task *Task) {
			for i := 0; i < 4; i++ {
				if v, ok := task.QueuePend(q, 0); ok {
					got = append(got, v)
				}
			}
		})
		os.TaskCreate("tx", 12, func(task *Task) {
			task.Delay(1)
			for i := uint32(1); i <= 4; i++ {
				task.QueuePost(q, i*11)
			}
		})
	})
	want := []uint32{11, 22, 33, 44}
	if len(got) != 4 {
		t.Fatalf("received %d messages, want 4", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("msg %d = %d, want %d (FIFO)", i, got[i], want[i])
		}
	}
}

func TestQueueFullRejects(t *testing.T) {
	nm := NewNativeMachine()
	os := NewOS("t", nm)
	q := os.QueueCreate(2)
	if !q.Post(1) || !q.Post(2) {
		t.Fatal("posts to empty queue failed")
	}
	if q.Post(3) {
		t.Error("post to full queue succeeded")
	}
}

func TestPrintReachesConsole(t *testing.T) {
	_, nm := nativeOS(t, simclock.FromMillis(2), func(os *OS) {
		os.TaskCreate("hello", 10, func(task *Task) {
			task.Print("hello-native")
		})
	})
	if !strings.Contains(nm.Console(), "hello-native") {
		t.Errorf("console = %q", nm.Console())
	}
}

func TestNativeHwTaskRoundTrip(t *testing.T) {
	var status uint32 = 999
	ok := false
	var grant HwGrant
	_, nm := nativeOS(t, simclock.FromMillis(80), func(os *OS) {
		os.TaskCreate("hw", 10, func(task *Task) {
			va, _ := task.OS.M.SetupDataSection(64 << 10)
			_ = va
			h, st := task.AcquireHw(hwtask.TaskQAM16)
			status = st
			if h == nil {
				return
			}
			grant = h.Grant
			ok = h.Run(task, 0x100, 0x800, 64, 16, 50)
		})
	})
	if status != abi.StatusReconfig {
		t.Fatalf("first acquire status = %d, want Reconfig (cold PRR)", status)
	}
	if !ok {
		t.Fatal("hardware task run failed")
	}
	if grant.PRR < 0 || grant.IRQ == 0 {
		t.Errorf("grant = %+v", grant)
	}
	if nm.Fabric.PRRs[grant.PRR].Runs != 1 {
		t.Errorf("PRR%d runs = %d, want 1", grant.PRR, nm.Fabric.PRRs[grant.PRR].Runs)
	}
	if nm.Fabric.HwMMU.Violations.Load() != 0 {
		t.Errorf("unexpected hwMMU violations: %d", nm.Fabric.HwMMU.Violations.Load())
	}
}

func TestNativeHwTaskPolledCompletion(t *testing.T) {
	ok := false
	nativeOS(t, simclock.FromMillis(80), func(os *OS) {
		os.TaskCreate("hw", 10, func(task *Task) {
			task.OS.M.SetupDataSection(64 << 10)
			h, _ := task.AcquireHw(hwtask.TaskQAM4)
			if h == nil {
				return
			}
			ok = h.RunPolled(task, 0x100, 0x800, 32, 4)
		})
	})
	if !ok {
		t.Error("polled completion failed")
	}
}

func TestWorkloadsMakeProgress(t *testing.T) {
	gsm := apps.NewGSMWorkload(2, 1)
	adpcm := apps.NewADPCMWorkload(2, 2)
	nativeOS(t, simclock.FromMillis(30), func(os *OS) {
		os.TaskCreate("gsm", 10, func(task *Task) {
			for {
				gsm.Step(task.Ctx, 0x0100_0000)
				task.Exec(50)
			}
		})
		os.TaskCreate("adpcm", 12, func(task *Task) {
			for {
				adpcm.Step(task.Ctx, 0x0110_0000)
				task.Exec(50)
			}
		})
	})
	// gsm at higher priority runs; adpcm should still run whenever gsm...
	// both are always-ready, so only the higher-priority one runs — that
	// is correct uC/OS-II semantics. Verify gsm progressed.
	if gsm.Steps() == 0 {
		t.Error("GSM workload made no progress")
	}
	if gsm.Output() == 0 {
		t.Error("GSM digest empty")
	}
}
