package nova

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/bitstream"
	"repro/internal/gic"
	"repro/internal/pl"
	"repro/internal/sched"
	"repro/internal/simclock"
)

func TestSMPPartitionedGuestsBothProgress(t *testing.T) {
	k := NewKernelSMP(2)
	defer k.Shutdown()
	ran := make([]simclock.Cycles, 2)
	for i := 0; i < 2; i++ {
		i := i
		k.CreatePD(PDConfig{
			Name: "g", Priority: PrioGuest, Affinity: sched.MaskOf(i),
			Guest: &scriptGuest{"g", func(env *Env) {
				for {
					start := env.Now()
					env.Ctx.Exec(200)
					ran[i] += env.Now() - start
					env.CheckPreempt()
				}
			}},
		})
	}
	if k.PDs[0].Core.ID != 0 || k.PDs[1].Core.ID != 1 {
		t.Fatalf("homes = %d/%d, want 0/1", k.PDs[0].Core.ID, k.PDs[1].Core.ID)
	}
	k.RunFor(simclock.FromMillis(20))
	if ran[0] == 0 || ran[1] == 0 {
		t.Fatalf("per-core progress = %v, both cores must run", ran)
	}
	// The interleaved cores share the global clock roughly evenly when
	// both are CPU-bound.
	ratio := float64(ran[0]) / float64(ran[1])
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("core time split %v (ratio %.2f), want near-even", ran, ratio)
	}
	if k.Cores[0].Current != k.PDs[0] || k.Cores[1].Current != k.PDs[1] {
		t.Error("PDs not resident on their pinned cores")
	}
	for i, c := range k.Cores {
		if u := c.Utilization(k.Clock.Now()); u < 0.3 {
			t.Errorf("core %d utilization = %.2f, want busy", i, u)
		}
	}
}

func TestCrossCoreWakeRaisesSGI(t *testing.T) {
	// The receiver (service priority) blocks on core 1 while a guest
	// spins there; a sender on core 0 must preempt the spinner across
	// cores, which travels as a reschedule SGI on core 1's interface.
	k := NewKernelSMP(2)
	defer k.Shutdown()
	var got, reply uint32
	server := k.CreatePD(PDConfig{
		Name: "recv", Priority: PrioService, Affinity: sched.MaskOf(1),
		Guest: &scriptGuest{"recv", func(env *Env) {
			got = env.Hypercall(abi.HcPortalRecv, abi.RecvBlock) // blocked on core 1
			env.Hypercall(abi.HcPortalRecv, abi.RecvReply, 0x77) // reply the caller
			for {
				env.Ctx.Exec(100)
				env.CheckPreempt()
			}
		}},
	})
	k.CreatePD(PDConfig{
		Name: "spin1", Priority: PrioGuest, Affinity: sched.MaskOf(1),
		Guest: &scriptGuest{"spin1", func(env *Env) {
			for {
				env.Ctx.Exec(100)
				env.CheckPreempt()
			}
		}},
	})
	var sel uint32
	client := k.CreatePD(PDConfig{
		Name: "send", Priority: PrioGuest, Affinity: sched.MaskOf(0),
		Guest: &scriptGuest{"send", func(env *Env) {
			// Let core 1 reach steady state (receiver blocked, spinner
			// running) before calling.
			for env.Now() < simclock.FromMillis(2) {
				env.Ctx.Exec(100)
				env.CheckPreempt()
			}
			reply = env.Hypercall(abi.HcPortalCall, sel, 0xBEEF)
			for {
				env.Ctx.Exec(100)
				env.CheckPreempt()
			}
		}},
	})
	s, err := k.DelegateIPC(server, client)
	if err != nil {
		t.Fatalf("DelegateIPC: %v", err)
	}
	sel = uint32(s)
	k.RunFor(simclock.FromMillis(5))
	if got&0xFF_FFFF != 0xBEEF {
		t.Fatalf("cross-core IPC word = %#x, want 0xBEEF", got&0xFF_FFFF)
	}
	if reply != 0x77 {
		t.Fatalf("caller's reply = %#x, want 0x77", reply)
	}
	if s := k.GIC.Stats(); s.SGIsSent == 0 {
		t.Error("cross-core wake of a higher-priority PD sent no SGI")
	}
	// A cross-core handoff must not count as the same-core fast path.
	if k.IPCFastCalls() != 0 {
		t.Errorf("cross-core call took the same-core fast path (%d)", k.IPCFastCalls())
	}
}

func TestCrossCoreWakeLatency(t *testing.T) {
	// A service pinned on core 1 woken while core 0's guest is mid-
	// quantum must run long before the guest's 33 ms quantum expires:
	// the wake breaks the active window and the SGI forces core 1 to
	// reschedule.
	k := NewKernelSMP(2)
	defer k.Shutdown()
	var wokenAt, ranAt simclock.Cycles
	svc := k.CreatePD(PDConfig{
		Name: "svc", Priority: PrioService, Affinity: sched.MaskOf(1),
		StartSuspended: true,
		Guest: &scriptGuest{"svc", func(env *Env) {
			ranAt = env.Now()
			env.Hypercall(abi.HcSuspend)
		}},
	})
	k.CreatePD(PDConfig{
		Name: "hog", Priority: PrioGuest, Affinity: sched.MaskOf(0),
		Guest: &scriptGuest{"hog", func(env *Env) {
			for {
				env.Ctx.Exec(100)
				env.CheckPreempt()
			}
		}},
	})
	k.Clock.After(simclock.FromMillis(2), func(now simclock.Cycles) {
		wokenAt = now
		// The callback rides core 0's clock; the wake crosses to core 1
		// through the epoch committer like any cross-core effect.
		k.wakeFrom(k.Cores[0], svc)
	})
	k.RunFor(simclock.FromMillis(10))
	if ranAt == 0 {
		t.Fatal("service never ran on core 1")
	}
	latency := ranAt - wokenAt
	if latency > simclock.FromMicros(100) {
		t.Errorf("cross-core wake latency = %v, want well under the quantum", latency)
	}
	if svc.Core.ID != 1 {
		t.Errorf("service homed on core %d, want 1", svc.Core.ID)
	}
}

func TestPerCoreUtilizationIdleCore(t *testing.T) {
	k := NewKernelSMP(2)
	defer k.Shutdown()
	k.CreatePD(PDConfig{
		Name: "busy", Priority: PrioGuest, Affinity: sched.MaskOf(0),
		Guest: &scriptGuest{"busy", func(env *Env) {
			for {
				env.Ctx.Exec(200)
				env.CheckPreempt()
			}
		}},
	})
	k.RunFor(simclock.FromMillis(20))
	now := k.Clock.Now()
	u0, u1 := k.Cores[0].Utilization(now), k.Cores[1].Utilization(now)
	if u0 < 0.9 {
		t.Errorf("busy core utilization = %.2f, want ~1", u0)
	}
	if u1 > 0.01 {
		t.Errorf("idle core utilization = %.2f, want ~0", u1)
	}
}

func TestDualCoreHwServicePinnedEndToEnd(t *testing.T) {
	// The paper's intended deployment: the Hardware Task Manager service
	// owns core 1, a guest on core 0 acquires and runs a hardware task —
	// the full §IV-E flow crossing cores via SGI, with the guest's core
	// never world-switching to the service.
	k := NewKernelSMP(2)
	defer k.Shutdown()
	f := fabricForTest(k)

	svc := k.CreatePD(PDConfig{Name: "hwtm", Priority: PrioService, Caps: CapHwManager,
		Affinity: sched.MaskOf(1), StartSuspended: true,
		Guest: &scriptGuest{"hwtm", func(env *Env) {
			reqID := env.Hypercall(abi.HcMgrNextRequest)
			for {
				view, ok := k.MgrRequest(reqID)
				if !ok {
					t.Error("MgrRequest lookup failed")
					return
				}
				env.Ctx.Exec(500)
				env.Hypercall(abi.HcMgrMapIface, reqID, 0)
				env.Hypercall(abi.HcMgrHwMMULoad, uint32(view.ClientID), 0)
				env.Hypercall(abi.HcMgrAllocIRQ, reqID, 0)
				reqID = env.Hypercall(abi.HcMgrComplete, reqID, abi.StatusOK)
			}
		}}})
	k.RegisterHwService(svc, f)

	f.RegisterCore(1, loopbackCore{})
	bs := bitstream.Synthesize(1, 0, bitstream.Resources{LUTs: 100}, 256)
	if err := f.LoadConfiguration(0, bs); err != nil {
		t.Fatal(err)
	}

	var reqStatus, plIRQ uint32
	guest := k.CreatePD(PDConfig{Name: "g", Priority: PrioGuest, Affinity: sched.MaskOf(0),
		Guest: &scriptGuest{"g", func(env *Env) {
			env.PD.VGIC.Entry = func(irq int) {
				plIRQ = uint32(irq)
				env.Hypercall(abi.HcIRQEOI, uint32(irq))
			}
			for i := uint32(0); i < 16; i++ {
				env.Hypercall(abi.HcMapPage, GuestDataSect+i*0x1000, 0x20_0000+i*0x1000)
			}
			env.Hypercall(abi.HcRegionCreate, GuestDataSect, 16*0x1000)
			reqStatus = env.Hypercall(abi.HcHwTaskRequest, 1, GuestIfaceBase, GuestDataSect)
			if reqStatus != abi.StatusOK {
				return
			}
			env.Ctx.Store32(GuestIfaceBase+pl.RegSrc, 0x100)
			env.Ctx.Store32(GuestIfaceBase+pl.RegDst, 0x200)
			env.Ctx.Store32(GuestIfaceBase+pl.RegLen, 64)
			env.Ctx.Store32(GuestIfaceBase+pl.RegCtrl, pl.CtrlStart|pl.CtrlIRQEn)
			for plIRQ == 0 {
				env.Ctx.Exec(100)
				env.CheckPreempt()
			}
		}}})
	k.RunFor(simclock.FromMillis(5))

	if reqStatus != abi.StatusOK {
		t.Fatalf("hw task request status = %d, want OK", reqStatus)
	}
	if plIRQ < gic.PLIRQBase {
		t.Fatalf("vIRQ id = %d, want a PL line", plIRQ)
	}
	if svc.Core.ID != 1 || guest.Core.ID != 0 {
		t.Fatalf("placement svc=%d guest=%d, want 1/0", svc.Core.ID, guest.Core.ID)
	}
	// The PL completion line must have been routed to the guest's core.
	if got := k.GIC.TargetOf(int(plIRQ)); got != 0 {
		t.Errorf("PL IRQ targeted at core %d, want the guest's core 0", got)
	}
	// The guest's core never hosted the service: with the service resident
	// on core 1 the request path needs no world switch on core 0.
	if svc.Switches == 0 {
		t.Error("service never switched in on core 1")
	}
	if k.Cores[1].Current != svc {
		t.Error("service not resident on core 1")
	}
	if s := k.GIC.Stats(); s.SGIsSent == 0 {
		t.Error("no SGIs sent for the cross-core request flow")
	}
	for _, ph := range []string{"mgr_entry", "mgr_exit"} {
		if k.Probes.Get(ph).Count == 0 {
			t.Errorf("probe %s empty", ph)
		}
	}
}
