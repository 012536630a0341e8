package nova

// Fault-tolerance and QoS regression tests for the kernel layer: PD
// teardown must purge the reconfiguration pipeline (the revoke-during-
// in-flight-reconfig hazard), and the manager-portal admission guards
// must throttle, trip and bypass exactly as configured.

import (
	"testing"

	"repro/internal/bitstream"
	"repro/internal/simclock"
)

// TestRevokeDuringInFlightReconfig kills a client PD while its
// reconfiguration is still in flight (SD fill running, manager already
// answered Reconfig): the teardown must purge the dead PD's pipeline
// state — no completion callback may fire into the retired vGIC, the
// pipeline must drain, and the rest of the system must keep running.
func TestRevokeDuringInFlightReconfig(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	fabricForTest(k)

	// Stage a real bitstream at store offset 0 so the PCAP leg, if it
	// runs, decodes something valid.
	bs := bitstream.Synthesize(1, 0, bitstream.Resources{LUTs: 100}, 64<<10)
	raw := bs.Encode()
	if err := k.Bus.WriteBytes(BitstreamStorePA(), raw); err != nil {
		t.Fatal(err)
	}

	// Minimal manager: answer the acquire with StatusReconfig right after
	// launching the download, the overlap the real service exploits — the
	// client resumes while its bitstream is still being staged.
	svc := k.CreatePD(PDConfig{Name: "hwtm", Priority: PrioService, Caps: CapHwManager,
		StartSuspended: true, Guest: &scriptGuest{"hwtm", func(env *Env) {
			reqID := env.Hypercall(HcMgrNextRequest)
			for {
				view, ok := k.MgrRequest(reqID)
				if !ok {
					t.Error("MgrRequest lookup failed")
					return
				}
				env.Hypercall(HcMgrMapIface, reqID, 0)
				env.Hypercall(HcMgrHwMMULoad, uint32(view.ClientID), 0)
				env.Hypercall(HcMgrAllocIRQ, reqID, 0)
				env.Hypercall(HcMgrPCAPStart, reqID, 0, uint32(len(raw)), 0)
				reqID = env.Hypercall(HcMgrComplete, reqID, StatusReconfig)
			}
		}}})
	k.RegisterHwService(svc)

	var reply uint32
	victim := k.CreatePD(PDConfig{Name: "victim", Priority: PrioGuest,
		Guest: &scriptGuest{"victim", func(env *Env) {
			for i := uint32(0); i < 16; i++ {
				env.Hypercall(HcMapPage, GuestDataSect+i*0x1000, 0x20_0000+i*0x1000)
			}
			env.Hypercall(HcRegionCreate, GuestDataSect, 16*0x1000)
			reply = env.Hypercall(HcHwTaskRequest, 1, GuestIfaceBase, GuestDataSect)
			// Exit immediately: the reconfiguration is still in flight.
		}}})

	// Idle-priority bystander: it soaks up the core when nothing else is
	// runnable but never delays the victim's wakeup (a guest-priority
	// bystander would hold its whole 33 ms quantum — longer than the run).
	survived := 0
	k.CreatePD(PDConfig{Name: "bystander", Priority: PrioIdle,
		Guest: &scriptGuest{"bystander", func(env *Env) {
			for {
				env.Ctx.Exec(200)
				survived++
				env.CheckPreempt()
			}
		}}})

	k.RunFor(simclock.FromMillis(30))

	if reply != StatusReconfig {
		t.Fatalf("victim's acquire reply = %d, want StatusReconfig (the overlap window)", reply)
	}
	if !victim.Dead() {
		t.Fatal("victim PD not retired")
	}
	if got := k.Reconfig.Stats.Purged; got == 0 {
		t.Error("teardown purged no pipeline requests; the in-flight reconfig leaked")
	}
	if k.Reconfig.PendingFor(victim) {
		t.Error("pipeline still tracks the dead PD")
	}
	if !k.Reconfig.Idle() {
		t.Error("pipeline not drained after the owner died")
	}
	if survived == 0 {
		t.Error("bystander starved after the victim's teardown")
	}
}

// TestQoSAdmission exercises the portal guards directly: the token
// bucket throttles past its capacity and refills on simulated time, the
// breaker answers Retry while open, and critical-priority clients bypass
// both.
func TestQoSAdmission(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	k.EnableQoS(QoSConfig{
		BucketCapacity: 2,
		RefillEvery:    simclock.FromMillis(1),
		TripAt:         3,
		Cooldown:       simclock.FromMillis(5),
	})
	spin := func(env *Env) {
		for {
			env.Ctx.Exec(1 << 20)
			env.CheckPreempt()
		}
	}
	guest := k.CreatePD(PDConfig{Name: "g", Priority: PrioGuest, Guest: &scriptGuest{"g", spin}})
	crit := k.CreatePD(PDConfig{Name: "crit", Priority: PrioService, Guest: &scriptGuest{"crit", spin}})

	// Two tokens, then throttled.
	for i := 0; i < 2; i++ {
		if st := k.admitHwRequest(guest.Core, guest); st != StatusOK {
			t.Fatalf("admit %d = %d, want OK", i, st)
		}
	}
	if st := k.admitHwRequest(guest.Core, guest); st != StatusThrottled {
		t.Fatalf("admit over capacity = %d, want StatusThrottled", st)
	}
	if d, _, _ := k.QoSCounters(guest); d != 1 {
		t.Errorf("denials = %d, want 1", d)
	}

	// A millisecond of simulated time refills a token.
	k.Clock.Advance(simclock.FromMillis(1))
	if st := k.admitHwRequest(guest.Core, guest); st != StatusOK {
		t.Fatalf("admit after refill = %d, want OK", st)
	}

	// Trip the breaker (as repeated launch/fault charges would) and the
	// portal answers Retry until the cooldown lapses.
	now := k.Clock.Now()
	guest.breaker.Charge(now, 3)
	if st := k.admitHwRequest(guest.Core, guest); st != StatusRetry {
		t.Fatalf("admit with open breaker = %d, want StatusRetry", st)
	}
	if _, trips, rej := k.QoSCounters(guest); trips != 1 || rej != 1 {
		t.Errorf("trips/rejections = %d/%d, want 1/1", trips, rej)
	}
	k.Clock.Advance(simclock.FromMillis(6))
	if st := k.admitHwRequest(guest.Core, guest); st == StatusRetry {
		t.Error("breaker still open after its cooldown")
	}

	// Critical-priority clients bypass admission entirely — drain their
	// bucket by force and they are still admitted.
	crit.bucket.Capacity = 1
	for i := 0; i < 5; i++ {
		if st := k.admitHwRequest(crit.Core, crit); st != StatusOK {
			t.Fatalf("critical admit %d = %d, want OK (bypass)", i, st)
		}
	}
	if d, _, _ := k.QoSCounters(crit); d != 0 {
		t.Errorf("critical client counted %d denials, want 0 (bypass)", d)
	}
}
