package nova

// Fault-tolerance and QoS regression tests for the kernel layer: PD
// teardown must purge the reconfiguration pipeline (the revoke-during-
// in-flight-reconfig hazard), and the manager-portal admission guards
// must throttle, trip and bypass exactly as configured.

import (
	"testing"

	"repro/internal/abi"
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
			reqID := env.Hypercall(abi.HcMgrNextRequest)
			for {
				view, ok := k.MgrRequest(reqID)
				if !ok {
					t.Error("MgrRequest lookup failed")
					return
				}
				env.Hypercall(abi.HcMgrMapIface, reqID, 0)
				env.Hypercall(abi.HcMgrHwMMULoad, uint32(view.ClientID), 0)
				env.Hypercall(abi.HcMgrAllocIRQ, reqID, 0)
				env.Hypercall(abi.HcMgrPCAPStart, reqID, 0, uint32(len(raw)), 0)
				reqID = env.Hypercall(abi.HcMgrComplete, reqID, abi.StatusReconfig)
			}
		}}})
	k.RegisterHwService(svc, fabricForTest(k))

	var reply uint32
	victim := k.CreatePD(PDConfig{Name: "victim", Priority: PrioGuest,
		Guest: &scriptGuest{"victim", func(env *Env) {
			for i := uint32(0); i < 16; i++ {
				env.Hypercall(abi.HcMapPage, GuestDataSect+i*0x1000, 0x20_0000+i*0x1000)
			}
			env.Hypercall(abi.HcRegionCreate, GuestDataSect, 16*0x1000)
			reply = env.Hypercall(abi.HcHwTaskRequest, 1, GuestIfaceBase, GuestDataSect)
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

	if reply != abi.StatusReconfig {
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
	k.EnableQoS()
	spin := func(env *Env) {
		for {
			env.Ctx.Exec(1 << 20)
			env.CheckPreempt()
		}
	}
	guest := k.CreatePD(PDConfig{Name: "g", Priority: PrioGuest, Guest: &scriptGuest{"g", spin}})
	crit := k.CreatePD(PDConfig{Name: "crit", Priority: PrioService, Guest: &scriptGuest{"crit", spin}})

	// A bucket's worth of tokens, then throttled.
	for i := 0; i < qosBucket; i++ {
		if st := k.admitHwRequest(guest.Core, guest); st != abi.StatusOK {
			t.Fatalf("admit %d = %d, want OK", i, st)
		}
	}
	if st := k.admitHwRequest(guest.Core, guest); st != abi.StatusThrottled {
		t.Fatalf("admit over capacity = %d, want StatusThrottled", st)
	}
	if d, _, _ := k.QoSCounters(guest); d != 1 {
		t.Errorf("denials = %d, want 1", d)
	}

	// One refill interval of simulated time refills a token.
	k.Clock.Advance(qosRefillEvery)
	if st := k.admitHwRequest(guest.Core, guest); st != abi.StatusOK {
		t.Fatalf("admit after refill = %d, want OK", st)
	}

	// Trip the breaker (as repeated launch/fault charges would) and the
	// portal answers Retry until the cooldown lapses.
	k.chargeBreaker(guest.Core, guest, 0, qosTripAt)
	if st := k.admitHwRequest(guest.Core, guest); st != abi.StatusRetry {
		t.Fatalf("admit with open breaker = %d, want StatusRetry", st)
	}
	if _, trips, rej := k.QoSCounters(guest); trips != 1 || rej != 1 {
		t.Errorf("trips/rejections = %d/%d, want 1/1", trips, rej)
	}
	k.Clock.Advance(qosCooldown)
	if st := k.admitHwRequest(guest.Core, guest); st == abi.StatusRetry {
		t.Error("breaker still open after its cooldown")
	}

	// Critical-priority clients bypass admission entirely: twice a
	// bucket's worth at one instant is still admitted.
	for i := 0; i < 2*qosBucket; i++ {
		if st := k.admitHwRequest(crit.Core, crit); st != abi.StatusOK {
			t.Fatalf("critical admit %d = %d, want OK (bypass)", i, st)
		}
	}
	if d, _, _ := k.QoSCounters(crit); d != 0 {
		t.Errorf("critical client counted %d denials, want 0 (bypass)", d)
	}
}

// TestQoSGuardsClones forks a clone on a kernel whose guards are on: the
// clone's acquires are paced like any PD's, so past a bucket's worth at
// one instant the portal throttles it.
func TestQoSGuardsClones(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	k.EnableQoS()
	_, img := bootFrozenTemplate(t, k, false)
	clone := k.CreateClone(img, "clone", cloneWriter("clone", 0))
	for i := 0; i < qosBucket; i++ {
		if st := k.admitHwRequest(clone.Core, clone); st != abi.StatusOK {
			t.Fatalf("clone admit %d = %d, want OK", i, st)
		}
	}
	if st := k.admitHwRequest(clone.Core, clone); st != abi.StatusThrottled {
		t.Fatalf("clone admit over capacity = %d, want StatusThrottled (the clone runs unguarded)", st)
	}
	if d, _, _ := k.QoSCounters(clone); d != 1 {
		t.Errorf("clone denials = %d, want 1", d)
	}
}

func TestTokenBucket(t *testing.T) {
	var b tokenBucket
	t0 := simclock.Cycles(10)
	for i := 0; i < qosBucket; i++ {
		if !b.take(t0) {
			t.Fatalf("fresh bucket refused take %d of %d", i+1, qosBucket)
		}
	}
	if b.take(t0) {
		t.Fatal("empty bucket admitted a request")
	}
	if b.denials != 1 {
		t.Errorf("denials = %d, want 1", b.denials)
	}
	// One refill interval later exactly one token is back.
	if !b.take(t0 + qosRefillEvery) {
		t.Fatal("bucket did not refill after qosRefillEvery")
	}
	if b.take(t0 + qosRefillEvery + 5) {
		t.Fatal("bucket over-refilled")
	}
	// A long idle stretch clamps at qosBucket, not beyond.
	late := t0 + 1000*qosRefillEvery
	for i := 0; i < qosBucket; i++ {
		if !b.take(late) {
			t.Fatalf("bucket after long idle refused take %d of %d", i+1, qosBucket)
		}
	}
	if b.take(late) {
		t.Error("bucket after long idle held more than qosBucket tokens")
	}
}

func TestBreaker(t *testing.T) {
	var b breaker
	for i := 1; i < qosTripAt; i++ {
		if b.charge(simclock.Cycles(i), 1) {
			t.Fatal("breaker tripped below qosTripAt")
		}
	}
	if !b.charge(qosTripAt, 1) {
		t.Fatal("breaker failed to trip at qosTripAt")
	}
	if !b.open(100) {
		t.Fatal("breaker not open during cooldown")
	}
	if b.rejections != 1 || b.trips != 1 {
		t.Errorf("trips=%d rejections=%d, want 1/1", b.trips, b.rejections)
	}
	if b.open(qosTripAt + qosCooldown) {
		t.Fatal("breaker still open after cooldown")
	}
	// The score decays: a charge one short of tripping, leaked away
	// point by point, cannot combine with a later one.
	var b2 breaker
	if b2.charge(0, qosTripAt-1) {
		t.Fatal("premature trip")
	}
	if b2.charge((qosTripAt-1)*qosDecayEvery, 1) {
		t.Fatal("decayed score still tripped")
	}
}
