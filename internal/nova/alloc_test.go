package nova

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/gic"
	"repro/internal/measure"
	"repro/internal/simclock"
)

// pingPong builds two PDs on one core that make portal round trips
// forever: a server in the merged reply+receive loop and a client
// calling it. rounds counts the client's completed calls. With lines,
// each PD also holds a bound, enabled PL line and arms a virtual timer
// whose period outlasts the whole test, so every world switch masks and
// unmasks a line and parks and re-arms a timer, but no tick injects.
func pingPong(t *testing.T, lines bool) (k *Kernel, rounds *uint64) {
	k = NewKernel()
	t.Cleanup(k.Shutdown)
	rounds = new(uint64)
	armTimer := func(env *Env) {
		if lines {
			env.Hypercall(abi.HcTimerSet, 1<<31)
		}
	}
	server := k.CreatePD(PDConfig{Name: "server", Priority: PrioGuest, Guest: &scriptGuest{"server", func(env *Env) {
		armTimer(env)
		word := env.Hypercall(abi.HcPortalRecv, abi.RecvBlock)
		for {
			word = env.Hypercall(abi.HcPortalRecv, abi.RecvBlock|abi.RecvReply, word+1)
		}
	}}})
	var sel uint32
	client := k.CreatePD(PDConfig{Name: "client", Priority: PrioGuest, Guest: &scriptGuest{"client", func(env *Env) {
		armTimer(env)
		for {
			env.Hypercall(abi.HcPortalCall, sel, uint32(*rounds)&0xFF_FFFF)
			*rounds++
		}
	}}})
	s, err := k.DelegateIPC(server, client)
	if err != nil {
		t.Fatalf("DelegateIPC: %v", err)
	}
	sel = uint32(s)
	if lines {
		k.BindPLIRQ(gic.NumPLIRQs-1, server)
		k.BindPLIRQ(gic.NumPLIRQs-2, client)
	}
	return k, rounds
}

// A steady-state portal round trip and world switch allocate nothing: a
// RunFor window holding 1,000 same-core round trips allocates exactly as
// much as one holding 2,000 (what is left is per RunFor call).
func TestPortalRoundTripAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins do not hold under -race")
	}
	for _, tc := range []struct {
		name  string
		lines bool
	}{{"bare", false}, {"lines-and-vtimer", true}} {
		t.Run(tc.name, func(t *testing.T) {
			k, rounds := pingPong(t, tc.lines)
			k.RunFor(simclock.FromMillis(2)) // warm caches, grow every slice
			t0, r0 := k.Clock.Now(), *rounds
			k.RunFor(simclock.FromMillis(2))
			if *rounds == r0 {
				t.Fatal("no round trips in the calibration window")
			}
			perRound := (k.Clock.Now() - t0) / simclock.Cycles(*rounds-r0)

			const reps = 4
			window := func(n uint64) float64 {
				w := simclock.Cycles(n) * perRound
				before := *rounds
				allocs := testing.AllocsPerRun(reps, func() { k.RunFor(w) })
				// AllocsPerRun adds one warm-up call to the reps.
				if got := (*rounds - before) / (reps + 1); got < n*9/10 || got > n*11/10 {
					t.Fatalf("window held %d round trips, want about %d", got, n)
				}
				return allocs
			}
			a1, a2 := window(1000), window(2000)
			t.Logf("allocs per RunFor: %v with 1,000 round trips, %v with 2,000", a1, a2)
			if a1 != a2 {
				t.Errorf("allocs per RunFor: %v with 1,000 round trips, %v with 2,000; want equal", a1, a2)
			}
			if tc.lines {
				for _, pd := range k.PDs {
					if pd.VGIC.Injected != 0 || pd.VCPU.TimerPeriod == 0 {
						t.Errorf("%s: %d injections, timer period %d; want a live timer that never ticked",
							pd.Name_, pd.VGIC.Injected, pd.VCPU.TimerPeriod)
					}
				}
			}
		})
	}
}

// Hot-path probes are resolved on first use, so a kernel lists only the
// phases it has recorded: no portal call, no ipc_call line in its report.
func TestProbesAppearOnlyOnceRecorded(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	for i := 0; i < 2; i++ {
		k.CreatePD(PDConfig{Name: "g", Priority: PrioGuest, Guest: &scriptGuest{"g", func(env *Env) {
			for {
				env.Hypercall(abi.HcVMID)
				env.Hypercall(abi.HcYield)
				env.CheckPreempt()
			}
		}}})
	}
	k.RunFor(simclock.FromMillis(1))
	names := map[string]bool{}
	for _, n := range k.Probes.Names() {
		names[n] = true
	}
	if names[measure.PhaseIPCCall] {
		t.Errorf("probes %v list %s without a portal call", k.Probes.Names(), measure.PhaseIPCCall)
	}
	for _, ph := range []string{measure.PhaseHypercall, measure.PhaseVMSwitch} {
		if k.Probes.Get(ph).Count == 0 {
			t.Errorf("%s recorded no samples", ph)
		}
	}
}
