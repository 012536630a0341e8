package nova

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/capspace"
	"repro/internal/simclock"
)

// Table-driven coverage of the hypercall/portal error paths: every
// failure mode of capability resolution must surface as its own
// documented status code, and a selector minted in one space must mean
// nothing in another (the forgery property the capability rebuild
// exists to enforce).
func TestPortalErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		// grants is the caller's boot grant set.
		grants Capability
		// setup may rewire capabilities before the system runs; it gets
		// the kernel, the caller and an idle peer PD, and returns the
		// selector the invoke step should use (0 when unused).
		setup func(t *testing.T, k *Kernel, caller, peer *PD) uint32
		// invoke issues the call under test from inside the caller.
		invoke func(env *Env, sel uint32) uint32
		want   uint32
	}{
		{
			name: "unknown-call-number",
			invoke: func(env *Env, _ uint32) uint32 {
				return env.Hypercall(99)
			},
			want: abi.StatusBadSel,
		},
		{
			name: "mgr-portal-never-delegated",
			invoke: func(env *Env, _ uint32) uint32 {
				return env.Hypercall(abi.HcMgrHwMMULoad, 0, 0)
			},
			want: abi.StatusBadSel,
		},
		{
			name: "mgr-portals-without-device-delegation",
			// CapHwManager installs the portal capabilities, but the
			// device objects arrive only with RegisterHwService: the
			// portal resolves, its queue capability does not.
			grants: CapHwManager,
			invoke: func(env *Env, _ uint32) uint32 {
				return env.Hypercall(abi.HcMgrNextRequest)
			},
			want: abi.StatusBadSel,
		},
		{
			name: "insufficient-rights-sd-write",
			// Every PD holds the SD-write portal capability; without the
			// I/O grant it carries no rights.
			invoke: func(env *Env, _ uint32) uint32 {
				return env.Hypercall(abi.HcSDWrite, 1, 0x2000)
			},
			want: abi.StatusDenied,
		},
		{
			name:   "io-grant-unlocks-sd-write",
			grants: CapIODirect,
			invoke: func(env *Env, _ uint32) uint32 {
				return env.Hypercall(abi.HcSDWrite, 1, 0x2000)
			},
			want: abi.StatusOK,
		},
		{
			name: "revoked-capability",
			setup: func(t *testing.T, k *Kernel, caller, peer *PD) uint32 {
				sel, err := k.DelegateIPC(peer, caller)
				if err != nil {
					t.Fatalf("DelegateIPC: %v", err)
				}
				// The peer withdraws its IPC identity: the delegated
				// capability goes stale everywhere at once.
				if cerr := peer.Space.RevokeObject(SelSelf); cerr != capspace.OK {
					t.Fatalf("RevokeObject: %v", cerr)
				}
				return uint32(sel)
			},
			invoke: func(env *Env, sel uint32) uint32 {
				return env.Hypercall(abi.HcPortalCall, sel, 0x123)
			},
			want: abi.StatusRevoked,
		},
		{
			name: "wrong-object-type-ipc-destination",
			// HcNull is a portal capability, not a PD: calling it as an
			// IPC destination is a type error, not a silent misroute.
			invoke: func(env *Env, _ uint32) uint32 {
				return env.Hypercall(abi.HcPortalCall, abi.HcNull, 0x123)
			},
			want: abi.StatusBadType,
		},
		{
			name: "wrong-object-type-direct-invoke",
			// Invoking the caller's own PD object as if it were a
			// service portal.
			invoke: func(env *Env, _ uint32) uint32 {
				return env.Hypercall(SelSelf)
			},
			want: abi.StatusBadType,
		},
		{
			name: "cross-pd-selector-forgery",
			setup: func(t *testing.T, k *Kernel, caller, peer *PD) uint32 {
				// The CALLER's identity is delegated into the PEER's
				// space; the caller then replays the peer's selector
				// number in its own space.
				sel, err := k.DelegateIPC(caller, peer)
				if err != nil {
					t.Fatalf("DelegateIPC: %v", err)
				}
				if _, cerr := peer.Space.Lookup(sel, capspace.ObjPD, capspace.RightCall); cerr != capspace.OK {
					t.Fatalf("peer cannot resolve its own delegated cap: %v", cerr)
				}
				return uint32(sel)
			},
			invoke: func(env *Env, sel uint32) uint32 {
				return env.Hypercall(abi.HcPortalCall, sel, 0x123)
			},
			want: abi.StatusBadSel,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			defer k.Shutdown()
			var sel, got uint32
			ran := false
			peer := k.CreatePD(PDConfig{Name: "peer", Priority: PrioGuest, StartSuspended: true,
				Guest: &scriptGuest{"peer", func(env *Env) {}}})
			caller := k.CreatePD(PDConfig{Name: "caller", Priority: PrioGuest, Caps: tc.grants,
				Guest: &scriptGuest{"caller", func(env *Env) {
					got = tc.invoke(env, sel)
					ran = true
				}}})
			if tc.setup != nil {
				sel = tc.setup(t, k, caller, peer)
			}
			k.RunFor(simclock.FromMillis(1))
			if !ran {
				t.Fatal("caller never completed the call")
			}
			if got != tc.want {
				t.Errorf("status = %d, want %d", got, tc.want)
			}
		})
	}
}

// A PD cannot re-delegate a capability it received call-only: the
// delegation chain is rights-checked at every hop.
func TestDelegatedCapCannotBeRedelegated(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	a := k.CreatePD(PDConfig{Name: "a", Priority: PrioGuest, StartSuspended: true,
		Guest: &scriptGuest{"a", func(env *Env) {}}})
	b := k.CreatePD(PDConfig{Name: "b", Priority: PrioGuest, StartSuspended: true,
		Guest: &scriptGuest{"b", func(env *Env) {}}})
	c := k.CreatePD(PDConfig{Name: "c", Priority: PrioGuest, StartSuspended: true,
		Guest: &scriptGuest{"c", func(env *Env) {}}})
	sel, err := k.DelegateIPC(a, b)
	if err != nil {
		t.Fatalf("DelegateIPC: %v", err)
	}
	if _, cerr := b.Space.DelegateFree(sel, c.Space, 0, capspace.RightCall); cerr != capspace.ErrDenied {
		t.Errorf("re-delegation of a call-only capability = %v, want ErrDenied", cerr)
	}
}

// The manager's client handles are delegated capabilities, not raw IDs:
// an empty selector in the grant range resolves nothing, and a client's
// PD ID names whatever the manager holds at that selector (a portal),
// never the client — even for the real, registered service.
func TestManagerClientForgery(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	fabricForTest(k)
	var g *PD
	var forged, byID uint32
	svc := k.CreatePD(PDConfig{Name: "hwtm", Priority: PrioService, Caps: CapHwManager,
		Guest: &scriptGuest{"hwtm", func(env *Env) {
			forged = env.Hypercall(abi.HcMgrUnmapIface, SelGrantBase+57 /* no such client */, 0)
			byID = env.Hypercall(abi.HcMgrUnmapIface, uint32(g.ID), 0)
		}}})
	k.RegisterHwService(svc)
	g = k.CreatePD(PDConfig{Name: "g", Priority: PrioGuest, Guest: &scriptGuest{"g", func(env *Env) {
		spin(env, 4)
	}}})
	k.RunFor(simclock.FromMillis(1))
	if forged != abi.StatusBadSel {
		t.Errorf("forged client handle = %d, want StatusBadSel", forged)
	}
	if byID != abi.StatusBadType {
		t.Errorf("client's PD ID as its handle = %d, want StatusBadType", byID)
	}
}

// Re-delegating the manager's powers (a fabric attached after the
// service registered) refreshes each client handle at the selector its
// PD keeps, so the manager's table does not grow; the handle still
// resolves to its PD.
func TestClientHandleRedelegationKeepsSelector(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	idle := func(name string) *PD {
		return k.CreatePD(PDConfig{Name: name, Priority: PrioGuest, StartSuspended: true,
			Guest: &scriptGuest{name, func(env *Env) {}}})
	}
	early := idle("early")
	svc := k.CreatePD(PDConfig{Name: "hwtm", Priority: PrioService, Caps: CapHwManager, StartSuspended: true,
		Guest: &scriptGuest{"hwtm", func(env *Env) {}}})
	k.RegisterHwService(svc)
	late := idle("late")
	sels, caps := []int{early.clientSel, late.clientSel}, svc.Space.CapCount()
	if sels[0] != SelGrantBase || sels[1] != SelGrantBase+1 {
		t.Fatalf("client handles at %v, want %d and %d", sels, SelGrantBase, SelGrantBase+1)
	}
	f := fabricForTest(k)
	for i, pd := range []*PD{early, late} {
		if pd.clientSel != sels[i] {
			t.Errorf("%s's handle moved from %d to %d", pd.Name_, sels[i], pd.clientSel)
		}
		if got, _, ok := clientCap(svc, pd.clientSel); !ok || got != pd {
			t.Errorf("%s's handle does not resolve to it", pd.Name_)
		}
	}
	if got, want := svc.Space.CapCount(), caps+len(f.PRRs); got != want {
		t.Errorf("manager holds %d capabilities after re-delegation, want %d (one more per PRR slot)", got, want)
	}
}

// A registered service holds slot capabilities only for real PRRs:
// acting on a fabricated region index fails resolution.
func TestManagerSlotBounds(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	fabricForTest(k) // 4 PRRs
	var got uint32
	svc := k.CreatePD(PDConfig{Name: "hwtm", Priority: PrioService, Caps: CapHwManager,
		Guest: &scriptGuest{"hwtm", func(env *Env) {
			got = env.Hypercall(abi.HcMgrAllocIRQ, 1, 99 /* no such PRR */)
		}}})
	k.RegisterHwService(svc)
	k.RunFor(simclock.FromMillis(1))
	if got != abi.StatusBadSel {
		t.Errorf("out-of-range PRR = %d, want StatusBadSel", got)
	}
}

// A server cannot receive a second caller while one is still awaiting
// its reply: the protocol violation is refused instead of silently
// stranding the first caller.
func TestIPCRecvRefusedWithUnrepliedCaller(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	var second uint32 = 12345
	server := k.CreatePD(PDConfig{Name: "server", Priority: PrioGuest,
		Guest: &scriptGuest{"server", func(env *Env) {
			env.Hypercall(abi.HcPortalRecv, 1)          // receive the caller
			second = env.Hypercall(abi.HcPortalRecv, 0) // no reply yet: refused
			env.Hypercall(abi.HcPortalRecv, 2, 0x9)     // proper reply unblocks the caller
		}}})
	var sel, reply uint32
	k.CreatePD(PDConfig{Name: "client", Priority: PrioGuest,
		Guest: &scriptGuest{"client", func(env *Env) {
			reply = env.Hypercall(abi.HcPortalCall, sel, 0x5)
		}}})
	s, err := k.DelegateIPC(server, k.PDs[1])
	if err != nil {
		t.Fatalf("DelegateIPC: %v", err)
	}
	sel = uint32(s)
	k.RunFor(simclock.FromMillis(2))
	if second != abi.StatusInval {
		t.Errorf("recv with un-replied caller = %d, want StatusInval", second)
	}
	if reply != 0x9 {
		t.Errorf("caller's reply = %#x, want 0x9 (still delivered after the refused recv)", reply)
	}
}

// A callee that exits strands nobody: queued callers and the one
// awaiting its reply resume with StatusErr when the PD retires.
func TestIPCCallerFailedWhenCalleeExits(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	server := k.CreatePD(PDConfig{Name: "server", Priority: PrioGuest,
		Guest: &scriptGuest{"server", func(env *Env) {
			env.Hypercall(abi.HcPortalRecv, 1) // receive, never reply, exit
		}}})
	var sel, reply uint32
	k.CreatePD(PDConfig{Name: "client", Priority: PrioGuest,
		Guest: &scriptGuest{"client", func(env *Env) {
			reply = env.Hypercall(abi.HcPortalCall, sel, 0x5)
		}}})
	s, err := k.DelegateIPC(server, k.PDs[1])
	if err != nil {
		t.Fatalf("DelegateIPC: %v", err)
	}
	sel = uint32(s)
	k.RunFor(simclock.FromMillis(2))
	if !server.Dead() {
		t.Fatal("server did not retire")
	}
	if reply != abi.StatusErr {
		t.Errorf("caller's reply after callee exit = %#x, want StatusErr", reply)
	}
}

// The same-core call/reply handoff takes the fixed-cost fast path and
// the ipc_call probe measures it.
func TestIPCFastPathSameCore(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	const rounds = 64
	server := k.CreatePD(PDConfig{Name: "server", Priority: PrioGuest,
		Guest: &scriptGuest{"server", func(env *Env) {
			word := env.Hypercall(abi.HcPortalRecv, 1 /* RecvBlock */)
			for i := 0; i < rounds-1; i++ {
				word = env.Hypercall(abi.HcPortalRecv, 3 /* RecvReply|RecvBlock */, (word&0xFF_FFFF)+1)
			}
			env.Hypercall(abi.HcPortalRecv, 2 /* RecvReply only */, (word&0xFF_FFFF)+1)
		}}})
	var sel uint32
	k.CreatePD(PDConfig{Name: "client", Priority: PrioGuest,
		Guest: &scriptGuest{"client", func(env *Env) {
			for i := 0; i < rounds; i++ {
				reply := env.Hypercall(abi.HcPortalCall, sel, uint32(i))
				if reply != uint32(i)+1 {
					t.Errorf("round %d: reply = %d, want %d", i, reply, i+1)
				}
			}
		}}})
	s, err := k.DelegateIPC(server, k.PDs[1])
	if err != nil {
		t.Fatalf("DelegateIPC: %v", err)
	}
	sel = uint32(s)
	k.RunFor(simclock.FromMillis(5))
	p := k.Probes.Get("ipc_call")
	if p.Count != rounds {
		t.Fatalf("ipc_call samples = %d, want %d", p.Count, rounds)
	}
	if k.IPCFastCalls() != rounds {
		t.Errorf("fast-path calls = %d, want %d (server always recv-blocked, same core)", k.IPCFastCalls(), rounds)
	}
	// The fast-path round trip must stay well under a world-switch-heavy
	// slow path: a couple of microseconds at 660 MHz.
	if mean := p.MeanMicros(); mean > 5 {
		t.Errorf("mean round trip = %.2f us, want a fast-path figure (<5us)", mean)
	}
	// The exact figure is pinned: the call/reply cost is simulated time,
	// so any drift means a change altered the IPC path's modelled cost.
	if got, want := p.MeanCycles(), 1519.703125; got != want {
		t.Errorf("mean round trip = %v cycles, pinned %v", got, want)
	}
}
