package nova_test

import (
	"encoding/binary"
	"testing"

	"repro/internal/abi"
	"repro/internal/capspace"
	"repro/internal/hwtask"
	"repro/internal/nova"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// hcOpSize is the encoded size of one fuzzed hypercall: a byte whose low
// bit picks the issuing PD (0 the guest, 1 the Hardware Task Manager), a
// selector byte (selector = byte - 16, so negative selectors and every
// capability window up to the IPC grants are reachable), and four
// little-endian argument words.
const hcOpSize = 18

type hcOp struct {
	sel  int
	args [4]uint32
}

// decodeHcOps splits the fuzz input into the guest's and the manager's
// call sequences; a trailing partial op is ignored.
func decodeHcOps(data []byte) (guest, mgr []hcOp) {
	for ; len(data) >= hcOpSize; data = data[hcOpSize:] {
		op := hcOp{sel: int(data[1]) - 16}
		for i := range op.args {
			op.args[i] = binary.LittleEndian.Uint32(data[2+4*i:])
		}
		if data[0]&1 == 0 {
			guest = append(guest, op)
		} else {
			mgr = append(mgr, op)
		}
	}
	return guest, mgr
}

// resolution is the status onSWI must return, without running a
// handler, for a selector that resolves no callable service portal. The
// kernel installs service portals only below abi.NumPortalSelectors; a
// portal-typed capability above them (the PCAP token) is a device
// authority, not a callable entry.
func resolution(err capspace.Err) uint32 {
	switch err {
	case capspace.OK:
		return abi.StatusBadType
	case capspace.ErrBadSel:
		return abi.StatusBadSel
	case capspace.ErrRevoked:
		return abi.StatusRevoked
	case capspace.ErrBadType:
		return abi.StatusBadType
	case capspace.ErrDenied:
		return abi.StatusDenied
	}
	return abi.StatusErr
}

// opsGuest issues its ops in order, checking each resolution failure,
// then parks in HcSuspend so the PD stays alive for its peer.
type opsGuest struct {
	t    *testing.T
	ops  []hcOp
	runs []int
}

func (g *opsGuest) RunSlice(env *nova.Env) {
	for _, op := range g.ops {
		_, err := env.PD.Space.Lookup(op.sel, capspace.ObjPortal, capspace.RightCall)
		callable := err == capspace.OK && op.sel < abi.NumPortalSelectors
		before := g.runs[env.PD.ID]
		ret := env.Hypercall(op.sel, op.args[:]...)
		switch ran := g.runs[env.PD.ID] - before; {
		case callable && ran != 1:
			g.t.Errorf("%s: selector %d ran %d handlers, want 1", env.PD.Name(), op.sel, ran)
		case !callable && (ran != 0 || ret != resolution(err)):
			g.t.Errorf("%s: unresolved selector %d returned %d after %d handler runs, want %d and none",
				env.PD.Name(), op.sel, ret, ran, resolution(err))
		}
	}
	for {
		env.Hypercall(abi.HcSuspend)
	}
}

// runHcOps boots a kernel with the paper's PL fabric and bitstream store,
// a guest PD and a PD registered as the Hardware Task Manager (each
// holding an IPC capability to the other), and plays the two call
// sequences for 5 simulated ms. On two cores the manager owns core 1.
func runHcOps(t *testing.T, cores int, guest, mgr []hcOp) {
	k := nova.NewKernelSMP(cores)
	defer k.Shutdown()
	var mgrMask, guestMask sched.CPUMask
	if cores > 1 {
		mgrMask, guestMask = sched.MaskOf(1), sched.MaskOf(0)
	}
	caps := hwtask.PaperPRRCapacities()
	if err := hwtask.InstallTaskSet(hwtask.NewManager(len(caps), 0), k.Bus, nova.BitstreamStorePA(), caps); err != nil {
		t.Fatal(err)
	}

	runs := nova.PortalRuns(k, 2)
	m := k.CreatePD(nova.PDConfig{Name: "hwtm", Priority: nova.PrioService, Caps: nova.CapHwManager,
		Affinity: mgrMask, Guest: &opsGuest{t: t, ops: mgr, runs: runs}})
	k.RegisterHwService(m, hwtask.NewPaperFabric(k.Clock, k.Bus, k.GIC, caps))
	g := k.CreatePD(nova.PDConfig{Name: "guest", Priority: nova.PrioGuest,
		Affinity: guestMask, Guest: &opsGuest{t: t, ops: guest, runs: runs}})
	for _, pair := range [][2]*nova.PD{{m, g}, {g, m}} {
		if _, err := k.DelegateIPC(pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	k.RunFor(simclock.FromMillis(5))
}

// FuzzHypercallDecode issues fuzz-chosen hypercalls (any selector, any
// four argument words) from a guest and from the Hardware Task Manager,
// on one and on two cores. No call may panic the kernel, and a selector
// that resolves no service portal must return its resolution status
// without running a handler. Every op's words also drive an abi.MakeReply
// round trip. The checked-in corpus (testdata/fuzz/FuzzHypercallDecode)
// holds the HcMapPage calls that used to panic the kernel.
func FuzzHypercallDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		guest, mgr := decodeHcOps(data)
		for _, op := range append(guest, mgr...) {
			status, prr, irq := op.args[0]&0xFF, int(op.args[1]&0xFF)-1, int(op.args[2]&0xFF)
			r := abi.MakeReply(status, prr, irq)
			if abi.ReplyStatus(r) != status || abi.ReplyPRR(r) != prr || abi.ReplyIRQ(r) != irq {
				t.Fatalf("MakeReply(%d, %d, %d) = %#x decodes to (%d, %d, %d)",
					status, prr, irq, r, abi.ReplyStatus(r), abi.ReplyPRR(r), abi.ReplyIRQ(r))
			}
		}
		for _, cores := range []int{1, 2} {
			runHcOps(t, cores, guest, mgr)
		}
	})
}
