package nova

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/bitstream"
	"repro/internal/gic"
	"repro/internal/physmem"
	"repro/internal/pl"
	"repro/internal/simclock"
)

// scriptGuest runs a closure as its Main; the workhorse of kernel tests.
type scriptGuest struct {
	name string
	main func(env *Env)
}

func (g *scriptGuest) RunSlice(env *Env) { g.main(env) }

// spin burns n instruction-chunks, polling for preemption between chunks.
func spin(env *Env, chunks int) {
	for i := 0; i < chunks; i++ {
		env.Ctx.Exec(100)
		env.CheckPreempt()
	}
}

func TestGuestRunsAndHypercalls(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	var vmid uint32 = 99
	k.CreatePD(PDConfig{Name: "g0", Priority: PrioGuest, Guest: &scriptGuest{"g0", func(env *Env) {
		env.Ctx.Exec(50)
		vmid = env.Hypercall(abi.HcVMID)
		for _, ch := range "hi" {
			env.Hypercall(abi.HcPrint, uint32(ch))
		}
	}}})
	k.RunFor(simclock.FromMillis(1))
	if vmid != 0 {
		t.Errorf("HcVMID = %d, want 0", vmid)
	}
	if got := k.ConsoleString(); got != "hi" {
		t.Errorf("console = %q, want %q", got, "hi")
	}
}

func TestRoundRobinSharesCPU(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	ran := make([]simclock.Cycles, 3)
	for i := 0; i < 3; i++ {
		i := i
		k.CreatePD(PDConfig{Name: "g", Priority: PrioGuest, Guest: &scriptGuest{"g", func(env *Env) {
			for {
				start := env.Now()
				env.Ctx.Exec(200)
				ran[i] += env.Now() - start
				env.CheckPreempt()
			}
		}}})
	}
	k.RunFor(simclock.FromMillis(200)) // two full rounds of 33ms each
	total := ran[0] + ran[1] + ran[2]
	if total == 0 {
		t.Fatal("nothing ran")
	}
	for i, r := range ran {
		share := float64(r) / float64(total)
		if share < 0.25 || share > 0.42 {
			t.Errorf("guest %d got %.1f%% of CPU, want ~33%%", i, share*100)
		}
	}
}

func TestPriorityPreemption(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	events := []string{}
	lowRunning := false
	k.CreatePD(PDConfig{Name: "low", Priority: PrioGuest, Guest: &scriptGuest{"low", func(env *Env) {
		lowRunning = true
		for {
			env.Ctx.Exec(100)
			env.CheckPreempt()
		}
	}}})
	svc := k.CreatePD(PDConfig{Name: "svc", Priority: PrioService, StartSuspended: true,
		Guest: &scriptGuest{"svc", func(env *Env) {
			events = append(events, "svc-ran")
			env.Ctx.Exec(100)
			env.Hypercall(abi.HcSuspend)
			events = append(events, "svc-again")
		}}})
	// Let the low guest run a bit, then wake the service via a timer event.
	k.Clock.After(simclock.FromMicros(500), func(simclock.Cycles) {
		k.wake(svc)
	})
	k.RunFor(simclock.FromMillis(2))
	if !lowRunning {
		t.Fatal("low-priority guest never ran")
	}
	if len(events) != 1 || events[0] != "svc-ran" {
		t.Errorf("events = %v, want [svc-ran] (service preempts, runs once, suspends)", events)
	}
}

func TestQuantumCarryOver(t *testing.T) {
	// A guest preempted early must resume with its remaining quantum, so
	// its total slice is one quantum (§III-D).
	k := NewKernel()
	defer k.Shutdown()
	var sliceTotal simclock.Cycles
	slices := []simclock.Cycles{}
	k.CreatePD(PDConfig{Name: "g", Priority: PrioGuest, Guest: &scriptGuest{"g", func(env *Env) {
		for {
			start := env.Now()
			for !env.PD.Core.needResched {
				env.Ctx.Exec(100)
				env.PendingVIRQ()
			}
			d := env.Now() - start
			sliceTotal += d
			slices = append(slices, d)
			env.CheckPreempt()
		}
	}}})
	svc := k.CreatePD(PDConfig{Name: "svc", Priority: PrioService, StartSuspended: true,
		Guest: &scriptGuest{"svc", func(env *Env) {
			for {
				env.Ctx.Exec(500)
				env.Hypercall(abi.HcSuspend)
			}
		}}})
	// Interrupt the guest twice mid-quantum.
	k.Clock.After(simclock.FromMillis(5), func(simclock.Cycles) { k.wake(svc) })
	k.Clock.After(simclock.FromMillis(15), func(simclock.Cycles) { k.wake(svc) })
	k.RunFor(simclock.FromMillis(60))
	if len(slices) < 3 {
		t.Fatalf("guest was sliced %d times, want >= 3 (two preemptions + quantum end)", len(slices))
	}
	// First three slices together should approximate one 33ms quantum:
	// the two preemptions must NOT have reset the quantum.
	sum := slices[0] + slices[1] + slices[2]
	q := simclock.FromMillis(DefaultQuantumMs)
	if sum < q*95/100 || sum > q*110/100 {
		t.Errorf("first full slice = %v, want ~%v (quantum carry-over)", sum, q)
	}
}

func TestVirtualTimerInjection(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	ticks := 0
	k.CreatePD(PDConfig{Name: "g", Priority: PrioGuest, Guest: &scriptGuest{"g", func(env *Env) {
		env.PD.VGIC.Entry = func(irq int) {
			if irq == gic.PrivateTimerIRQ {
				ticks++
				env.Ctx.Exec(30)
				env.Hypercall(abi.HcIRQEOI, uint32(irq))
			}
		}
		env.Hypercall(abi.HcIRQEnable, gic.PrivateTimerIRQ)
		env.Hypercall(abi.HcTimerSet, uint32(simclock.FromMillis(1)))
		for {
			env.Ctx.Exec(100)
			env.CheckPreempt()
		}
	}}})
	k.RunFor(simclock.FromMillis(10))
	if ticks < 8 || ticks > 11 {
		t.Errorf("virtual timer ticks = %d in 10ms at 1ms period, want ~9-10", ticks)
	}
}

func TestVirtualTimerPausedVMStaysPending(t *testing.T) {
	// A vIRQ injected while the VM is off-CPU is delivered when it is
	// scheduled again (§IV-D), and inService prevents interrupt storms.
	k := NewKernel()
	defer k.Shutdown()
	ticks := 0
	k.CreatePD(PDConfig{Name: "g", Priority: PrioGuest, Guest: &scriptGuest{"g", func(env *Env) {
		env.PD.VGIC.Entry = func(irq int) {
			ticks++
			env.Hypercall(abi.HcIRQEOI, uint32(irq))
		}
		env.Hypercall(abi.HcIRQEnable, gic.PrivateTimerIRQ)
		env.Hypercall(abi.HcTimerSet, uint32(simclock.FromMillis(1)))
		for {
			env.Ctx.Exec(100)
			env.CheckPreempt()
		}
	}}})
	hog := k.CreatePD(PDConfig{Name: "hog", Priority: PrioService, StartSuspended: true,
		Guest: &scriptGuest{"hog", func(env *Env) {
			// Monopolize the CPU for 5 ms, then suspend.
			end := env.Now() + simclock.FromMillis(5)
			for env.Now() < end {
				env.Ctx.Exec(200)
			}
			env.Hypercall(abi.HcSuspend)
		}}})
	k.Clock.After(simclock.FromMillis(2), func(simclock.Cycles) { k.wake(hog) })
	k.RunFor(simclock.FromMillis(10))
	// ~2 ticks before the hog, 1 pending delivered after resume, ~3 after:
	// the 5 ticks that fired while inService was set are coalesced.
	if ticks < 4 || ticks > 8 {
		t.Errorf("ticks = %d, want 4..8 (pending delivery after resume, storms coalesced)", ticks)
	}
}

func TestGuestCannotTouchKernelMemory(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	k.CreatePD(PDConfig{Name: "evil", Priority: PrioGuest, Guest: &scriptGuest{"evil", func(env *Env) {
		env.Ctx.Touch(KernelDataVA, true) // privileged-only page
	}}})
	k.RunFor(simclock.FromMillis(1))
	if k.PDs[0].Faults != 1 {
		t.Errorf("faults = %d, want 1 (permission abort)", k.PDs[0].Faults)
	}
}

func TestGuestCannotWriteCP15(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	var before uint32
	k.CreatePD(PDConfig{Name: "evil", Priority: PrioGuest, Guest: &scriptGuest{"evil", func(env *Env) {
		before = k.CPU.MMU.DACR
		k.CPU.CP15Write(0 /* SCTLR */, 0) // direct sensitive op from USR: traps
	}}})
	k.RunFor(simclock.FromMillis(1))
	if !k.CPU.MMU.Enabled {
		t.Error("guest disabled the MMU through a privileged write")
	}
	if k.CPU.Stats().Undefs == 0 {
		t.Error("no UND trap recorded")
	}
	_ = before
}

func TestDACRSwitchProtectsGuestKernel(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	var faultsAtUser, faultsAtKernel uint64
	k.CreatePD(PDConfig{Name: "g", Priority: PrioGuest, Guest: &scriptGuest{"g", func(env *Env) {
		// In guest-kernel context (boot default): GK pages accessible.
		env.Ctx.Touch(GuestKernelBase, true)
		faultsAtKernel = env.PD.Faults
		// Switch to guest-user context: GK pages must domain-fault.
		env.Hypercall(abi.HcDACRSwitch, 0)
		env.Ctx.Touch(GuestKernelBase, false)
		faultsAtUser = env.PD.Faults
		// And back.
		env.Hypercall(abi.HcDACRSwitch, 1)
		env.Ctx.Stalled = false
		env.Ctx.Touch(GuestKernelBase+64, true)
	}}})
	k.RunFor(simclock.FromMillis(1))
	if faultsAtKernel != 0 {
		t.Errorf("guest-kernel context faulted on its own pages (%d)", faultsAtKernel)
	}
	if faultsAtUser != 1 {
		t.Errorf("guest-user context faults = %d, want 1 (Table II NA)", faultsAtUser)
	}
	if k.PDs[0].Faults != 1 {
		t.Errorf("total faults = %d, want 1", k.PDs[0].Faults)
	}
}

func TestIPCRoundTrip(t *testing.T) {
	// Portal call/reply through a delegated PD capability: the client
	// calls the server's portal, the server receives, then replies with
	// the merged reply+receive mode.
	k := NewKernel()
	defer k.Shutdown()
	var got, reply uint32
	server := k.CreatePD(PDConfig{Name: "server", Priority: PrioGuest, Guest: &scriptGuest{"server", func(env *Env) {
		got = env.Hypercall(abi.HcPortalRecv, abi.RecvBlock)
		env.Hypercall(abi.HcPortalRecv, abi.RecvReply, 0x51) // reply, poll once
	}}})
	var sel uint32
	client := k.CreatePD(PDConfig{Name: "client", Priority: PrioGuest, Guest: &scriptGuest{"client", func(env *Env) {
		env.Ctx.Exec(100)
		reply = env.Hypercall(abi.HcPortalCall, sel, 0xABCDE)
	}}})
	s, err := k.DelegateIPC(server, client)
	if err != nil {
		t.Fatalf("DelegateIPC: %v", err)
	}
	sel = uint32(s)
	k.RunFor(simclock.FromMillis(2))
	if got&0xFF_FFFF != 0xABCDE {
		t.Errorf("received word = %#x, want 0xABCDE", got&0xFF_FFFF)
	}
	if sender := got >> 24; sender != 1 {
		t.Errorf("sender = %d, want 1", sender)
	}
	if reply != 0x51 {
		t.Errorf("caller's reply = %#x, want 0x51", reply)
	}
	if p := k.Probes.Get("ipc_call"); p.Count != 1 {
		t.Errorf("ipc_call probe samples = %d, want 1", p.Count)
	}
}

func TestIPCNonBlockingEmpty(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	var got uint32
	k.CreatePD(PDConfig{Name: "g", Priority: PrioGuest, Guest: &scriptGuest{"g", func(env *Env) {
		got = env.Hypercall(abi.HcPortalRecv, 0)
	}}})
	k.RunFor(simclock.FromMillis(1))
	if got != abi.StatusNoMsg {
		t.Errorf("empty non-blocking recv = %#x, want StatusNoMsg", got)
	}
}

func TestVFPLazySwitchBetweenVMs(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	traps := func() uint64 { return k.CPU.Stats().VFPTraps }
	for i := 0; i < 2; i++ {
		k.CreatePD(PDConfig{Name: "vfp", Priority: PrioGuest, Guest: &scriptGuest{"vfp", func(env *Env) {
			for {
				env.Ctx.VFPOp(50) // first op after every switch-in traps
				env.Ctx.Exec(100)
				env.CheckPreempt()
			}
		}}})
	}
	k.RunFor(simclock.FromMillis(150)) // several quantum rotations
	got := traps()
	// Each 33ms rotation between the two VFP users causes exactly one trap.
	if got < 3 || got > 8 {
		t.Errorf("VFP traps = %d over ~4 rotations, want one per switch (3..8)", got)
	}
}

func TestSDSupervisedIO(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	img := make([]byte, 512)
	copy(img, "bootdata")
	k.SDWriteImage(7, img)
	var status uint32
	var data uint32
	k.CreatePD(PDConfig{Name: "g", Priority: PrioGuest, Guest: &scriptGuest{"g", func(env *Env) {
		status = env.Hypercall(abi.HcSDRead, 7, 0x2000) // into RAM offset 0x2000
		v, _ := env.Ctx.Load32(GuestUserBase + (0x2000 - 0x10_0000) + 0x10_0000)
		_ = v
		// Read back through the guest's own mapping: RAM offset 0x2000 is
		// below the guest-kernel quarter, so use the kernel image VA.
		data, _ = env.Ctx.Load32(GuestKernelBase + 0x2000)
	}}})
	k.RunFor(simclock.FromMillis(1))
	if status != abi.StatusOK {
		t.Fatalf("HcSDRead = %d", status)
	}
	if data != 0x746f6f62 { // "boot" little-endian
		t.Errorf("guest read %#x, want 'boot'", data)
	}
}

// TestSDRejectsWrappingOffset: an SD offset near 2^32 must not wrap the
// caller's RAM bounds check. Both directions are refused, the bytes below
// the caller's RAM and the SD block stay as they were, and a clone (no
// RAM of its own) cannot reach on-chip memory.
func TestSDRejectsWrappingOffset(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	readBlock, writeBlock := bytes.Repeat([]byte{0xA5}, 512), bytes.Repeat([]byte{0x5A}, 512)
	k.SDWriteImage(7, readBlock)
	k.SDWriteImage(8, writeBlock)
	offsets := []uint32{0xFFFF_FE00, 0xFFFF_FF00}
	var status []uint32
	pd := k.CreatePD(PDConfig{Name: "g", Priority: PrioGuest, Caps: CapIODirect, Guest: &scriptGuest{"g", func(env *Env) {
		for _, off := range offsets {
			status = append(status, env.Hypercall(abi.HcSDRead, 7, off), env.Hypercall(abi.HcSDWrite, 8, off))
		}
	}}})
	below, err := k.Bus.ReadBytes(pd.RAMBase-512, 512)
	if err != nil {
		t.Fatal(err)
	}
	k.RunFor(simclock.FromMillis(1))
	if len(status) != 2*len(offsets) {
		t.Fatalf("guest made %d SD calls, want %d", len(status), 2*len(offsets))
	}
	for i, s := range status {
		if s != abi.StatusInval {
			t.Errorf("SD %s at offset %#x = %d, want StatusInval", []string{"read", "write"}[i%2], offsets[i/2], s)
		}
	}
	if after, _ := k.Bus.ReadBytes(pd.RAMBase-512, 512); !bytes.Equal(after, below) {
		t.Error("an SD read wrote below the caller's RAM")
	}
	if !bytes.Equal(k.sd[8], writeBlock) {
		t.Error("an SD write copied memory from outside the caller's RAM")
	}

	_, img := bootFrozenTemplate(t, k, false)
	var cloneStatus uint32
	c := k.CreateClone(img, "c", &scriptGuest{"c", func(env *Env) {
		env.ResumeSuspendExit()
		cloneStatus = env.Hypercall(abi.HcSDRead, 7, offsets[0])
		for {
			env.Hypercall(abi.HcSuspend, 1)
			env.CheckPreempt()
		}
	}})
	ocm, err := k.Bus.ReadBytes(physmem.Addr(offsets[0]), 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.ActivateClone(c); err != nil {
		t.Fatal(err)
	}
	k.RunFor(simclock.FromMillis(2))
	if cloneStatus != abi.StatusInval {
		t.Errorf("clone SD read at offset %#x = %d, want StatusInval", offsets[0], cloneStatus)
	}
	if after, _ := k.Bus.ReadBytes(physmem.Addr(offsets[0]), 512); !bytes.Equal(after, ocm) {
		t.Error("a clone's SD read wrote into on-chip memory")
	}
}

// TestRegionCreateConfinedToOwnRAM: a data section is a DMA window the
// manager programs with the kernel's rights, so it must lie in the
// caller's RAM. Ranges the guest's table maps privileged-only — kernel
// text, the page-table pool, the bitstream store, the PRR register
// groups — are refused and leave no capability behind; a section in the
// guest's own RAM is still accepted.
func TestRegionCreateConfinedToOwnRAM(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	outside := []uint32{KernelCodeVA, 0xF020_0000, BitstreamStoreVA, uint32(physmem.AXIGP0Base)}
	var status []uint32
	var caps []uint32
	var own uint32
	pd := k.CreatePD(PDConfig{Name: "g", Priority: PrioGuest, Guest: &scriptGuest{"g", func(env *Env) {
		for _, va := range outside {
			status = append(status, env.Hypercall(abi.HcRegionCreate, va, 0x1000))
			caps = append(caps, uint32(env.PD.Space.RightsAt(SelDataSect)))
		}
		env.Hypercall(abi.HcMapPage, GuestDataSect, 0x20_0000)
		own = env.Hypercall(abi.HcRegionCreate, GuestDataSect, 0x1000)
	}}})
	k.RunFor(simclock.FromMillis(1))
	if len(status) != len(outside) {
		t.Fatalf("guest made %d region creates, want %d", len(status), len(outside))
	}
	for i, va := range outside {
		if status[i] != abi.StatusInval {
			t.Errorf("HcRegionCreate(%#x) = %d, want StatusInval (RAM is [%#x, +%#x))",
				va, status[i], uint32(pd.RAMBase), pd.RAMSize)
		}
		if caps[i] != 0 {
			t.Errorf("HcRegionCreate(%#x) left a data-section capability (rights %#x)", va, caps[i])
		}
	}
	if own != abi.StatusOK {
		t.Fatalf("HcRegionCreate in the guest's own RAM = %d, want StatusOK", own)
	}
	if want := pd.RAMBase + 0x20_0000; pd.DataSectionPA != want {
		t.Errorf("data section PA = %#x, want %#x", uint32(pd.DataSectionPA), uint32(want))
	}
}

// TestMapPageRefusesSlotsItCannotMap: HcMapPage refuses, leaving the
// caller's table untouched, a 1 MB slot the caller may not map (a
// section, or another domain's second-level table) and a slot that
// needs a second-level table its PD's pool has no room for. Each of
// these used to panic the kernel.
func TestMapPageRefusesSlotsItCannotMap(t *testing.T) {
	k := NewKernelSMP(2)
	defer k.Shutdown()
	var section, guestKernel, reuse uint32
	var fresh []uint32
	var last uint32
	pd := k.CreatePD(PDConfig{Name: "g", Priority: PrioGuest, Guest: &scriptGuest{"g", func(env *Env) {
		section = env.Hypercall(abi.HcMapPage, uint32(physmem.AXIGP0Base), 0)
		guestKernel = env.Hypercall(abi.HcMapPage, GuestKernelBase, 0)
		// One page into each distinct empty slot until the PD's table
		// pool runs dry (a private 256 KB arena on a 2-core kernel).
		for va := uint32(0x1000_0000); va < GuestKernelBase; va += 1 << 20 {
			last = va
			if fresh = append(fresh, env.Hypercall(abi.HcMapPage, va, 0)); fresh[len(fresh)-1] != abi.StatusOK {
				break
			}
		}
		reuse = env.Hypercall(abi.HcMapPage, 0x1000_1000, 0x1000) // a slot with a table
	}}})
	k.RunFor(simclock.FromMillis(5))

	if section != abi.StatusInval || guestKernel != abi.StatusInval {
		t.Errorf("HcMapPage over the AXI GP0 section = %d, over the guest-kernel slot = %d; want StatusInval for both",
			section, guestKernel)
	}
	if pa, dom, _, ok := pd.Table.Lookup(uint32(physmem.AXIGP0Base)); !ok || pa != physmem.AXIGP0Base || dom != DomainKernel {
		t.Errorf("AXI GP0 section became %#x domain %d (mapped %v)", pa, dom, ok)
	}
	if pa, dom, _, ok := pd.Table.Lookup(GuestKernelBase); !ok || pa != pd.RAMBase || dom != DomainGuestKernel {
		t.Errorf("guest-kernel page became %#x domain %d (mapped %v)", pa, dom, ok)
	}
	n := len(fresh)
	if n < 2 || fresh[n-1] != abi.StatusErr {
		t.Fatalf("fresh-slot statuses end in %d after %d calls, want StatusErr once the pool is dry", fresh[n-1], n)
	}
	if _, _, _, ok := pd.Table.Lookup(last); ok {
		t.Errorf("refused slot %#x is mapped", last)
	}
	if reuse != abi.StatusOK {
		t.Errorf("HcMapPage into a slot that has a table = %d after the pool ran dry, want StatusOK", reuse)
	}
}

func TestGuestExitRetiresPD(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	k.CreatePD(PDConfig{Name: "short", Priority: PrioGuest, Guest: &scriptGuest{"short", func(env *Env) {
		env.Ctx.Exec(100) // then return
	}}})
	other := 0
	k.CreatePD(PDConfig{Name: "long", Priority: PrioGuest, Guest: &scriptGuest{"long", func(env *Env) {
		for {
			env.Ctx.Exec(100)
			other++
			env.CheckPreempt()
		}
	}}})
	k.RunFor(simclock.FromMillis(80))
	if !k.PDs[0].Dead() {
		t.Error("returned guest not marked dead")
	}
	if other == 0 {
		t.Error("surviving guest starved after peer exit")
	}
}

// fabricForTest builds a 4-PRR fabric on the kernel's bus, for
// RegisterHwService.
func fabricForTest(k *Kernel) *pl.Fabric {
	caps := []bitstream.Resources{
		{LUTs: 10000, BRAM: 32, DSP: 48},
		{LUTs: 10000, BRAM: 32, DSP: 48},
		{LUTs: 2000, BRAM: 4, DSP: 8},
		{LUTs: 2000, BRAM: 4, DSP: 8},
	}
	return pl.NewFabric(k.Clock, k.Bus, k.GIC, caps)
}

func TestHwRequestRequiresDataSection(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	svc := k.CreatePD(PDConfig{Name: "hwtm", Priority: PrioService, Caps: CapHwManager,
		StartSuspended: true, Guest: &scriptGuest{"hwtm", func(env *Env) {
			env.Hypercall(abi.HcMgrNextRequest) // never reached in this test
		}}})
	k.RegisterHwService(svc, fabricForTest(k))
	var got uint32
	k.CreatePD(PDConfig{Name: "g", Priority: PrioGuest, Guest: &scriptGuest{"g", func(env *Env) {
		got = env.Hypercall(abi.HcHwTaskRequest, 1, GuestIfaceBase, GuestDataSect)
	}}})
	k.RunFor(simclock.FromMillis(1))
	if got != abi.StatusInval {
		t.Errorf("request without data section = %d, want StatusInval", got)
	}
}

func TestManagerPortalUnreachableWithoutDelegation(t *testing.T) {
	// A guest's capability table simply has no slot for the manager
	// portals: invoking one resolves nothing (BadSel), same as a made-up
	// call number — the portal does not exist in that space.
	k := NewKernel()
	defer k.Shutdown()
	var got uint32
	k.CreatePD(PDConfig{Name: "g", Priority: PrioGuest, Guest: &scriptGuest{"g", func(env *Env) {
		got = env.Hypercall(abi.HcMgrHwMMULoad, 0, 0)
	}}})
	k.RunFor(simclock.FromMillis(1))
	if got != abi.StatusBadSel {
		t.Errorf("portal without delegation = %d, want StatusBadSel", got)
	}
}

func TestHwRequestFullPathWithFakeManager(t *testing.T) {
	// End-to-end §IV-E flow against a minimal in-test manager: request ->
	// wake service -> portals -> complete -> guest resumes with status.
	k := NewKernel()
	defer k.Shutdown()
	f := fabricForTest(k)

	svc := k.CreatePD(PDConfig{Name: "hwtm", Priority: PrioService, Caps: CapHwManager,
		StartSuspended: true, Guest: &scriptGuest{"hwtm", func(env *Env) {
			reqID := env.Hypercall(abi.HcMgrNextRequest)
			for {
				view, ok := k.MgrRequest(reqID)
				if !ok {
					t.Error("MgrRequest lookup failed")
					return
				}
				env.Ctx.Exec(500) // allocation bookkeeping
				env.Hypercall(abi.HcMgrMapIface, reqID, 0)
				env.Hypercall(abi.HcMgrHwMMULoad, uint32(view.ClientID), 0)
				env.Hypercall(abi.HcMgrAllocIRQ, reqID, 0)
				reqID = env.Hypercall(abi.HcMgrComplete, reqID, abi.StatusOK)
			}
		}}})
	k.RegisterHwService(svc, f)

	// Preload PRR0 with a loopback core so the guest can actually run it.
	f.RegisterCore(1, loopbackCore{})
	bs := bitstream.Synthesize(1, 0, bitstream.Resources{LUTs: 100}, 256)
	if err := f.LoadConfiguration(0, bs); err != nil {
		t.Fatal(err)
	}

	var reqStatus, plIRQ uint32
	done := false
	k.CreatePD(PDConfig{Name: "g", Priority: PrioGuest, Guest: &scriptGuest{"g", func(env *Env) {
		env.PD.VGIC.Entry = func(irq int) {
			plIRQ = uint32(irq)
			env.Hypercall(abi.HcIRQEOI, uint32(irq))
		}
		// Build a data section: map 16 pages at the conventional VA.
		for i := uint32(0); i < 16; i++ {
			env.Hypercall(abi.HcMapPage, GuestDataSect+i*0x1000, 0x20_0000+i*0x1000)
		}
		env.Hypercall(abi.HcRegionCreate, GuestDataSect, 16*0x1000)
		reqStatus = env.Hypercall(abi.HcHwTaskRequest, 1, GuestIfaceBase, GuestDataSect)
		if reqStatus != abi.StatusOK {
			return
		}
		// Program the task through the freshly mapped interface page.
		env.Ctx.Store32(GuestIfaceBase+pl.RegSrc, 0x100)
		env.Ctx.Store32(GuestIfaceBase+pl.RegDst, 0x200)
		env.Ctx.Store32(GuestIfaceBase+pl.RegLen, 64)
		env.Ctx.Store32(GuestIfaceBase+pl.RegCtrl, pl.CtrlStart|pl.CtrlIRQEn)
		for plIRQ == 0 {
			env.Ctx.Exec(100)
			env.CheckPreempt()
		}
		done = true
	}}})
	k.RunFor(simclock.FromMillis(5))
	if reqStatus != abi.StatusOK {
		t.Fatalf("hw task request status = %d, want OK", reqStatus)
	}
	if !done {
		t.Fatal("guest never saw the PL IRQ")
	}
	if plIRQ < gic.PLIRQBase {
		t.Errorf("vIRQ id = %d, want a PL line", plIRQ)
	}
	// The probes must have recorded the three phases.
	for _, ph := range []string{"mgr_entry", "mgr_exit", "plirq_entry"} {
		if k.Probes.Get(ph).Count == 0 {
			t.Errorf("probe %s empty", ph)
		}
	}
	if !strings.Contains(k.Probes.String(), "mgr_entry") {
		t.Error("probe summary missing mgr_entry")
	}
}

// loopbackCore copies input to output.
type loopbackCore struct{}

func (loopbackCore) Latency(n int, _ uint32) simclock.Cycles {
	return simclock.Cycles(100 + n)
}
func (loopbackCore) Process(in []byte, _ uint32) ([]byte, error) {
	out := make([]byte, len(in))
	copy(out, in)
	return out, nil
}

func TestHypercallCountMatchesPaper(t *testing.T) {
	if abi.NumHypercalls != 25 {
		t.Errorf("NumHypercalls = %d, paper says 25", abi.NumHypercalls)
	}
}

func TestVCPUTable1(t *testing.T) {
	// Table I: active switch covers GP registers + privileged CP15 state;
	// VFP moves lazily. After a world switch the incoming PD's TTBR/ASID/
	// DACR are live and VFP is disabled.
	k := NewKernel()
	defer k.Shutdown()
	a := k.CreatePD(PDConfig{Name: "a", Priority: PrioGuest, Guest: &scriptGuest{"a", func(env *Env) {
		spin(env, 1<<30)
	}}})
	b := k.CreatePD(PDConfig{Name: "b", Priority: PrioGuest, Guest: &scriptGuest{"b", func(env *Env) {
		spin(env, 1<<30)
	}}})
	k.RunFor(simclock.FromMillis(40)) // at least one rotation
	cur := k.Cores[0].Current
	if cur != a && cur != b {
		t.Fatal("no current PD")
	}
	if got := k.CPU.MMU.TTBR; got != cur.Table.Base {
		t.Errorf("live TTBR %#x != current PD's table %#x", got, cur.Table.Base)
	}
	if got := k.CPU.MMU.ASID; got != cur.ASID {
		t.Errorf("live ASID %d != current PD's %d", got, cur.ASID)
	}
	if k.CPU.VFPEnabled {
		t.Error("VFP enabled right after a switch — lazy switching broken")
	}
	if a.Switches == 0 || b.Switches == 0 {
		t.Error("switch counters not advancing")
	}
}
