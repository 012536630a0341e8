package hwtask

import (
	"repro/internal/abi"
	"repro/internal/gic"
	"repro/internal/nova"
	"repro/internal/physmem"
	"repro/internal/pl"
	"repro/internal/sched"
)

// Service adapts Manager to a Mini-NOVA protection domain: the user-level
// Hardware Task Manager of §IV-E. It runs suspended at service priority
// and is woken by the kernel whenever a guest issues HcHwTaskRequest;
// every privileged effect goes through a capability portal. The service
// is born with no powers: nova.RegisterHwService delegates the kernel's
// device objects (request queue, PCAP, bitstream store, hw-task slots,
// client PDs) into its capability table at boot, and each HcMgr* portal
// rights-checks those capabilities on the way in.
type Service struct {
	M *Manager
	K *nova.Kernel
}

// BootPaperPlatform brings up the paper's hardware-task platform on k
// (Fig. 8): a Manager holding PaperTaskSet, its bitstreams in the
// kernel's store; and the Hardware Task Manager service PD "hwtm",
// created suspended at service priority on the cores of affinity (zero =
// any) and registered with the kernel over the fabric NewPaperFabric
// builds over the four PRRs of PaperPRRCapacities.
func BootPaperPlatform(k *nova.Kernel, affinity sched.CPUMask) *Manager {
	caps := PaperPRRCapacities()
	mgr := NewManager(len(caps), nova.GuestUserBase+0x10_0000)
	if err := InstallTaskSet(mgr, k.Bus, nova.BitstreamStorePA(), caps); err != nil {
		panic(err)
	}
	svcPD := k.CreatePD(nova.PDConfig{
		Name: "hwtm", Priority: nova.PrioService, Caps: nova.CapHwManager,
		Guest: &Service{M: mgr, K: k}, CodeBase: nova.GuestUserBase, CodeSize: 8 << 10,
		Affinity: affinity, StartSuspended: true,
	})
	k.RegisterHwService(svcPD, NewPaperFabric(k.Clock, k.Bus, k.GIC, caps))
	return mgr
}

// RunSlice is the service loop: fetch request, handle, post reply; the
// HcMgrComplete portal suspends the service and hands back the next
// request when one arrives.
func (s *Service) RunSlice(env *nova.Env) {
	reqID := env.Hypercall(abi.HcMgrNextRequest)
	for {
		req, ok := s.K.MgrRequest(reqID)
		if !ok {
			reqID = env.Hypercall(abi.HcMgrComplete, reqID, abi.StatusInval)
			continue
		}
		// Opportunistically clear Loading flags for finished transfers:
		// a region is done loading once the reconfiguration pipeline has
		// nothing for it anywhere (fill, queue, or active download).
		for r := range s.M.PRRs {
			if s.M.PRRs[r].Loading && !s.K.Reconfig.InFlight(r) {
				s.M.PRRs[r].Loading = false
			}
		}
		status := s.M.Handle(env.Ctx, req, &portalActions{env: env})
		reqID = env.Hypercall(abi.HcMgrComplete, reqID, status)
	}
}

// portalActions implements Actions through the HcMgr* capability portals.
type portalActions struct {
	env *nova.Env
}

func (a *portalActions) PRRBusy(prr int) bool {
	// Epoch-snapshot read: on a multi-core machine the run/done bits flip
	// on client-core clocks, so the kernel answers from the last barrier's
	// snapshot instead of the live fabric state.
	return a.env.K.PRRBusy(prr)
}

func (a *portalActions) PRRQuarantined(prr int) bool {
	// Region health lives in the kernel's reconfiguration pipeline, on
	// the manager's own core — a direct read, no portal round trip.
	return a.env.K.PRRQuarantined(prr)
}

func (a *portalActions) Reclaim(clientID, prr int) {
	a.env.Hypercall(abi.HcMgrUnmapIface, uint32(clientID), uint32(prr))
}

func (a *portalActions) MapIface(req abi.Request, prr int) bool {
	return a.env.Hypercall(abi.HcMgrMapIface, req.ID, uint32(prr)) == abi.StatusOK
}

func (a *portalActions) LoadWindow(req abi.Request, prr int) bool {
	return a.env.Hypercall(abi.HcMgrHwMMULoad, uint32(req.ClientID), uint32(prr)) == abi.StatusOK
}

// StartReconfig implements Actions through the HcMgrPCAPStart portal,
// which hands the download to the kernel's reconfiguration pipeline:
// cached bitstreams skip the SD staging read, and a busy PCAP queues the
// request (by client priority) instead of failing it back here.
func (a *portalActions) StartReconfig(req abi.Request, t *TaskInfo, prr int) bool {
	return a.env.Hypercall(abi.HcMgrPCAPStart, req.ID, t.BitstreamOff, t.BitstreamLen, uint32(prr)) == abi.StatusOK
}

func (a *portalActions) AllocIRQ(req abi.Request, prr int) (int, bool) {
	ret := a.env.Hypercall(abi.HcMgrAllocIRQ, req.ID, uint32(prr))
	if ret < 32 || ret == abi.StatusErr {
		return 0, false
	}
	return int(ret), true
}

// NativeActions implements Actions for the non-virtualized baseline: the
// manager runs as an RTOS function in a unified, privileged address space
// (§V-B "native execution"). There are no page tables to edit and no vGIC;
// only the physical devices are programmed.
type NativeActions struct {
	Fabric *pl.Fabric
	// Sections maps client id -> physical data-section window.
	Sections map[int]pl.Window
	// StorePA is the physical base of the bitstream store.
	StorePA uint32
}

// PRRBusy implements Actions.
func (a *NativeActions) PRRBusy(prr int) bool { return a.Fabric.Busy(prr) }

// PRRQuarantined implements Actions: the native baseline runs without a
// fault plan, so every region is always healthy.
func (a *NativeActions) PRRQuarantined(prr int) bool { return false }

// Reclaim implements Actions: nothing to demap in a unified space.
func (a *NativeActions) Reclaim(clientID, prr int) {}

// MapIface implements Actions: the register group is already visible.
func (a *NativeActions) MapIface(req abi.Request, prr int) bool { return true }

// LoadWindow implements Actions: still required — the hwMMU polices DMA
// regardless of virtualization. The consistency flag at the head of the
// data section is reset for the new owner, as the kernel does under
// virtualization.
func (a *NativeActions) LoadWindow(req abi.Request, prr int) bool {
	w, ok := a.Sections[req.ClientID]
	if !ok {
		return false
	}
	a.Fabric.HwMMU.Load(prr, w)
	_ = a.Fabric.Bus.Write32(w.Base, abi.DataSectFlagOwned)
	return true
}

// StartReconfig implements Actions by programming the PCAP directly.
func (a *NativeActions) StartReconfig(req abi.Request, t *TaskInfo, prr int) bool {
	if a.Fabric.PCAP.Busy() {
		return false
	}
	bus := a.Fabric.Bus
	dc := physmem.Addr(devcfgBase)
	_ = bus.Write32(dc+pl.PCAPRegSrc, a.StorePA+t.BitstreamOff)
	_ = bus.Write32(dc+pl.PCAPRegLen, t.BitstreamLen)
	_ = bus.Write32(dc+pl.PCAPRegTarget, uint32(prr))
	_ = bus.Write32(dc+pl.PCAPRegCtrl, 1)
	return true
}

// AllocIRQ implements Actions: allocate the line, then program and enable
// it at the fabric's GIC, which the native RTOS owns.
func (a *NativeActions) AllocIRQ(req abi.Request, prr int) (int, bool) {
	if line := a.Fabric.PRRs[prr].IRQLine; line >= 0 {
		return gic.PLIRQBase + line, true
	}
	irq, err := a.Fabric.AllocateIRQ(prr)
	if err != nil {
		return 0, false
	}
	a.Fabric.GIC.SetPriority(irq, 0x60)
	a.Fabric.GIC.Enable(irq)
	return irq, true
}

const devcfgBase = 0xF800_7000
