package hwtask

import (
	"repro/internal/abi"
	"repro/internal/gic"
	"repro/internal/nova"
	"repro/internal/physmem"
	"repro/internal/pl"
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

// NewService wires a manager to a kernel.
func NewService(m *Manager, k *nova.Kernel) *Service {
	return &Service{M: m, K: k}
}

// RunSlice is the service loop: fetch request, handle, post reply; the
// HcMgrComplete portal suspends the service and hands back the next
// request when one arrives.
func (s *Service) RunSlice(env *nova.Env) {
	reqID := env.Hypercall(abi.HcMgrNextRequest)
	for {
		view, ok := s.K.MgrRequest(reqID)
		if !ok {
			reqID = env.Hypercall(abi.HcMgrComplete, reqID, abi.StatusInval)
			continue
		}
		kind := ReqAcquire
		if view.Kind == nova.HwReqRelease {
			kind = ReqRelease
		}
		req := Request{
			Kind:     kind,
			ReqID:    view.ID,
			ClientID: view.ClientID,
			TaskID:   view.TaskID,
			IfaceVA:  view.IfaceVA,
			DataVA:   view.DataVA,
		}
		// Opportunistically clear Loading flags for finished transfers:
		// a region is done loading once the reconfiguration pipeline has
		// nothing for it anywhere (fill, queue, or active download).
		if rc := s.K.Reconfig; rc != nil {
			for r := range s.M.PRRs {
				if s.M.PRRs[r].Loading && !rc.InFlight(r) {
					s.M.PRRs[r].Loading = false
				}
			}
		}
		status := s.M.Handle(env.Ctx, req, &portalActions{env: env, req: req})
		reqID = env.Hypercall(abi.HcMgrComplete, reqID, status)
	}
}

// portalActions implements Actions through the HcMgr* capability portals.
type portalActions struct {
	env *nova.Env
	req Request
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

func (a *portalActions) MapIface(req Request, prr int) bool {
	return a.env.Hypercall(abi.HcMgrMapIface, req.ReqID, uint32(prr)) == abi.StatusOK
}

func (a *portalActions) LoadWindow(req Request, prr int) bool {
	return a.env.Hypercall(abi.HcMgrHwMMULoad, uint32(req.ClientID), uint32(prr)) == abi.StatusOK
}

// StartReconfig implements Actions through the HcMgrPCAPStart portal,
// which hands the download to the kernel's reconfiguration pipeline:
// cached bitstreams skip the SD staging read, and a busy PCAP queues the
// request (by client priority) instead of failing it back here.
func (a *portalActions) StartReconfig(req Request, t *TaskInfo, prr int) bool {
	return a.env.Hypercall(abi.HcMgrPCAPStart, req.ReqID, t.BitstreamOff, t.BitstreamLen, uint32(prr)) == abi.StatusOK
}

func (a *portalActions) AllocIRQ(req Request, prr int) (int, bool) {
	ret := a.env.Hypercall(abi.HcMgrAllocIRQ, req.ReqID, uint32(prr))
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
	// IRQEnable enables a GIC line directly (native uCOS owns the GIC).
	IRQEnable func(irq int)
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
func (a *NativeActions) MapIface(req Request, prr int) bool { return true }

// LoadWindow implements Actions: still required — the hwMMU polices DMA
// regardless of virtualization. The consistency flag at the head of the
// data section is reset for the new owner, as the kernel does under
// virtualization.
func (a *NativeActions) LoadWindow(req Request, prr int) bool {
	w, ok := a.Sections[req.ClientID]
	if !ok {
		return false
	}
	a.Fabric.HwMMU.Load(prr, w)
	_ = a.Fabric.Bus.Write32(w.Base, 1 /* owned */)
	return true
}

// StartReconfig implements Actions by programming the PCAP directly.
func (a *NativeActions) StartReconfig(req Request, t *TaskInfo, prr int) bool {
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

// AllocIRQ implements Actions: allocate the line and enable it at the GIC
// (the native RTOS receives it directly).
func (a *NativeActions) AllocIRQ(req Request, prr int) (int, bool) {
	if line := a.Fabric.PRRs[prr].IRQLine; line >= 0 {
		return gic.PLIRQBase + line, true
	}
	irq, err := a.Fabric.AllocateIRQ(prr)
	if err != nil {
		return 0, false
	}
	if a.IRQEnable != nil {
		a.IRQEnable(irq)
	}
	return irq, true
}

const devcfgBase = 0xF800_7000
