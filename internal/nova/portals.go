package nova

import (
	"repro/internal/abi"
	"repro/internal/capspace"
	"repro/internal/cpu"
	"repro/internal/gic"
)

// Object-capability selector conventions above the service-portal range
// (abi.NumPortalSelectors). Selectors are space-local: these constants
// only describe where the kernel installs each capability at boot; a
// domain that was never delegated the object simply has an empty slot.
const (
	// SelSelf is every PD's capability to its own PD object (full
	// rights: the PD may delegate its IPC identity and revoke it).
	SelSelf = abi.NumPortalSelectors + 0
	// SelDataSect is the PD's registered hardware-task data section
	// (memory-region object created by HcRegionCreate).
	SelDataSect = abi.NumPortalSelectors + 1

	// Manager-side device capabilities, delegated by RegisterHwService.
	SelMgrQueue = abi.NumPortalSelectors + 2 // hw-request queue semaphore
	SelMgrPCAP  = abi.NumPortalSelectors + 3 // PCAP/reconfiguration pipeline
	SelMgrStore = abi.NumPortalSelectors + 4 // bitstream store region

	// SelMgrSlotBase + prr: the fabric's hardware-task slot objects
	// (window of maxPRRSlots selectors; AttachFabric guards it).
	SelMgrSlotBase = abi.NumPortalSelectors + 16

	// SelGrantBase is where delegations without a conventional slot go,
	// each into the lowest free selector: DelegateIPC's peer capabilities
	// and the manager's client handles (the PD objects it acts on when
	// reclaiming or loading DMA windows). It lies strictly above every
	// fixed window, and a free-slot insert never overwrites a capability.
	SelGrantBase = SelMgrSlotBase + maxPRRSlots
)

// maxPRRSlots is the slot window's capacity: AttachFabric panics on more
// PRRs instead of silently aliasing the grant range.
const maxPRRSlots = 16

// Kernel root-space selectors: the kernel mints its device objects into
// its own space (the boot domain) and delegates them from there.
const (
	rootSelQueue    = 0
	rootSelPCAP     = 1
	rootSelStore    = 2
	rootSelSlotBase = 8 // + prr
)

// portalFn is a portal handler: the kernel code a resolved portal
// capability transfers control to.
type portalFn func(k *Kernel, c *CoreCtx, pd *PD, args [4]uint32) uint32

// portalDesc is the payload of an ObjPortal service object: the handler
// plus its modelled path length in instructions (the kernel code the
// handler executes after decode + capability resolution).
type portalDesc struct {
	fn   portalFn
	cost int
}

// capStatus maps a capability-resolution failure to its ABI status code.
func capStatus(e capspace.Err) uint32 {
	switch e {
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

// newPortal mints one service-portal object.
func newPortal(name string, cost int, fn portalFn) *capspace.Object {
	return capspace.NewObject(capspace.ObjPortal, name, &portalDesc{fn: fn, cost: cost})
}

// buildPortalObjects mints the global service-portal objects (shared by
// every space; what differs per PD is which capabilities its table
// holds, and with what rights). Costs are the handler path lengths the
// old dispatch table charged.
func (k *Kernel) buildPortalObjects() {
	p := make([]*capspace.Object, abi.NumPortalSelectors)

	p[abi.HcNull] = newPortal("null", 18, (*Kernel).hcNull)
	p[abi.HcPrint] = newPortal("print", 30, (*Kernel).hcConsoleWrite)
	p[abi.HcVMID] = newPortal("vmid", 20, (*Kernel).hcVMID)
	p[abi.HcYield] = newPortal("yield", 28, (*Kernel).hcYield)
	p[abi.HcTimerSet] = newPortal("timer_set", 55, (*Kernel).hcTimerSet)
	p[abi.HcTimerCancel] = newPortal("timer_cancel", 35, (*Kernel).hcTimerCancel)
	p[abi.HcIRQEnable] = newPortal("irq_enable", 45, (*Kernel).hcIRQEnable)
	p[abi.HcIRQDisable] = newPortal("irq_disable", 45, (*Kernel).hcIRQDisable)
	p[abi.HcIRQEOI] = newPortal("irq_eoi", 32, (*Kernel).hcIRQEOI)
	p[abi.HcCacheFlush] = newPortal("cache_flush", 60, (*Kernel).hcCacheFlush)
	p[abi.HcTLBFlush] = newPortal("tlb_flush", 40, (*Kernel).hcTLBFlush)
	p[abi.HcMapPage] = newPortal("map_page", 90, (*Kernel).hcMapPage)
	p[abi.HcUnmapPage] = newPortal("unmap_page", 80, (*Kernel).hcUnmapPage)
	p[abi.HcRegionCreate] = newPortal("region_create", 85, (*Kernel).hcRegionCreate)
	p[abi.HcDACRSwitch] = newPortal("dacr_switch", 30, (*Kernel).hcDACRSwitch)
	p[abi.HcHwTaskRequest] = newPortal("hwtask_request", 95, (*Kernel).hcHwTaskRequest)
	p[abi.HcHwTaskRelease] = newPortal("hwtask_release", 70, (*Kernel).hcHwTaskRelease)
	p[abi.HcHwTaskStatus] = newPortal("hwtask_status", 40, (*Kernel).hcHwTaskStatus)
	p[abi.HcPortalCall] = newPortal("portal_call", 70, (*Kernel).hcPortalCall)
	p[abi.HcPortalRecv] = newPortal("portal_recv", 60, (*Kernel).hcPortalRecv)
	p[abi.HcUARTWrite] = newPortal("uart_write", 35, (*Kernel).hcConsoleWrite)
	p[abi.HcUARTRead] = newPortal("uart_read", 35, (*Kernel).hcUARTRead)
	p[abi.HcSDRead] = newPortal("sd_read", 120, (*Kernel).hcSDRead)
	p[abi.HcSDWrite] = newPortal("sd_write", 120, (*Kernel).hcSDWrite)
	p[abi.HcSuspend] = newPortal("suspend", 40, (*Kernel).hcSuspend)

	p[abi.HcMgrNextRequest] = newPortal("mgr_next_request", 50, (*Kernel).mgrNextRequest)
	p[abi.HcMgrMapIface] = newPortal("mgr_map_iface", 110, (*Kernel).mgrMapIface)
	p[abi.HcMgrUnmapIface] = newPortal("mgr_unmap_iface", 70, (*Kernel).mgrUnmapIface)
	p[abi.HcMgrHwMMULoad] = newPortal("mgr_hwmmu_load", 45, (*Kernel).mgrHwMMULoad)
	p[abi.HcMgrPCAPStart] = newPortal("mgr_pcap_start", 85, (*Kernel).mgrPCAPStart)
	p[abi.HcMgrComplete] = newPortal("mgr_complete", 60, (*Kernel).mgrComplete)
	p[abi.HcMgrAllocIRQ] = newPortal("mgr_alloc_irq", 75, (*Kernel).mgrAllocIRQ)

	k.portalObjs = p
}

// populateCaps installs a fresh PD's capability table: the guest-visible
// service portals (call-only — guests cannot delegate kernel portals),
// the PD's own object (full rights), and whatever the boot grants name.
func (k *Kernel) populateCaps(pd *PD, grants Capability) {
	for sel := 0; sel < abi.NumHypercalls; sel++ {
		r := capspace.RightCall
		if sel == abi.HcSDWrite && grants&CapIODirect == 0 {
			// The portal is present in every table, but without the I/O
			// grant the capability carries no rights: invoking it is a
			// rights failure (Denied), not an unknown selector.
			r = 0
		}
		pd.Space.Insert(sel, k.portalObjs[sel], r)
	}
	if grants&CapHwManager != 0 {
		for sel := abi.NumHypercalls; sel < abi.NumPortalSelectors; sel++ {
			pd.Space.Insert(sel, k.portalObjs[sel], capspace.RightCall)
		}
	}
	pd.selfObj = capspace.NewObject(capspace.ObjPD, pd.Name_, pd)
	pd.Space.Insert(SelSelf, pd.selfObj, capspace.RightsAll)
}

// DelegateIPC copies pd's PD-object capability into to's space
// (call-only), making pd a portal-call destination for to. Returns the
// selector minted in to's space. This is the kernel API harnesses use to
// wire IPC topologies at boot; the delegation flows through pd's own
// self capability, so it is counted in pd's delegation stats and dies
// with a revocation of pd's identity.
func (k *Kernel) DelegateIPC(pd, to *PD) (int, error) {
	sel, err := pd.Space.DelegateFree(SelSelf, to.Space, SelGrantBase, capspace.RightCall)
	if err != capspace.OK {
		return -1, err
	}
	return sel, nil
}

// CapStats aggregates capability traffic across the kernel's root space
// and every PD's table (replay-deterministic; folded into scenario
// checksums).
func (k *Kernel) CapStats() capspace.Stats {
	total := k.rootSpace.Stats
	for _, pd := range k.PDs {
		total.Add(pd.Space.Stats)
	}
	return total
}

// IPCFastCalls counts portal calls that took the same-core synchronous
// handoff fast path (summed over the per-core shards).
func (k *Kernel) IPCFastCalls() uint64 {
	var n uint64
	for _, c := range k.Cores {
		n += c.ipcFastCalls
	}
	return n
}

// writeConsole appends one byte to the shared console. The console is a
// single serialized device: concurrent cores defer the write to the
// barrier so the stream (part of scenario digests) orders by simulated
// time, not host interleaving.
func (k *Kernel) writeConsole(c *CoreCtx, b byte) {
	if len(k.Cores) == 1 || k.inCommit {
		k.Console.WriteByte(b)
	} else {
		k.post(c, func() { k.Console.WriteByte(b) })
	}
	c.Clock.Advance(CostDeviceAccess)
}

// --- Guest service portals (the paper's 25 hypercalls) ---------------
//
// Each portal is one portalFn: a Kernel method that unpacks its own
// argument words. HcPrint and HcUARTWrite share hcConsoleWrite; the
// bodies too large for this file live in hypercall.go.

func (k *Kernel) hcNull(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	return abi.StatusOK
}

func (k *Kernel) hcConsoleWrite(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	k.writeConsole(c, byte(args[0]))
	return abi.StatusOK
}

// hcVMID resolves the caller's own PD object — the identity read is
// a real capability lookup, so a domain that revoked its self
// capability has no VMID. Failures return StatusErr (all-ones), never a
// small status code: the reply channel carries the ID itself, and a
// legitimate PD ID must stay distinguishable from an error.
func (k *Kernel) hcVMID(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	obj, err := pd.Space.Lookup(SelSelf, capspace.ObjPD, capspace.RightCall)
	if err != capspace.OK {
		return abi.StatusErr
	}
	return uint32(obj.Payload.(*PD).ID)
}

func (k *Kernel) hcYield(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	c.quantumExpired = true
	c.needResched = true
	return abi.StatusOK
}

func (k *Kernel) hcTimerCancel(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	k.parkVirtualTimer(pd)
	pd.VCPU.TimerPeriod = 0
	pd.timerRemaining = 0
	return abi.StatusOK
}

func (k *Kernel) hcIRQEnable(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	irq := int(args[0])
	if irq == gic.PrivateTimerIRQ {
		pd.VGIC.Register(irq) // virtual timer PPI: self-service
	}
	if !pd.VGIC.Enable(irq) {
		return abi.StatusDenied
	}
	if physicalLine(irq) && pd == c.Current {
		k.GIC.Enable(irq)
		c.Clock.Advance(CostDeviceAccess)
	}
	return abi.StatusOK
}

func (k *Kernel) hcIRQDisable(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	irq := int(args[0])
	if !pd.VGIC.Disable(irq) {
		return abi.StatusDenied
	}
	if physicalLine(irq) {
		k.GIC.Disable(irq)
		c.Clock.Advance(CostDeviceAccess)
	}
	return abi.StatusOK
}

func (k *Kernel) hcIRQEOI(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	if !pd.VGIC.EOI(int(args[0])) {
		return abi.StatusInval
	}
	return abi.StatusOK
}

func (k *Kernel) hcCacheFlush(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	c.CPU.CP15Write(cpu.CP15DCCISW, 0)
	return abi.StatusOK
}

func (k *Kernel) hcTLBFlush(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	c.CPU.CP15Write(cpu.CP15TLBIASID, uint32(pd.ASID))
	return abi.StatusOK
}

func (k *Kernel) hcDACRSwitch(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	guestKernelCtx := args[0] != 0
	d := dacrFor(guestKernelCtx)
	pd.VCPU.DACR = d
	c.CPU.CP15Write(cpu.CP15DACR, d)
	return abi.StatusOK
}

func (k *Kernel) hcUARTRead(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	c.Clock.Advance(CostDeviceAccess)
	return 0 // no input source modelled; returns "no data"
}

func (k *Kernel) hcSuspend(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	if args[0] == 1 {
		// Paravirtualized idle: sleep until a virtual interrupt is
		// injected (the guest's WFI). A pending injection returns
		// immediately.
		if pd.VGIC.HasPending() {
			return abi.StatusOK
		}
		pd.idleWaiting = true
		pd.Env.block()
		pd.idleWaiting = false
		return abi.StatusOK
	}
	pd.Env.block()
	return abi.StatusOK
}

// slotCap resolves the caller's capability to PRR prr's hardware-task
// slot object.
func slotCap(pd *PD, prr int) (uint32, bool) {
	if prr < 0 {
		return abi.StatusBadSel, false
	}
	if _, err := pd.Space.Lookup(SelMgrSlotBase+prr, capspace.ObjHwSlot, capspace.RightCall); err != capspace.OK {
		return capStatus(err), false
	}
	return abi.StatusOK, true
}

// clientCap resolves the caller's client handle at selector sel.
func clientCap(pd *PD, sel int) (*PD, uint32, bool) {
	obj, err := pd.Space.Lookup(sel, capspace.ObjPD, capspace.RightCall)
	if err != capspace.OK {
		return nil, capStatus(err), false
	}
	return obj.Payload.(*PD), abi.StatusOK, true
}
