package nova

import (
	"repro/internal/abi"
	"repro/internal/capspace"
	"repro/internal/cpu"
	"repro/internal/gic"
	"repro/internal/measure"
	"repro/internal/mmu"
	"repro/internal/physmem"
	"repro/internal/pl"
	"repro/internal/reconfig"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// HwRequestKind distinguishes allocation requests from releases.
type HwRequestKind int

// Request kinds.
const (
	HwReqAcquire HwRequestKind = iota
	HwReqRelease
)

// HwRequest is one queued hardware-task request (§IV-E: "Three arguments
// are passed via this hypercall: the target hardware task ID number, the
// virtual address of the task interface, and the virtual address of the
// hardware task data section").
type HwRequest struct {
	ID      uint32
	Kind    HwRequestKind
	PD      *PD
	TaskID  uint16
	IfaceVA uint32
	DataVA  uint32

	reply   uint32
	replied bool
}

// regionWindow is the payload of an ObjMemRegion kernel object: the
// physical window the capability conveys (bitstream store, data
// sections).
type regionWindow struct {
	Base physmem.Addr
	Size uint32
}

// Dispatch-path instruction costs: the SWI vector plus selector decode,
// and the capability-table walk (slot load, generation/type/rights
// checks). The resolved portal then charges its own path length
// (portalDesc.cost).
const (
	costHcDecode  = 18
	costCapLookup = 12
)

// CostIPCFastPath is the fixed kernel path length of a same-core
// synchronous portal handoff: the caller's word moves to the receiver
// and control transfers without a runqueue walk or world-switch setup —
// the donated-timeslice fast path of a NOVA-style call. Measured end to
// end by the measure.PhaseIPCCall probe.
const CostIPCFastPath = 120

// onSWI is the kernel's hypercall dispatcher — the PD exception
// interface of §III-A. It is a pure decode step: the call number is a
// selector resolved through the caller's capability table, and the
// resulting portal object's handler does the work. There is no
// privileged side door: manager portals differ from guest calls only in
// which tables hold capabilities to them.
func (k *Kernel) onSWI(c *CoreCtx, sel int, args [4]uint32) uint32 {
	t0 := c.Clock.Now()
	pd := c.Current
	if pd == nil {
		return StatusErr
	}
	pd.Hypercalls++
	pd.lastHcEntry = t0 // replay anchor for restored suspend exits (clone.go)
	c.kctx.Exec(costHcDecode)
	c.kctx.Touch(pd.kdata, false) // PD descriptor lookup
	// Capability resolution: one access into the PD's capability table
	// (kernel-resident, so per-PD cap state competes for cache space)
	// plus the table-walk instructions.
	c.kctx.Touch(pd.kdata+capTableOff+uint32(sel&capTableMask)*capSlotBytes, false)
	c.kctx.Exec(costCapLookup)

	var ret uint32
	obj, cerr := pd.Space.Lookup(sel, capspace.ObjPortal, capspace.RightCall)
	if cerr != capspace.OK {
		ret = capStatus(cerr)
	} else if p, ok := obj.Payload.(*portalDesc); !ok {
		// A device-authority object (e.g. the PCAP token) is a portal
		// capability but not a callable service entry.
		ret = StatusBadType
	} else {
		c.kctx.Exec(p.cost)
		ret = p.fn(k, c, pd, args)
	}
	d := since(c.Clock.Now(), t0)
	k.Probes.Add(measure.PhaseHypercall, c.Clock.Now()-t0)
	if k.Tracer != nil {
		k.Tracer.Core(c.ID).EmitSpan(t0, d, trace.KindHypercall, 0, uint64(sel), uint64(ret))
	}
	return ret
}

// hcTimerSet programs the caller's virtual timer. Virtual time advances
// only while the VM executes: the timer is parked across switch-out and
// resumed on switch-in, so a guest's tick count tracks its own runtime —
// as on the paper's platform, where the virtual timer state is part of
// the actively-switched vCPU (Table I).
func (k *Kernel) hcTimerSet(pd *PD, period simclock.Cycles) uint32 {
	if period < 100 {
		return StatusInval // guard against interrupt storms
	}
	k.parkVirtualTimer(pd)
	pd.VCPU.TimerPeriod = period
	pd.timerRemaining = period
	if pd == pd.Core.Current {
		k.armVirtualTimer(pd)
	}
	return StatusOK
}

// hcMapPage inserts va -> RAMBase+offset into the caller's own table —
// "memory management: mapping inserting, guest page table creation"
// (§III-A). Guests may only map their own RAM below the kernel split.
func (k *Kernel) hcMapPage(c *CoreCtx, pd *PD, va, offset uint32) uint32 {
	if va&0xFFF != 0 || offset&0xFFF != 0 || offset >= pd.RAMSize || va >= KernelCodeVA-0x1000_0000 {
		return StatusInval
	}
	pd.Table.MapPage(va, pd.RAMBase+physmem.Addr(offset), DomainGuestUser, mmu.APFull)
	k.chargePTEdit(c, pd, va)
	pd.Core.CPU.CP15Write(cpu.CP15TLBIMVA, va)
	return StatusOK
}

func (k *Kernel) hcUnmapPage(c *CoreCtx, pd *PD, va uint32) uint32 {
	if va >= KernelCodeVA-0x1000_0000 {
		return StatusInval
	}
	pd.Table.UnmapPage(va)
	k.chargePTEdit(c, pd, va)
	pd.Core.CPU.CP15Write(cpu.CP15TLBIMVA, va)
	return StatusOK
}

// chargePTEdit charges the descriptor traffic of a page-table update on
// the core performing it — the cost the paper attributes to the
// virtualized manager ("switching to the kernel space to update the
// target VM's page table").
func (k *Kernel) chargePTEdit(c *CoreCtx, pd *PD, va uint32) {
	for range pd.Table.DescriptorAddrs(va) {
		c.kctx.Touch(0xF020_0000+(va>>12&0x3FF)*4, true)
	}
}

// hcRegionCreate registers [va, va+size) as the caller's hardware-task
// data section (§IV-B: "each guest OS can define its own hardware task
// data section within its own memory space"). The section becomes a
// memory-region kernel object in the caller's space (SelDataSect); the
// manager's DMA-window load resolves it there, and re-registration
// revokes the previous object so stale delegations die with it.
func (k *Kernel) hcRegionCreate(pd *PD, va, size uint32) uint32 {
	if va&0xFFF != 0 || size == 0 || size&0xFFF != 0 || size > pd.RAMSize {
		return StatusInval
	}
	pa, err := translateGuestVA(pd, va)
	if err != nil {
		return StatusInval
	}
	// The section must be fully mapped and physically contiguous (it is a
	// DMA window the hwMMU describes with one base+size pair): verify every
	// page translates linearly.
	for off := uint32(0x1000); off < size; off += 0x1000 {
		p, err := translateGuestVA(pd, va+off)
		if err != nil || p != pa+physmem.Addr(off) {
			return StatusInval
		}
	}
	if pd.Space.RightsAt(SelDataSect) != 0 {
		pd.Space.RevokeObject(SelDataSect)
	}
	region := capspace.NewObject(capspace.ObjMemRegion, "datasect/"+pd.Name_,
		regionWindow{Base: pa, Size: size})
	pd.Space.Insert(SelDataSect, region, capspace.RightsAll)
	pd.DataSectionVA, pd.DataSectionPA, pd.DataSectionSize = va, pa, size
	return StatusOK
}

// hcHwTaskRequest queues a request for the Hardware Task Manager,
// signals the request-queue object, and blocks the caller until the
// manager posts the reply — "the Hardware Task Manager service is
// created with a higher priority level than general guests, so that this
// service can preempt guests and execute immediately once it is invoked"
// (§IV-E).
func (k *Kernel) hcHwTaskRequest(c *CoreCtx, pd *PD, kind HwRequestKind, args [4]uint32) uint32 {
	if k.hwSvc == nil || k.Fabric == nil {
		return StatusErr
	}
	if kind == HwReqAcquire {
		if _, err := pd.Space.Lookup(SelDataSect, capspace.ObjMemRegion, capspace.RightCall); err != capspace.OK {
			return StatusInval // must register a data section first
		}
		// QoS admission (qos.go): a throttled or circuit-broken client is
		// bounced here, at the portal, before its request can cost the
		// manager service (or the PCAP) anything.
		if st := k.admitHwRequest(c, pd); st != StatusOK {
			return st
		}
	}
	t0 := c.Clock.Now()
	if pd.Core == k.hwSvc.Core {
		// Same-core request: the queue lives on the manager's core, so the
		// caller may mutate it directly.
		k.nextReqID++
		req := &HwRequest{
			ID:      k.nextReqID,
			Kind:    kind,
			PD:      pd,
			TaskID:  uint16(args[0]),
			IfaceVA: args[1],
			DataVA:  args[2],
		}
		k.hwQueue = append(k.hwQueue, req)
		k.hwByID[req.ID] = req
		c.kctx.Touch(KernelDataVA+0x9000+(req.ID%64)*16, true) // queue slot
		if k.Tracer != nil {
			k.Tracer.Core(c.ID).Emit(c.Clock.Now(), trace.KindHwReqSubmit,
				uint64(req.ID), uint64(req.TaskID), uint64(pd.ID))
		}

		// Arm the Table III "HW Manager entry" probe: from this hypercall
		// (exception entry) to the manager fetching the request. When several
		// requests queue (only possible if the service is not strictly above
		// guest priority), the oldest one defines the entry latency.
		if !k.mgrEntryArmed {
			k.mgrEntryFrom = c.Clock.Now() - cpu.CostExceptionEntry
			k.mgrEntryArmed = true
		}

		k.wake(k.hwSvc)
		pd.Env.block() // resumes when the manager calls HcMgrComplete
		delete(k.hwByID, req.ID)
		k.traceHwReq(c, t0, req)
		return req.reply
	}

	// Cross-core request: the queue and its probes belong to the manager's
	// core. Charge the doorbell write and enqueue at the barrier, where the
	// committer orders concurrent callers by (cycle, core, seq) — the
	// request ID itself is drawn inside the commit so IDs are issued in
	// deterministic order. The entry probe stamps the commit on the
	// manager core's clock: on separate clock domains it measures the
	// manager-side dispatch (signal to fetch) — the quantity the dedicated
	// core shrinks — not the epoch-barrier doorbell lag, which is the
	// engine's conservative lookahead rather than a kernel cost.
	req := &HwRequest{
		Kind:    kind,
		PD:      pd,
		TaskID:  uint16(args[0]),
		IfaceVA: args[1],
		DataVA:  args[2],
	}
	c.Clock.Advance(CostDeviceAccess)
	k.post(c, func() {
		k.nextReqID++
		req.ID = k.nextReqID
		k.hwQueue = append(k.hwQueue, req)
		k.hwByID[req.ID] = req
		if k.Tracer != nil {
			// The ID is drawn here, inside the barrier commit; emit the
			// submit on the manager core's ring (commits own every ring).
			k.Tracer.Core(k.hwSvc.Core.ID).Emit(k.hwSvc.Core.Clock.Now(),
				trace.KindHwReqSubmit, uint64(req.ID), uint64(req.TaskID), uint64(pd.ID))
		}
		if !k.mgrEntryArmed {
			k.mgrEntryFrom = k.hwSvc.Core.Clock.Now()
			k.mgrEntryArmed = true
		}
		k.wake(k.hwSvc)
	})
	pd.Env.block() // resumes when the manager calls HcMgrComplete
	// The manager is done with the descriptor by the time the completion
	// wake reaches us; retire the ID at the next barrier (IDs never reuse).
	k.post(c, func() { delete(k.hwByID, req.ID) })
	k.traceHwReq(c, t0, req)
	return req.reply
}

// hcHwTaskStatus lets a guest poll PCAP completion ("by polling the
// completion signal", §IV-E) or a held task's state. With the pipeline a
// reconfiguration is "in flight" through its whole journey: SD fill,
// request queue, and PCAP download.
func (k *Kernel) hcHwTaskStatus(c *CoreCtx, pd *PD, _ uint32) uint32 {
	c.Clock.Advance(CostDeviceAccess)
	if k.Fabric == nil {
		return StatusErr
	}
	if k.Reconfig == nil {
		return StatusOK
	}
	if pd.Core == k.reconfigCore() {
		if k.Reconfig.PendingFor(pd) {
			return StatusReconfig
		}
		if pd.reconfigFault {
			// A reconfiguration for this client failed for good (retries
			// exhausted); clear-on-read, so the client unwinds exactly once.
			pd.reconfigFault = false
			return StatusFaulted
		}
		return StatusOK
	}
	// Cross-core poll: the pipeline's state advances on the manager core's
	// clock; sample it at the barrier and resume the poller with the
	// answer. The one-epoch sampling lag is the conservative lookahead the
	// engine grants every cross-core interaction.
	var status uint32 = StatusOK
	k.post(c, func() {
		if k.Reconfig.PendingFor(pd) {
			status = StatusReconfig
		} else if pd.reconfigFault {
			pd.reconfigFault = false
			status = StatusFaulted
		}
		k.wake(pd)
	})
	pd.Env.block()
	return status
}

// --- Portal IPC (call/reply through PD-object capabilities) ----------

// hcPortalCall is the synchronous portal call: resolve the destination
// PD through the caller's capability table, hand the word over, block
// until the callee replies. When the callee is already blocked in
// receive on the same core the handoff takes the fixed-cost fast path
// (CostIPCFastPath) instead of the cross-core wake; either way the
// PhaseIPCCall probe records the full call-to-reply round trip.
func (k *Kernel) hcPortalCall(c *CoreCtx, pd *PD, sel int, word uint32) uint32 {
	obj, cerr := pd.Space.Lookup(sel, capspace.ObjPD, capspace.RightCall)
	if cerr != capspace.OK {
		return capStatus(cerr)
	}
	to := obj.Payload.(*PD)
	if to == pd || to.dead {
		return StatusInval
	}
	t0 := c.Clock.Now()
	pd.ipcWord = word
	if to.Core == pd.Core {
		to.ipcCallers = append(to.ipcCallers, pd)
		c.kctx.Touch(to.kdata+0x80, true) // callee endpoint state
		if to.recvBlocked {
			to.recvBlocked = false
			c.kctx.Exec(CostIPCFastPath)
			c.ipcFastCalls++
			k.wake(to)
		}
	} else {
		// Cross-core call: the callee's endpoint state belongs to its own
		// core; charge the doorbell here and queue the caller at the
		// barrier. The callee may have died in this epoch — fail the call
		// at commit rather than strand the caller on a dead endpoint.
		c.kctx.Touch(to.kdata+0x80, true)
		c.Clock.Advance(CostDeviceAccess)
		k.post(c, func() {
			if to.dead {
				pd.ipcReply = StatusErr
				k.wake(pd)
				return
			}
			to.ipcCallers = append(to.ipcCallers, pd)
			if to.recvBlocked {
				to.recvBlocked = false
				k.wake(to)
			}
		})
	}
	pd.Env.block() // resumes when the callee replies
	d := since(c.Clock.Now(), t0)
	k.Probes.Add(measure.PhaseIPCCall, d)
	if k.Tracer != nil {
		k.Tracer.Core(c.ID).EmitSpan(t0, d, trace.KindIPCCall, 0, uint64(pd.ID), uint64(to.ID))
	}
	return pd.ipcReply
}

// hcPortalRecv receives the next queued caller, returning
// sender<<24 | (word & 0xFFFFFF). mode is a bit set (abi.Recv*):
// RecvBlock waits for a caller (otherwise StatusNoMsg); RecvReply first
// replies args[1] to the previously received caller, waking it — the
// merged reply+wait of a portal server loop. A server must reply to its
// current caller before receiving the next one; receiving again with an
// un-replied caller outstanding is refused (StatusInval) rather than
// silently stranding the blocked caller.
func (k *Kernel) hcPortalRecv(c *CoreCtx, pd *PD, mode, reply uint32) uint32 {
	if mode&abi.RecvReply != 0 {
		caller := pd.replyTo
		if caller == nil {
			return StatusInval
		}
		pd.replyTo = nil
		caller.ipcReply = reply // caller is parked; the wake publishes it
		c.kctx.Touch(caller.kdata+0x80, true)
		k.wakeFrom(c, caller)
	} else if pd.replyTo != nil {
		return StatusInval
	}
	for len(pd.ipcCallers) == 0 {
		if mode&abi.RecvBlock == 0 {
			return StatusNoMsg
		}
		pd.recvBlocked = true
		pd.Env.block()
	}
	caller := pd.ipcCallers[0]
	pd.ipcCallers = pd.ipcCallers[1:]
	pd.replyTo = caller
	c.kctx.Touch(pd.kdata+0x80, false)
	return uint32(caller.ID)<<24 | caller.ipcWord&0xFF_FFFF
}

// failPortalCallers resumes, with StatusErr, every caller blocked on a
// retiring PD's portal: callers still queued and the one whose reply
// will never come. Without this a synchronous caller would hang until
// Shutdown when its callee's guest returns.
func (k *Kernel) failPortalCallers(pd *PD) {
	for _, caller := range pd.ipcCallers {
		caller.ipcReply = StatusErr
		k.wakeFrom(pd.Core, caller)
	}
	pd.ipcCallers = nil
	if caller := pd.replyTo; caller != nil {
		pd.replyTo = nil
		caller.ipcReply = StatusErr
		k.wakeFrom(pd.Core, caller)
	}
}

// hcSD copies one 512-byte block between the simulated SD card and the
// caller's RAM (supervised shared I/O, §V-A).
func (k *Kernel) hcSD(c *CoreCtx, pd *PD, block, ramOffset uint32, write bool) uint32 {
	if ramOffset+512 > pd.RAMSize {
		return StatusInval
	}
	pa := pd.RAMBase + physmem.Addr(ramOffset)
	c.Clock.Advance(simclock.Cycles(512 / 4 * 2)) // DMA-ish block move
	if write {
		data, err := k.Bus.ReadBytes(pa, 512)
		if err != nil {
			return StatusErr
		}
		k.sdMu.Lock()
		k.sd[block] = data
		k.sdMu.Unlock()
		return StatusOK
	}
	k.sdMu.Lock()
	data, ok := k.sd[block]
	k.sdMu.Unlock()
	if !ok {
		data = make([]byte, 512)
	}
	if err := k.Bus.WriteBytes(pa, data); err != nil {
		return StatusErr
	}
	return StatusOK
}

// --- Hardware Task Manager portal bodies (§IV-E, Fig. 7) -------------
//
// The portal wrappers in portals.go have already resolved the caller's
// capabilities to the objects each operation touches (request-queue
// semaphore, hw-task slots, client PDs, the PCAP and the bitstream
// store); these bodies perform the privileged effect.

// mgrNextRequest pops the oldest queued request, blocking (service
// suspends itself) while the queue is empty. Completing the entry probe
// here captures hypercall + wakeup + world switch, the paper's "HW
// Manager entry".
func (k *Kernel) mgrNextRequest(c *CoreCtx, pd *PD) uint32 {
	for len(k.hwQueue) == 0 {
		// On a multi-core machine the manager usually owns its core: the
		// "exit" ends here, when the service removes itself from the run
		// queue — there is no guest to switch to on a dedicated core.
		if len(k.Cores) > 1 && k.mgrExitArmed {
			k.Probes.Add(measure.PhaseMgrExit, since(c.Clock.Now(), k.mgrExitFrom))
			k.mgrExitArmed = false
		}
		pd.Env.block()
	}
	req := k.hwQueue[0]
	k.hwQueue = k.hwQueue[1:]
	c.kctx.Touch(KernelDataVA+0x9000+(req.ID%64)*16, false)
	if k.Tracer != nil {
		k.Tracer.Core(c.ID).Emit(c.Clock.Now(), trace.KindHwReqFetch, uint64(req.ID), uint64(req.TaskID), 0)
	}
	if k.mgrEntryArmed {
		k.Probes.Add(measure.PhaseMgrEntry, since(c.Clock.Now(), k.mgrEntryFrom))
		k.mgrEntryArmed = false
	}
	// Manager execution starts when it receives the request (Table III's
	// "HW Manager execution" row).
	k.mgrExecFrom = c.Clock.Now()
	k.mgrExecArmed = true
	return req.ID
}

// mgrComplete posts the reply, wakes the requester, then immediately
// waits for the next request (merged reply+suspend, §IV-E: "After
// processing the request, the manager service will remove itself from the
// running queue list, resuming the interrupted guest OS with a return
// status"). Returns the next request ID when re-invoked.
func (k *Kernel) mgrComplete(c *CoreCtx, pd *PD, reqID, status uint32) uint32 {
	req, ok := k.hwByID[reqID]
	if !ok {
		return StatusInval
	}
	req.reply = status
	req.replied = true
	if k.Tracer != nil {
		k.Tracer.Core(c.ID).Emit(c.Clock.Now(), trace.KindHwReqComplete, uint64(reqID), uint64(status), 0)
	}
	if k.mgrExecArmed {
		k.Probes.Add(measure.PhaseMgrExec, c.Clock.Now()-k.mgrExecFrom)
		k.mgrExecArmed = false
	}
	target := req.PD
	switch {
	case target.Core == c:
		k.wake(target)
		// Arm the "HW Manager exit" probe: from here to the world switch
		// that resumes a guest.
		k.mgrExitFrom = c.Clock.Now()
		k.mgrExitArmed = true
	default:
		// Cross-core completion: the reply is published by the barrier
		// that wakes the requester. The exit probe stays on the manager's
		// core — it measures the manager leaving the CPU (self-suspend or
		// switch to a guest), not the client's scheduling latency.
		c.Clock.Advance(CostDeviceAccess)
		k.post(c, func() { k.wake(target) })
		k.mgrExitFrom = c.Clock.Now()
		k.mgrExitArmed = true
	}
	return k.mgrNextRequest(c, pd)
}

// MgrRequestView is the read-only view of a request the manager sees (the
// kernel maps the descriptor into the service's space).
type MgrRequestView struct {
	ID       uint32
	Kind     HwRequestKind
	ClientID int
	TaskID   uint16
	IfaceVA  uint32
	DataVA   uint32
}

// MgrRequest exposes a queued request's fields to the manager service.
func (k *Kernel) MgrRequest(reqID uint32) (MgrRequestView, bool) {
	req, ok := k.hwByID[reqID]
	if !ok {
		return MgrRequestView{}, false
	}
	return MgrRequestView{
		ID: req.ID, Kind: req.Kind, ClientID: req.PD.ID,
		TaskID: req.TaskID, IfaceVA: req.IfaceVA, DataVA: req.DataVA,
	}, true
}

// mgrMapIface maps the PRR's register page into the requesting client's
// table at the VA the client asked for — stage (3) of Fig. 7. The page is
// guest-user accessible, so the client programs its task directly; other
// guests have no mapping, which is the exclusivity guarantee of §IV-C.
func (k *Kernel) mgrMapIface(c *CoreCtx, reqID uint32, prr int) uint32 {
	req, ok := k.hwByID[reqID]
	if !ok || k.Fabric == nil || prr >= len(k.Fabric.PRRs) {
		return StatusInval
	}
	va := req.IfaceVA
	if va == 0 || va&0xFFF != 0 {
		return StatusInval
	}
	client := req.PD
	// The client is parked in hcHwTaskRequest for the whole acquire, so
	// its table is quiescent and may be edited from the manager's core.
	client.Table.MapPage(va, k.Fabric.GroupBase(prr), DomainGuestUser, mmu.APFull)
	k.chargePTEdit(c, client, va)
	if client.Core == c {
		client.Core.CPU.TLB.FlushVA(va, client.ASID)
		client.Core.CPU.CP15Write(cpu.CP15TLBIMVA, va)
	} else {
		// The client core's TLB is live on another goroutine: charge the
		// maintenance here, apply the shootdown at the barrier — it lands
		// before the completion wake (same shard, earlier sequence), so the
		// client never runs on the stale entry.
		c.Clock.Advance(cpu.CostCP15Op)
		asid := client.ASID
		k.post(c, func() { client.Core.CPU.InvalidateTLBVA(va, asid) })
	}
	if client.ifaceVA == nil {
		client.ifaceVA = map[int]uint32{}
	}
	client.ifaceVA[prr] = va
	return StatusOK
}

// mgrUnmapIface revokes a client's interface mapping and performs the
// consistency save of §IV-C: the register-group snapshot goes into the
// former owner's data section together with the "inconsistent" state
// flag, then the PL IRQ line is withdrawn from its vGIC. The client is
// a capability-resolved PD handle (the manager holds delegated client
// capabilities, not raw IDs).
func (k *Kernel) mgrUnmapIface(c *CoreCtx, mgr, client *PD, prr int) uint32 {
	if k.Fabric == nil {
		return StatusInval
	}
	va, ok := client.ifaceVA[prr]
	if !ok || va == 0 {
		return StatusInval
	}
	if len(k.Cores) == 1 {
		// Save the register group into the reserved structure at the head of
		// the data section: word0 = state flag (2 = inconsistent), words 1..8
		// the register image.
		if client.DataSectionSize >= 64 {
			regs := k.Fabric.SaveRegGroup(prr)
			base := client.DataSectionPA
			_ = k.Bus.Write32(base, DataSectFlagInconsistent)
			for i, r := range regs {
				_ = k.Bus.Write32(base+physmem.Addr(4+i*4), r)
			}
			c.kctx.Exec(20)
			k.Clock.Advance(9 * 2) // 9 word stores through the write buffer
		}
		client.Table.UnmapPage(va)
		k.chargePTEdit(c, client, va)
		client.Core.CPU.TLB.FlushVA(va, client.ASID)
		delete(client.ifaceVA, prr)
		// Withdraw the interrupt line.
		if line := k.Fabric.PRRs[prr].IRQLine; line >= 0 {
			irq := gic.PLIRQBase + line
			client.VGIC.Unregister(irq)
			k.plirqOwner[line] = nil
			k.GIC.Disable(irq)
			k.Fabric.ReleaseIRQ(prr)
			k.Clock.Advance(CostDeviceAccess)
		}
		return StatusOK
	}

	// Multi-core reclaim: the victim may be live on another core, so every
	// effect that its core can observe mid-epoch — the register save, the
	// unmap and TLB shootdown, the vGIC withdrawal — lands at the barrier,
	// and the manager parks until the teardown has committed (its next
	// AllocateIRQ must see the released line). Costs are charged up front
	// on the manager's clock.
	c.kctx.Exec(20)
	k.chargePTEdit(c, client, va)
	c.Clock.Advance(9 * 2)
	if line := k.Fabric.PRRs[prr].IRQLine; line >= 0 {
		c.Clock.Advance(CostDeviceAccess)
	}
	k.post(c, func() {
		// A run may have started against the stale busy snapshot this
		// epoch; abort it — reclaim wins.
		k.Fabric.AbortRun(prr)
		if client.DataSectionSize >= 64 {
			regs := k.Fabric.SaveRegGroup(prr)
			base := client.DataSectionPA
			_ = k.Bus.Write32(base, DataSectFlagInconsistent)
			for i, r := range regs {
				_ = k.Bus.Write32(base+physmem.Addr(4+i*4), r)
			}
		}
		client.Table.UnmapPage(va)
		client.Core.CPU.InvalidateTLBVA(va, client.ASID)
		delete(client.ifaceVA, prr)
		if line := k.Fabric.PRRs[prr].IRQLine; line >= 0 {
			irq := gic.PLIRQBase + line
			client.VGIC.Unregister(irq)
			k.plirqOwner[line] = nil
			k.GIC.Disable(irq)
			k.Fabric.ReleaseIRQ(prr)
		}
		k.wake(mgr)
	})
	mgr.Env.block()
	return StatusOK
}

// mgrHwMMULoad points PRR prr's DMA window at the client's data section —
// stage (4) of Fig. 7. The window is read from the client's own
// memory-region object (registered by HcRegionCreate), so the manager
// can only target a section the client itself declared.
func (k *Kernel) mgrHwMMULoad(c *CoreCtx, client *PD, prr int) uint32 {
	if k.Fabric == nil {
		return StatusInval
	}
	obj, err := client.Space.Lookup(SelDataSect, capspace.ObjMemRegion, capspace.RightCall)
	if err != capspace.OK {
		return StatusInval // client registered no (live) data section
	}
	w := obj.Payload.(regionWindow)
	k.Fabric.HwMMU.Load(prr, pl.Window{Base: w.Base, Size: w.Size, Valid: true})
	c.Clock.Advance(2 * CostDeviceAccess)
	// Run/completion events of this region now ride the owner's core clock.
	k.Fabric.BindClock(prr, client.Core.Clock)
	// Reset the consistency flag for the new owner.
	_ = k.Bus.Write32(w.Base, DataSectFlagOwned)
	return StatusOK
}

// mgrPCAPStart launches a bitstream download — stage (5) of Fig. 7 —
// through the reconfiguration pipeline. The source is an offset into the
// bitstream store region whose capability the manager holds (§IV-B: the
// store is mapped exclusively into the manager's space): a cached image
// goes straight to the PCAP leg, a cold one is staged from the SD card
// first, and a busy PCAP queues the request by the client's priority
// instead of bouncing it back as Busy. The completion IRQ is routed to
// the requesting client when its transfer actually starts ("always
// connected to the VM which launches the current transfer", §IV-D).
func (k *Kernel) mgrPCAPStart(c *CoreCtx, reqID, srcOff, length uint32, prr int, store regionWindow) uint32 {
	req, ok := k.hwByID[reqID]
	if !ok || k.Fabric == nil || k.Reconfig == nil {
		return StatusInval
	}
	// Overflow-safe store-bounds check against the region capability:
	// srcOff+length could wrap uint32.
	if srcOff > store.Size || length > store.Size-srcOff {
		return StatusInval
	}
	pd := req.PD
	// Charge the client's breaker for the launch (weight 1; a failure
	// below adds FaultWeight). The client is parked in hcHwTaskRequest
	// for the whole acquire, so its guard state is quiescent and may be
	// charged from the manager's core.
	if pd.breaker.Charge(c.Clock.Now(), 1) && k.Tracer != nil {
		k.Tracer.Core(c.ID).Emit(c.Clock.Now(), trace.KindBreakerTrip,
			uint64(reqID), uint64(pd.ID), pd.breaker.Trips)
	}
	k.Reconfig.Submit(&reconfig.Request{
		Key:      srcOff,
		SrcOff:   srcOff,
		Len:      length,
		Target:   prr,
		Priority: pd.Priority,
		Owner:    pd,
		Flow:     uint64(reqID),
		OnStart: func(*reconfig.Request) {
			if len(k.Cores) == 1 {
				k.GIC.SetTarget(gic.PCAPIRQ, pd.Core.ID)
				pd.VGIC.Register(gic.PCAPIRQ)
				pd.VGIC.Enable(gic.PCAPIRQ)
				return
			}
			// Multi-core: the completion line stays pinned to the manager's
			// core (transfer events ride its clock; onIRQ forwards the
			// injection cross-core); only the owner's vGIC registration is
			// needed, deferred to the barrier when the owner lives elsewhere.
			mc := k.reconfigCore()
			if pd.Core == mc {
				pd.VGIC.Register(gic.PCAPIRQ)
				pd.VGIC.Enable(gic.PCAPIRQ)
			} else {
				k.post(mc, func() {
					pd.VGIC.Register(gic.PCAPIRQ)
					pd.VGIC.Enable(gic.PCAPIRQ)
				})
			}
		},
		OnDone: func(r *reconfig.Request, ok bool) {
			if ok {
				k.pcapDone = append(k.pcapDone, pcapOwner{pd: pd, flow: r.Flow})
				return
			}
			// The download failed for good (retries exhausted): no
			// completion IRQ ever fires. Latch the fault for the client's
			// next HcHwTaskStatus poll and charge its breaker heavily. The
			// client core's goroutine may be live mid-epoch, so when the
			// client is homed elsewhere the charge lands at the barrier.
			mc := k.reconfigCore()
			fail := func() {
				pd.reconfigFault = true
				now := mc.Clock.Now()
				if pd.breaker.Charge(now, k.qos.FaultWeight) && k.Tracer != nil {
					k.Tracer.Core(mc.ID).Emit(now, trace.KindBreakerTrip,
						r.Flow, uint64(pd.ID), pd.breaker.Trips)
				}
			}
			if pd.Core == mc {
				fail()
			} else {
				k.post(mc, fail)
			}
		},
	})
	c.Clock.Advance(2 * CostDeviceAccess) // portal bookkeeping
	return StatusOK
}

// mgrAllocIRQ allocates a PL interrupt line for PRR prr and registers it,
// enabled, in the requesting client's vGIC (§IV-D).
func (k *Kernel) mgrAllocIRQ(c *CoreCtx, reqID uint32, prr int) uint32 {
	req, ok := k.hwByID[reqID]
	if !ok || k.Fabric == nil {
		return StatusInval
	}
	target := req.PD
	// install re-points line ownership into the new owner's vGIC. On a
	// multi-core machine it runs at the barrier: SetTarget migrates GIC
	// pending state between core banks and the previous owner may be live
	// on another core, so mid-epoch application would race.
	install := func(irq, line int) {
		k.plirqOwner[line] = target
		k.GIC.SetTarget(irq, target.Core.ID)
		target.VGIC.Register(irq)
		target.VGIC.Enable(irq)
		if target == target.Core.Current {
			k.GIC.Enable(irq)
		}
	}
	if line := k.Fabric.PRRs[prr].IRQLine; line >= 0 {
		// Line already allocated (region reuse): re-point ownership.
		irq := gic.PLIRQBase + line
		if len(k.Cores) == 1 {
			install(irq, line)
		} else {
			irq, line := irq, line
			k.post(c, func() { install(irq, line) })
		}
		return uint32(irq)
	}
	irq, err := k.Fabric.AllocateIRQ(prr)
	if err != nil {
		return StatusErr
	}
	line := irq - gic.PLIRQBase
	if len(k.Cores) == 1 {
		install(irq, line)
		k.GIC.SetPriority(irq, 0x60)
	} else {
		k.GIC.SetPriority(irq, 0x60)
		k.post(c, func() { install(irq, line) })
	}
	c.Clock.Advance(2 * CostDeviceAccess)
	return uint32(irq)
}

// Data-section reserved-structure flags (§IV-C), shared with the guest
// side through the ABI package.
const (
	DataSectFlagOwned        = abi.DataSectFlagOwned
	DataSectFlagInconsistent = abi.DataSectFlagInconsistent
)
