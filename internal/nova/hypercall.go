package nova

import (
	"slices"

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

// hwRequest is one queued hardware-task request: the descriptor the
// manager reads through MgrRequest, the requesting PD, and the reply
// HcMgrComplete posts for it.
type hwRequest struct {
	abi.Request
	pd    *PD
	reply uint32
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
		return abi.StatusErr
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
		ret = abi.StatusBadType
	} else {
		c.kctx.Exec(p.cost)
		ret = p.fn(k, c, pd, args)
	}
	k.hotSpan(c, hotHypercall, t0, uint64(sel), uint64(ret))
	return ret
}

// hcTimerSet programs the caller's virtual timer. Virtual time advances
// only while the VM executes: the timer is parked across switch-out and
// resumed on switch-in, so a guest's tick count tracks its own runtime —
// as on the paper's platform, where the virtual timer state is part of
// the actively-switched vCPU (Table I).
func (k *Kernel) hcTimerSet(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	period := simclock.Cycles(args[0])
	if period < 100 {
		return abi.StatusInval // guard against interrupt storms
	}
	k.parkVirtualTimer(pd)
	pd.VCPU.TimerPeriod = period
	pd.timerRemaining = period
	if pd == pd.Core.Current {
		k.armVirtualTimer(pd)
	}
	return abi.StatusOK
}

// hcMapPage inserts va -> RAMBase+offset into the caller's own table —
// "memory management: mapping inserting, guest page table creation"
// (§III-A). Guests may only map their own RAM, at a VA userPage accepts.
func (k *Kernel) hcMapPage(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	va, offset := args[0], args[1]
	if offset&0xFFF != 0 || offset >= pd.RAMSize {
		return abi.StatusInval
	}
	if st := userPage(pd, va); st != abi.StatusOK {
		return st
	}
	pd.Table.MapPage(va, pd.RAMBase+physmem.Addr(offset), DomainGuestUser, mmu.APFull)
	k.chargePTEdit(c, pd, va)
	pd.Core.CPU.CP15Write(cpu.CP15TLBIMVA, va)
	return abi.StatusOK
}

// userPage checks that a guest-user 4 KB page can go at va in pd's
// table, which is left untouched. va must be page aligned, below the
// kernel split, and in a 1 MB slot that is empty or already holds a
// guest-user table: a section (the kernel's device windows) or another
// domain's table (the guest-kernel image) is StatusInval. A slot that
// needs a second-level table the PD's table pool has no room for is
// StatusErr.
func userPage(pd *PD, va uint32) uint32 {
	if va&0xFFF != 0 || va >= KernelCodeVA-0x1000_0000 {
		return abi.StatusInval
	}
	switch pd.Table.CheckMapPage(va, DomainGuestUser) {
	case mmu.ErrSlotInUse:
		return abi.StatusInval
	case mmu.ErrNoTableRoom:
		return abi.StatusErr
	}
	return abi.StatusOK
}

// hcUnmapPage removes va from the caller's own table. A PD with no RAM of
// its own (a clone) may neither map nor unmap: its table maps only
// template frames, which its Shared count tracks.
func (k *Kernel) hcUnmapPage(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	va := args[0]
	if pd.RAMSize == 0 || va >= KernelCodeVA-0x1000_0000 {
		return abi.StatusInval
	}
	pd.Table.UnmapPage(va)
	k.chargePTEdit(c, pd, va)
	pd.Core.CPU.CP15Write(cpu.CP15TLBIMVA, va)
	return abi.StatusOK
}

// chargePTEdit charges the descriptor traffic of a page-table update on
// the core performing it — the cost the paper attributes to the
// virtualized manager ("switching to the kernel space to update the
// target VM's page table").
func (k *Kernel) chargePTEdit(c *CoreCtx, pd *PD, va uint32) {
	for range pd.Table.WalkDepth(va) {
		c.kctx.Touch(0xF020_0000+(va>>12&0x3FF)*4, true)
	}
}

// hcRegionCreate registers [va, va+size) as the caller's hardware-task
// data section (§IV-B: "each guest OS can define its own hardware task
// data section within its own memory space"). The section becomes a
// memory-region kernel object in the caller's space (SelDataSect); the
// manager's DMA-window load resolves it there, and re-registration
// revokes the previous object so stale delegations die with it.
func (k *Kernel) hcRegionCreate(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	va, size := args[0], args[1]
	if va&0xFFF != 0 || size == 0 || size&0xFFF != 0 || size > pd.RAMSize {
		return abi.StatusInval
	}
	pa, err := translateGuestVA(pd, va)
	if err != nil {
		return abi.StatusInval
	}
	// The section must lie in the caller's own RAM. The manager aims a
	// PRR's DMA window at it with the kernel's rights, so a range the
	// guest's table maps privileged-only (kernel text, page tables, the
	// bitstream store, the PRR registers) must not pass. size <= RAMSize,
	// so the right-hand side cannot wrap.
	if pa < pd.RAMBase || pa-pd.RAMBase > physmem.Addr(pd.RAMSize-size) {
		return abi.StatusInval
	}
	// The section must be fully mapped and physically contiguous (it is a
	// DMA window the hwMMU describes with one base+size pair): verify every
	// page translates linearly.
	for off := uint32(0x1000); off < size; off += 0x1000 {
		p, err := translateGuestVA(pd, va+off)
		if err != nil || p != pa+physmem.Addr(off) {
			return abi.StatusInval
		}
	}
	if pd.Space.RightsAt(SelDataSect) != 0 {
		pd.Space.RevokeObject(SelDataSect)
	}
	region := capspace.NewObject(capspace.ObjMemRegion, "datasect/"+pd.Name_,
		regionWindow{Base: pa, Size: size})
	pd.Space.Insert(SelDataSect, region, capspace.RightsAll)
	pd.DataSectionPA, pd.DataSectionSize = pa, size
	return abi.StatusOK
}

func (k *Kernel) hcHwTaskRequest(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	return k.submitHwRequest(c, pd, abi.ReqAcquire, args)
}

func (k *Kernel) hcHwTaskRelease(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	return k.submitHwRequest(c, pd, abi.ReqRelease, args)
}

// submitHwRequest queues a request for the Hardware Task Manager,
// signals the request-queue object, and blocks the caller until the
// manager posts the reply — "the Hardware Task Manager service is
// created with a higher priority level than general guests, so that this
// service can preempt guests and execute immediately once it is invoked"
// (§IV-E).
func (k *Kernel) submitHwRequest(c *CoreCtx, pd *PD, kind abi.RequestKind, args [4]uint32) uint32 {
	if k.hwSvc == nil || k.Fabric == nil {
		return abi.StatusErr
	}
	if kind == abi.ReqAcquire {
		if _, err := pd.Space.Lookup(SelDataSect, capspace.ObjMemRegion, capspace.RightCall); err != capspace.OK {
			return abi.StatusInval // must register a data section first
		}
		// QoS admission (qos.go): a throttled or circuit-broken client is
		// bounced here, at the portal, before its request can cost the
		// manager service (or the PCAP) anything.
		if st := k.admitHwRequest(c, pd); st != abi.StatusOK {
			return st
		}
	}
	t0 := c.Clock.Now()
	if pd.Core == k.hwSvc.Core {
		// Same-core request: the queue lives on the manager's core, so the
		// caller may mutate it directly.
		k.nextReqID++
		req := newHwRequest(pd, kind, args)
		req.ID = k.nextReqID
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
	req := newHwRequest(pd, kind, args)
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

// newHwRequest builds pd's request from the HcHwTaskRequest/Release
// argument words (task ID, interface VA, data-section VA); the ID is
// drawn when it enters the queue.
func newHwRequest(pd *PD, kind abi.RequestKind, args [4]uint32) *hwRequest {
	return &hwRequest{
		Request: abi.Request{Kind: kind, ClientID: pd.clientSel, TaskID: uint16(args[0]), IfaceVA: args[1], DataVA: args[2]},
		pd:      pd,
	}
}

// hcHwTaskStatus lets a guest poll PCAP completion ("by polling the
// completion signal", §IV-E) or a held task's state. With the pipeline a
// reconfiguration is "in flight" through its whole journey: SD fill,
// request queue, and PCAP download.
func (k *Kernel) hcHwTaskStatus(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	c.Clock.Advance(CostDeviceAccess)
	if k.Fabric == nil {
		return abi.StatusErr
	}
	if pd.Core == k.reconfigCore() {
		if k.Reconfig.PendingFor(pd) {
			return abi.StatusReconfig
		}
		if pd.reconfigFault {
			// A reconfiguration for this client failed for good (retries
			// exhausted); clear-on-read, so the client unwinds exactly once.
			pd.reconfigFault = false
			return abi.StatusFaulted
		}
		return abi.StatusOK
	}
	// Cross-core poll: the pipeline's state advances on the manager core's
	// clock; sample it at the barrier and resume the poller with the
	// answer. The one-epoch sampling lag is the conservative lookahead the
	// engine grants every cross-core interaction.
	var status uint32 = abi.StatusOK
	k.post(c, func() {
		if k.Reconfig.PendingFor(pd) {
			status = abi.StatusReconfig
		} else if pd.reconfigFault {
			pd.reconfigFault = false
			status = abi.StatusFaulted
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
func (k *Kernel) hcPortalCall(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	sel, word := int(args[0]), args[1]
	obj, cerr := pd.Space.Lookup(sel, capspace.ObjPD, capspace.RightCall)
	if cerr != capspace.OK {
		return capStatus(cerr)
	}
	to := obj.Payload.(*PD)
	if to == pd || to.dead {
		return abi.StatusInval
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
				pd.ipcReply = abi.StatusErr
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
	k.hotSpan(c, hotIPCCall, t0, uint64(pd.ID), uint64(to.ID))
	return pd.ipcReply
}

// hcPortalRecv receives the next queued caller, returning
// sender<<24 | (word & 0xFFFFFF). args[0] is a mode bit set (abi.Recv*):
// RecvBlock waits for a caller (otherwise StatusNoMsg); RecvReply first
// replies args[1] to the previously received caller, waking it — the
// merged reply+wait of a portal server loop. A server must reply to its
// current caller before receiving the next one; receiving again with an
// un-replied caller outstanding is refused (StatusInval) rather than
// silently stranding the blocked caller.
func (k *Kernel) hcPortalRecv(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	mode, reply := args[0], args[1]
	if mode&abi.RecvReply != 0 {
		caller := pd.replyTo
		if caller == nil {
			return abi.StatusInval
		}
		pd.replyTo = nil
		caller.ipcReply = reply // caller is parked; the wake publishes it
		c.kctx.Touch(caller.kdata+0x80, true)
		k.wakeFrom(c, caller)
	} else if pd.replyTo != nil {
		return abi.StatusInval
	}
	for len(pd.ipcCallers) == 0 {
		if mode&abi.RecvBlock == 0 {
			return abi.StatusNoMsg
		}
		pd.recvBlocked = true
		pd.Env.block()
	}
	caller := pd.ipcCallers[0]
	pd.ipcCallers = slices.Delete(pd.ipcCallers, 0, 1) // keeps the backing array
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
		caller.ipcReply = abi.StatusErr
		k.wakeFrom(pd.Core, caller)
	}
	pd.ipcCallers = nil
	if caller := pd.replyTo; caller != nil {
		pd.replyTo = nil
		caller.ipcReply = abi.StatusErr
		k.wakeFrom(pd.Core, caller)
	}
}

func (k *Kernel) hcSDRead(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	return k.sdBlock(c, pd, args, false)
}

// hcSDWrite needs no explicit I/O check: a PD without CapIODirect holds
// the capability with no rights, so resolution already failed with
// Denied before the handler could run.
func (k *Kernel) hcSDWrite(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	return k.sdBlock(c, pd, args, true)
}

// sdBlock copies SD block args[0] between the simulated SD card and the
// caller's RAM at offset args[1] (supervised shared I/O, §V-A). The
// bounds check is written so that no offset can wrap it.
func (k *Kernel) sdBlock(c *CoreCtx, pd *PD, args [4]uint32, write bool) uint32 {
	block, ramOffset := args[0], args[1]
	if ramOffset > pd.RAMSize || pd.RAMSize-ramOffset < 512 {
		return abi.StatusInval
	}
	pa := pd.RAMBase + physmem.Addr(ramOffset)
	c.Clock.Advance(simclock.Cycles(512 / 4 * 2)) // DMA-ish block move
	if write {
		data, err := k.Bus.ReadBytes(pa, 512)
		if err != nil {
			return abi.StatusErr
		}
		k.sdMu.Lock()
		k.sd[block] = data
		k.sdMu.Unlock()
		return abi.StatusOK
	}
	k.sdMu.Lock()
	data, ok := k.sd[block]
	k.sdMu.Unlock()
	if !ok {
		data = make([]byte, 512)
	}
	if err := k.Bus.WriteBytes(pa, data); err != nil {
		return abi.StatusErr
	}
	return abi.StatusOK
}

// --- Hardware Task Manager portals (§IV-E, Fig. 7) -------------------
//
// Each portal first re-resolves, from the *caller's* space, the device
// capabilities its operation needs: the portals are reachable only in a
// domain they were delegated to, and the objects they act on
// (request-queue semaphore, hw-task slots, client PDs, the PCAP and the
// bitstream store) must additionally be held — the manager's powers are
// exactly the set of capabilities RegisterHwService delegated, not an
// ambient privilege bit. Then it performs the privileged effect.

// mgrNextRequest returns the ID of the oldest queued request (see
// awaitRequest).
func (k *Kernel) mgrNextRequest(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	if _, err := pd.Space.Lookup(SelMgrQueue, capspace.ObjSem, capspace.RightCall); err != capspace.OK {
		return capStatus(err)
	}
	return k.awaitRequest(c, pd)
}

// awaitRequest pops the oldest queued request, blocking (service
// suspends itself) while the queue is empty. Completing the entry probe
// here captures hypercall + wakeup + world switch, the paper's "HW
// Manager entry".
func (k *Kernel) awaitRequest(c *CoreCtx, pd *PD) uint32 {
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

// mgrComplete posts reply args[1] for request args[0], wakes the
// requester, then immediately waits for the next request (merged
// reply+suspend, §IV-E: "After processing the request, the manager
// service will remove itself from the running queue list, resuming the
// interrupted guest OS with a return status"). Returns the next request
// ID when re-invoked.
func (k *Kernel) mgrComplete(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	if _, err := pd.Space.Lookup(SelMgrQueue, capspace.ObjSem, capspace.RightCall); err != capspace.OK {
		return capStatus(err)
	}
	reqID, status := args[0], args[1]
	req, ok := k.hwByID[reqID]
	if !ok {
		return abi.StatusInval
	}
	req.reply = status
	if k.Tracer != nil {
		k.Tracer.Core(c.ID).Emit(c.Clock.Now(), trace.KindHwReqComplete, uint64(reqID), uint64(status), 0)
	}
	if k.mgrExecArmed {
		k.Probes.Add(measure.PhaseMgrExec, c.Clock.Now()-k.mgrExecFrom)
		k.mgrExecArmed = false
	}
	// A requester on another core is woken (and sees the reply) at the
	// next barrier.
	k.wakeFrom(c, req.pd)
	// Arm the "HW Manager exit" probe: from here to the world switch that
	// resumes a guest. It stays on the manager's core — it measures the
	// manager leaving the CPU (self-suspend or switch to a guest), not a
	// cross-core client's scheduling latency.
	k.mgrExitFrom = c.Clock.Now()
	k.mgrExitArmed = true
	return k.awaitRequest(c, pd)
}

// MgrRequest exposes a queued request's descriptor to the manager
// service (the kernel maps it into the service's space).
func (k *Kernel) MgrRequest(reqID uint32) (abi.Request, bool) {
	req, ok := k.hwByID[reqID]
	if !ok {
		return abi.Request{}, false
	}
	return req.Request, true
}

// mgrMapIface maps the register page of PRR args[1] into the table of
// request args[0]'s client, at the VA the client asked for if userPage
// accepts it — stage (3) of Fig. 7. The page is guest-user accessible,
// so the client programs its task directly; other guests have no
// mapping, which is the exclusivity guarantee of §IV-C.
func (k *Kernel) mgrMapIface(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	reqID, prr := args[0], int(args[1])
	if st, ok := slotCap(pd, prr); !ok {
		return st
	}
	req, ok := k.hwByID[reqID]
	if !ok || k.Fabric == nil || prr >= len(k.Fabric.PRRs) {
		return abi.StatusInval
	}
	va := req.IfaceVA
	if va == 0 {
		return abi.StatusInval
	}
	client := req.pd
	if st := userPage(client, va); st != abi.StatusOK {
		return st
	}
	// The client is parked in submitHwRequest for the whole acquire, so
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
	return abi.StatusOK
}

// mgrUnmapIface revokes client args[0]'s mapping of PRR args[1] and
// performs the consistency save of §IV-C: the register-group snapshot
// goes into the former owner's data section together with the
// "inconsistent" state flag, then the PL IRQ line is withdrawn from its
// vGIC. The client is a capability-resolved PD handle (the manager holds
// delegated client capabilities, not raw IDs).
func (k *Kernel) mgrUnmapIface(c *CoreCtx, mgr *PD, args [4]uint32) uint32 {
	client, st, ok := clientCap(mgr, int(args[0]))
	if !ok {
		return st
	}
	prr := int(args[1])
	if st, ok := slotCap(mgr, prr); !ok {
		return st
	}
	if k.Fabric == nil {
		return abi.StatusInval
	}
	va, ok := client.ifaceVA[prr]
	if !ok || va == 0 {
		return abi.StatusInval
	}
	// Charge the save, the table edit and the line withdrawal up front on
	// the manager's clock.
	c.kctx.Exec(20)
	k.chargePTEdit(c, client, va)
	c.Clock.Advance(9 * 2) // 9 word stores through the write buffer
	line := k.Fabric.PRRs[prr].IRQLine
	if line >= 0 {
		c.Clock.Advance(CostDeviceAccess)
	}
	if len(k.Cores) == 1 {
		k.reclaimIface(client, prr, va, line)
		client.Core.CPU.TLB.FlushVA(va, client.ASID)
		return abi.StatusOK
	}
	// On several cores the victim may be live on another core, so every
	// effect its core can observe mid-epoch — the register save, the unmap
	// and TLB shootdown, the vGIC withdrawal — lands at the barrier, and
	// the manager parks until the teardown has committed (its next
	// AllocateIRQ must see the released line).
	k.post(c, func() {
		k.reclaimIface(client, prr, va, line)
		client.Core.CPU.InvalidateTLBVA(va, client.ASID)
		k.wake(mgr)
	})
	mgr.Env.block()
	return abi.StatusOK
}

// reclaimIface takes PRR prr from client, whose interface page is mapped
// at va and whose interrupt line is line (negative for none): it aborts
// a run that started against a stale busy snapshot (reclaim wins), saves
// the register group into the reserved structure at the head of the
// data section (word 0 the state flag, 2 = inconsistent; words 1..8 the
// register image), unmaps the page and withdraws the line. The TLB entry
// is the caller's to drop.
func (k *Kernel) reclaimIface(client *PD, prr int, va uint32, line int) {
	k.Fabric.AbortRun(prr)
	if client.DataSectionSize >= 64 {
		regs := k.Fabric.SaveRegGroup(prr)
		base := client.DataSectionPA
		_ = k.Bus.Write32(base, abi.DataSectFlagInconsistent)
		for i, r := range regs {
			_ = k.Bus.Write32(base+physmem.Addr(4+i*4), r)
		}
	}
	client.Table.UnmapPage(va)
	delete(client.ifaceVA, prr)
	if line >= 0 {
		irq := gic.PLIRQBase + line
		client.VGIC.Unregister(irq)
		k.plirqOwner[line] = nil
		k.GIC.Disable(irq)
		k.Fabric.ReleaseIRQ(prr)
	}
}

// mgrHwMMULoad points PRR args[1]'s DMA window at client args[0]'s data
// section — stage (4) of Fig. 7. The window is read from the client's
// own memory-region object (registered by HcRegionCreate), so the
// manager can only target a section the client itself declared.
func (k *Kernel) mgrHwMMULoad(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	client, st, ok := clientCap(pd, int(args[0]))
	if !ok {
		return st
	}
	prr := int(args[1])
	if st, ok := slotCap(pd, prr); !ok {
		return st
	}
	if k.Fabric == nil {
		return abi.StatusInval
	}
	obj, err := client.Space.Lookup(SelDataSect, capspace.ObjMemRegion, capspace.RightCall)
	if err != capspace.OK {
		return abi.StatusInval // client registered no (live) data section
	}
	w := obj.Payload.(regionWindow)
	k.Fabric.HwMMU.Load(prr, pl.Window{Base: w.Base, Size: w.Size, Valid: true})
	c.Clock.Advance(2 * CostDeviceAccess)
	// Run/completion events of this region now ride the owner's core clock.
	k.Fabric.BindClock(prr, client.Core.Clock)
	// Reset the consistency flag for the new owner.
	_ = k.Bus.Write32(w.Base, abi.DataSectFlagOwned)
	return abi.StatusOK
}

// mgrPCAPStart launches, for request args[0], a download of the args[2]
// bytes at offset args[1] of the bitstream store into PRR args[3] —
// stage (5) of Fig. 7 — through the reconfiguration pipeline. The store
// is a region whose capability the manager holds (§IV-B: the store is
// mapped exclusively into the manager's space): a cached image goes
// straight to the PCAP leg, a cold one is staged from the SD card first,
// and a busy PCAP queues the request by the client's priority instead of
// bouncing it back as Busy. The completion IRQ is routed to the
// requesting client when its transfer actually starts ("always connected
// to the VM which launches the current transfer", §IV-D).
func (k *Kernel) mgrPCAPStart(c *CoreCtx, mgr *PD, args [4]uint32) uint32 {
	if _, err := mgr.Space.Lookup(SelMgrPCAP, capspace.ObjPortal, capspace.RightCall); err != capspace.OK {
		return capStatus(err)
	}
	storeObj, err := mgr.Space.Lookup(SelMgrStore, capspace.ObjMemRegion, capspace.RightCall)
	if err != capspace.OK {
		return capStatus(err)
	}
	reqID, srcOff, length, prr := args[0], args[1], args[2], int(args[3])
	if st, ok := slotCap(mgr, prr); !ok {
		return st
	}
	store := storeObj.Payload.(regionWindow)
	req, ok := k.hwByID[reqID]
	if !ok || k.Fabric == nil {
		return abi.StatusInval
	}
	// Overflow-safe store-bounds check against the region capability:
	// srcOff+length could wrap uint32.
	if srcOff > store.Size || length > store.Size-srcOff {
		return abi.StatusInval
	}
	pd := req.pd
	// Charge the client's breaker for the launch (weight 1; a failure
	// below adds qosFaultWeight). The client is parked in submitHwRequest
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
		// The completion line stays pinned to the manager's core (transfer
		// events ride its clock; onIRQ forwards the injection cross-core);
		// the owner's vGIC registers it when its transfer starts.
		OnStart: func(*reconfig.Request) {
			k.onCore(k.reconfigCore(), pd.Core, func(pd *PD) {
				pd.VGIC.Register(gic.PCAPIRQ)
				pd.VGIC.Enable(gic.PCAPIRQ)
			}, pd)
		},
		OnDone: func(r *reconfig.Request, ok bool) {
			if ok {
				k.pcapDone = append(k.pcapDone, pcapOwner{pd: pd, flow: r.Flow})
				return
			}
			// The download failed for good (retries exhausted): no
			// completion IRQ ever fires. Latch the fault for the client's
			// next HcHwTaskStatus poll and charge its breaker heavily.
			mc := k.reconfigCore()
			k.onCore(mc, pd.Core, func(pd *PD) {
				pd.reconfigFault = true
				now := mc.Clock.Now()
				if pd.breaker.Charge(now, qosFaultWeight) && k.Tracer != nil {
					k.Tracer.Core(mc.ID).Emit(now, trace.KindBreakerTrip,
						r.Flow, uint64(pd.ID), pd.breaker.Trips)
				}
			}, pd)
		},
	})
	c.Clock.Advance(2 * CostDeviceAccess) // portal bookkeeping
	return abi.StatusOK
}

// mgrAllocIRQ allocates a PL interrupt line for PRR args[1] and registers
// it, enabled, in the vGIC of request args[0]'s client (§IV-D).
func (k *Kernel) mgrAllocIRQ(c *CoreCtx, pd *PD, args [4]uint32) uint32 {
	reqID, prr := args[0], int(args[1])
	if st, ok := slotCap(pd, prr); !ok {
		return st
	}
	req, ok := k.hwByID[reqID]
	if !ok || k.Fabric == nil {
		return abi.StatusInval
	}
	target := req.pd
	line := k.Fabric.PRRs[prr].IRQLine
	fresh := line < 0 // else the region is reused with its line
	if fresh {
		irq, err := k.Fabric.AllocateIRQ(prr)
		if err != nil {
			return abi.StatusErr
		}
		k.GIC.SetPriority(irq, 0x60)
		line = irq - gic.PLIRQBase
	}
	// Re-point line ownership into the new owner's vGIC. On a multi-core
	// machine this lands at the barrier: SetTarget migrates GIC pending
	// state between core banks and the previous owner may be live on
	// another core, so mid-epoch application would race.
	irq := gic.PLIRQBase + line
	k.serialize(c, func() {
		k.plirqOwner[line] = target
		k.GIC.SetTarget(irq, target.Core.ID)
		target.VGIC.Register(irq)
		target.VGIC.Enable(irq)
		if target == target.Core.Current {
			k.GIC.Enable(irq)
		}
	})
	if fresh {
		c.Clock.Advance(2 * CostDeviceAccess)
	}
	return uint32(irq)
}
