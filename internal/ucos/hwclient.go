package ucos

import (
	"repro/internal/abi"
	"repro/internal/pl"
)

// HwTask is the guest-side handle for an acquired hardware task — the
// "functionalities supporting hardware task access … added as application
// program interfaces" of §V-A. It wraps the granted register interface,
// the completion interrupt, and the consistency protocol of §IV-C.
type HwTask struct {
	Grant   HwGrant
	TaskID  uint16
	doneSem *Sem
}

// AcquireHw requests taskID from the Hardware Task Manager. On a
// Reconfig grant it waits for the PCAP download using the polling method
// of §IV-E (delaying a tick between polls so other tasks run). Returns
// nil and the status byte on Busy/Inval.
func (t *Task) AcquireHw(taskID uint16) (*HwTask, uint32) {
	g := t.OS.M.RequestHwTask(taskID)
	if g.Status != abi.StatusOK && g.Status != abi.StatusReconfig {
		return nil, g.Status
	}
	h := &HwTask{Grant: g, TaskID: taskID, doneSem: t.OS.SemCreate(0)}
	if g.IRQ != 0 {
		sem := h.doneSem
		t.OS.RegisterIRQ(g.IRQ, func(int) { sem.Post() })
	}
	if g.Status == abi.StatusReconfig {
		for {
			st := t.OS.M.ReconfigStatus()
			if st == abi.StatusFaulted {
				// The hypervisor exhausted its retry budget on this
				// download: unwind the half-built grant so the caller can
				// back off and re-request a (possibly different) region.
				if g.IRQ != 0 {
					t.OS.M.DisableIRQ(g.IRQ)
					delete(t.OS.irqTable, g.IRQ)
				}
				t.OS.M.ReleaseHwTask(taskID)
				return nil, abi.StatusFaulted
			}
			if st != abi.StatusReconfig {
				break
			}
			t.Exec(60) // poll loop body
			t.Delay(1)
		}
	}
	return h, g.Status
}

// ReleaseHw returns the task to the manager.
func (t *Task) ReleaseHw(h *HwTask) {
	t.OS.M.ReleaseHwTask(h.TaskID)
	if h.Grant.IRQ != 0 {
		t.OS.M.DisableIRQ(h.Grant.IRQ)
		delete(t.OS.irqTable, h.Grant.IRQ)
	}
}

// Consistent checks the state flag in the data section's reserved
// structure (§IV-C: "VM can automatically check the state flag in
// hardware task data section whenever it uses the task").
func (h *HwTask) Consistent(t *Task) bool {
	v, err := t.Ctx.Load32(h.Grant.DataVA)
	return err == nil && v == abi.DataSectFlagOwned
}

// Run programs the task's register group through the mapped interface,
// starts it with the completion IRQ enabled, and pends on the IRQ.
// srcOff/dstOff are byte offsets inside the data section; reserve the
// first 64 bytes for the consistency structure. Returns false on DMA
// error, inconsistency, or timeout.
func (h *HwTask) Run(t *Task, srcOff, dstOff, length, param uint32, timeoutTicks uint32) bool {
	if !h.Consistent(t) {
		return false
	}
	va := h.Grant.IfaceVA
	if err := t.Ctx.Store32(va+pl.RegSrc, srcOff); err != nil {
		return false
	}
	_ = t.Ctx.Store32(va+pl.RegDst, dstOff)
	_ = t.Ctx.Store32(va+pl.RegLen, length)
	_ = t.Ctx.Store32(va+pl.RegParam, param)
	_ = t.Ctx.Store32(va+pl.RegCtrl, pl.CtrlStart|pl.CtrlIRQEn)
	if !t.SemPend(h.doneSem, timeoutTicks) {
		return false
	}
	// Clear the IRQ latch and check the outcome.
	st, err := t.Ctx.Load32(va + pl.RegStatus)
	_ = t.Ctx.Store32(va+pl.RegIRQStat, 3)
	return err == nil && st == pl.StatusDone
}

// RunPolled is the no-IRQ variant: busy-polls the status register
// (for the ablation comparing §IV-E's two completion methods).
func (h *HwTask) RunPolled(t *Task, srcOff, dstOff, length, param uint32) bool {
	if !h.Consistent(t) {
		return false
	}
	va := h.Grant.IfaceVA
	_ = t.Ctx.Store32(va+pl.RegSrc, srcOff)
	_ = t.Ctx.Store32(va+pl.RegDst, dstOff)
	_ = t.Ctx.Store32(va+pl.RegLen, length)
	_ = t.Ctx.Store32(va+pl.RegParam, param)
	_ = t.Ctx.Store32(va+pl.RegCtrl, pl.CtrlStart)
	for {
		st, err := t.Ctx.Load32(va + pl.RegStatus)
		if err != nil {
			return false
		}
		if st == pl.StatusDone {
			return true
		}
		if st == pl.StatusError {
			return false
		}
		t.Exec(40)
	}
}
