// Package abi is the single source of truth for the guest<->kernel
// binary interface: hypercall selector numbers, status codes, the
// hardware-task request descriptor and reply packing, and the
// data-section consistency flags. Both sides of the interface import it
// and spell every value abi.* — the kernel (internal/nova), the guest-side
// stubs (internal/ucos) and the Hardware Task Manager (internal/hwtask) —
// so the two halves of the ABI can never drift apart.
//
// Since the capability-space refactor a hypercall number is a *selector*
// into the calling protection domain's capability table: the kernel's
// dispatcher resolves it to a typed kernel object and invokes that
// object's portal handler. The numbers below are therefore the
// *conventional* selector layout the kernel installs at PD creation —
// every guest gets selectors 0..24 (the paper's 25 guest hypercalls,
// §V-B); the HcMgr* portal capabilities above them are delegated only to
// the Hardware Task Manager's domain, and IPC destinations are PD-object
// capabilities delegated at selectors of the grantor's choosing.
package abi

// Guest hypercall selectors. The paper: "A total number of 25 hypercalls
// are provided to paravirtualized operating systems" (§V-B).
const (
	HcNull          = 0  // no-op; measures bare hypercall latency
	HcPrint         = 1  // supervised console output
	HcVMID          = 2  // returns the caller's VM identifier (self PD object)
	HcYield         = 3  // give up the remainder of the time slice
	HcTimerSet      = 4  // program the virtual timer (periodic, cycles)
	HcTimerCancel   = 5  // stop the virtual timer
	HcIRQEnable     = 6  // enable a line in the caller's vGIC
	HcIRQDisable    = 7  // disable a line in the caller's vGIC
	HcIRQEOI        = 8  // acknowledge completion of an injected vIRQ
	HcCacheFlush    = 9  // clean+invalidate D-caches (guest cache op, §III-A)
	HcTLBFlush      = 10 // flush the caller's ASID from the TLB
	HcMapPage       = 11 // insert a mapping inside the caller's space
	HcUnmapPage     = 12 // remove a mapping inside the caller's space
	HcRegionCreate  = 13 // declare a hardware-task data section (memory-region object)
	HcDACRSwitch    = 14 // guest kernel<->guest user transition (Table II)
	HcHwTaskRequest = 15 // request a hardware task (§IV-E, three arguments)
	HcHwTaskRelease = 16 // release a held hardware task
	HcHwTaskStatus  = 17 // poll task/PCAP completion state
	HcPortalCall    = 18 // portal IPC: synchronous call through a PD capability
	HcPortalRecv    = 19 // portal IPC: receive (and optionally reply first)
	HcUARTWrite     = 20 // supervised UART access (§V-A shared I/O)
	HcUARTRead      = 21
	HcSDRead        = 22 // supervised SD block read
	HcSDWrite       = 23 // supervised SD block write (I/O-right gated)
	HcSuspend       = 24 // remove self from the run queue (services)

	// NumHypercalls is the guest-visible hypercall count (paper §V-B: 25).
	NumHypercalls = 25

	// Capability portals for the Hardware Task Manager service. The
	// selectors exist only in a domain they were delegated to; any other
	// PD invoking them resolves an empty slot (StatusBadSel).
	HcMgrNextRequest = 25 // fetch the next queued hardware-task request
	HcMgrMapIface    = 26 // map a PRR register page into a client VM
	HcMgrUnmapIface  = 27 // unmap it from the previous client
	HcMgrHwMMULoad   = 28 // load a client's data-section window
	HcMgrPCAPStart   = 29 // launch a PCAP reconfiguration
	HcMgrComplete    = 30 // post the reply for a finished request
	HcMgrAllocIRQ    = 31 // allocate a PL IRQ line and register it in the client's vGIC

	// NumPortalSelectors bounds the conventional service-portal selector
	// range (guest calls + manager portals). Object capabilities
	// (PD/semaphore/region/slot) are installed above it.
	NumPortalSelectors = 32
)

// RequestKind distinguishes a hardware-task acquire (HcHwTaskRequest)
// from a release (HcHwTaskRelease).
type RequestKind int

// Request kinds.
const (
	ReqAcquire RequestKind = iota
	ReqRelease
)

// Request is one hardware-task request as the Hardware Task Manager sees
// it: the kernel queues it on HcHwTaskRequest/HcHwTaskRelease, hands its
// ID out through HcMgrNextRequest, and maps the descriptor into the
// service's space (§IV-E: "Three arguments are passed via this
// hypercall: the target hardware task ID number, the virtual address of
// the task interface, and the virtual address of the hardware task data
// section").
type Request struct {
	ID       uint32
	Kind     RequestKind
	ClientID int // the requesting PD's client handle: a selector in the manager's space
	TaskID   uint16
	IfaceVA  uint32
	DataVA   uint32
}

// HcPortalRecv mode bits (args[0]).
const (
	// RecvBlock blocks until a caller arrives (otherwise StatusNoMsg).
	RecvBlock = 1 << 0
	// RecvReply first replies args[1] to the last received caller, waking
	// it, then receives — the merged reply+wait of a portal server loop.
	RecvReply = 1 << 1
)

// Hypercall status codes returned in R0. Every failure mode has a
// distinct, documented code:
//
//	StatusOK        success
//	StatusReconfig  request accepted, PCAP transfer in flight (§IV-E)
//	StatusBusy      no idle PRR can host the task right now (§IV-E)
//	StatusNoMsg     portal receive: no caller queued
//	StatusInval     arguments out of range for a valid portal
//	StatusDenied    capability held but lacks the required rights
//	StatusBadSel    selector resolves no capability in the caller's space
//	                (unknown call number, empty slot, forged selector)
//	StatusRevoked   capability's object was revoked after delegation
//	StatusBadType   capability resolves an object of the wrong type
//	StatusThrottled the caller's admission token bucket is empty; retry
//	                after backing off (QoS guard, transient)
//	StatusFaulted   the request failed in hardware — reconfiguration
//	                exhausted its retries or every compatible PRR is
//	                quarantined (fault path, not load)
//	StatusRetry     the caller's circuit breaker is open (reconfiguration
//	                thrash); back off longer than for StatusThrottled
//	StatusErr       internal failure (missing device, bus error)
//
// The codes form a dense iota block ending at NumStatusCodes (StatusErr
// sits apart as all-ones) so diagnostics and tests can enumerate them;
// a new code added without a StatusName entry fails the exhaustiveness
// test in abi_test.go.
const (
	StatusOK = iota
	StatusReconfig
	StatusBusy
	StatusNoMsg
	StatusInval
	StatusDenied
	StatusBadSel
	StatusRevoked
	StatusBadType
	StatusThrottled
	StatusFaulted
	StatusRetry

	// NumStatusCodes bounds the dense status block above (StatusErr is
	// the out-of-band all-ones code).
	NumStatusCodes

	StatusErr = ^uint32(0)
)

// statusNames maps every dense status code to its symbolic name. Keep in
// lockstep with the const block: a missing entry renders as "" and fails
// TestStatusNameExhaustive.
var statusNames = [NumStatusCodes]string{
	StatusOK:        "ok",
	StatusReconfig:  "reconfig",
	StatusBusy:      "busy",
	StatusNoMsg:     "nomsg",
	StatusInval:     "inval",
	StatusDenied:    "denied",
	StatusBadSel:    "badsel",
	StatusRevoked:   "revoked",
	StatusBadType:   "badtype",
	StatusThrottled: "throttled",
	StatusFaulted:   "faulted",
	StatusRetry:     "retry",
}

// StatusName returns the symbolic name of a status code (diagnostics).
func StatusName(s uint32) string {
	if s == StatusErr {
		return "err"
	}
	if s < NumStatusCodes && statusNames[s] != "" {
		return statusNames[s]
	}
	return "unknown"
}

// Hardware-task reply packing (HcHwTaskRequest): the low byte is the
// status; byte 1 carries the granted PRR index + 1 (0 = none); byte 2
// carries the allocated GIC IRQ id. The client needs both to program the
// task and register its handler.

// MakeReply packs status, PRR and IRQ into one reply word.
func MakeReply(status uint32, prr, irq int) uint32 {
	return status | uint32(prr+1)<<8 | uint32(irq)<<16
}

// ReplyStatus extracts the status byte of a reply.
func ReplyStatus(reply uint32) uint32 { return reply & 0xFF }

// ReplyPRR extracts the granted PRR (-1 when none).
func ReplyPRR(reply uint32) int { return int(reply>>8&0xFF) - 1 }

// ReplyIRQ extracts the allocated GIC interrupt id (0 when none).
func ReplyIRQ(reply uint32) int { return int(reply >> 16 & 0xFF) }

// Data-section reserved-structure flags (§IV-C): the first word of a
// registered hardware-task data section.
const (
	// DataSectFlagOwned: the hardware task is consistently owned.
	DataSectFlagOwned = 1
	// DataSectFlagInconsistent: the task was reclaimed by another VM; the
	// saved register image follows.
	DataSectFlagInconsistent = 2
)
