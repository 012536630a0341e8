// Package trace is the simulated-time structured-event tracing layer.
// The evaluation harness (internal/measure) mirrors the paper's Table III
// and reports only phase averages; this package records *which* hypercall,
// vGIC injection or PCAP download produced an outlier, as a stream of
// timestamped events in per-core bounded ring buffers.
//
// Determinism is the design constraint everything here answers to: the
// scenario engine asserts byte-identical state checksums across runs and
// across the sequential/parallel engines, and tracing must not perturb
// them. Consequently:
//
//   - events are stamped with the *simulated* clock only — no host time
//     anywhere;
//   - each simulated core owns one ring, written exclusively by the
//     goroutine that owns that core (or by the single-threaded epoch
//     commit phase), so parallel runs need no locks and host interleaving
//     cannot reorder a ring;
//   - rings are fixed-capacity and drop-oldest, with a drop counter, so a
//     long run costs bounded memory and recording never allocates after
//     ring creation;
//   - recording never advances a clock, touches a cache model, or mutates
//     any state a scenario checksum covers — a traced run and an untraced
//     run of the same spec produce the byte-identical checksum.
//
// Events carry an optional flow ID that threads a causal chain across
// cores and subsystems — one hardware-task request is a single chain from
// the guest hypercall through the manager queue, the reconfiguration
// pipeline and the PCAP download to the completion IRQ. The Chrome
// exporter (chrome.go) turns flows into trace_event flow arrows.
package trace

import "repro/internal/simclock"

// Kind enumerates the traced event types.
type Kind uint8

// Event kinds. The names (see String) are the Chrome-trace slice names
// and part of the documented schema; extend at the end to keep exports
// comparable across versions.
const (
	// KindHypercall is one hypercall/portal invocation: a span from SWI
	// entry to handler return. A = selector, B = status returned.
	KindHypercall Kind = iota
	// KindVMSwitch is one full world switch: A = outgoing PD id (+1,
	// 0 = none), B = incoming PD id (+1).
	KindVMSwitch
	// KindSchedWake marks a PD becoming runnable: A = PD id, B = priority.
	KindSchedWake
	// KindSchedBlock marks a PD leaving the runqueue: A = PD id.
	KindSchedBlock
	// KindSchedRotate marks a quantum-expiry ring rotation: A = priority.
	KindSchedRotate
	// KindVGICInject is a virtual interrupt queued for delivery:
	// A = IRQ id, B = PD id.
	KindVGICInject
	// KindVGICEOI is a guest completing a vIRQ: A = IRQ id, B = PD id.
	KindVGICEOI
	// KindVGICRelatch is a re-raise latched while the line was in
	// service (the storm window): A = IRQ id, B = PD id.
	KindVGICRelatch
	// KindHwReq is the client-side view of one hardware-task request: a
	// span from the HcHwTaskRequest hypercall to the manager's reply
	// waking the caller. Flow = request id, A = task id, B = reply.
	KindHwReq
	// KindHwReqSubmit marks the request entering the manager queue
	// (on the manager's core for cross-core submissions).
	// Flow = request id, A = task id, B = client PD id.
	KindHwReqSubmit
	// KindHwReqFetch marks the manager popping the request.
	// Flow = request id.
	KindHwReqFetch
	// KindHwReqComplete marks the manager posting the reply.
	// Flow = request id, A = status.
	KindHwReqComplete
	// KindReconfigSubmit is a demand reconfiguration entering the
	// pipeline: Flow = request id, A = image key, B = outcome
	// (ReconfigWarm/ReconfigColdMiss/ReconfigCoalesced).
	KindReconfigSubmit
	// KindFillStart is an SD→cache staging read starting:
	// A = image key, B = length. Flow = first waiter (0 speculative).
	KindFillStart
	// KindFillDone is the staging read landing: A = image key.
	KindFillDone
	// KindReconfigQueued marks a ready request parking in the PCAP queue
	// behind an active transfer: Flow = request id, A = image key.
	KindReconfigQueued
	// KindPCAPStart is the PCAP download kicking: Flow = request id,
	// A = target PRR, B = length.
	KindPCAPStart
	// KindPCAPDone is the PCAP transfer completing: Flow = request id,
	// A = target PRR, B = 1 on success.
	KindPCAPDone
	// KindCompletionIRQ is the PCAP completion interrupt injected into
	// the owning client's vGIC: Flow = request id, A = IRQ id, B = PD id.
	KindCompletionIRQ
	// KindIPCCall is one portal IPC round trip (call to reply) as seen
	// by the caller: A = caller PD id, B = callee PD id.
	KindIPCCall
	// KindEpochCommit is one epoch-barrier commit phase of the parallel
	// engine: A = epoch ordinal, B = closures replayed at this barrier.
	KindEpochCommit
	// KindFaultInject is one injected fault firing: Flow = request id
	// (0 for speculative fills), A = fault class (see FaultSD* below),
	// B = image key or PRR index depending on the class.
	KindFaultInject
	// KindReconfigRetry is the pipeline rescheduling a failed leg:
	// Flow = request id, A = image key, B = attempt number.
	KindReconfigRetry
	// KindPRRQuarantine is a PRR crossing its fault threshold and leaving
	// the placement pool: A = PRR index, B = fault count.
	KindPRRQuarantine
	// KindQoSThrottle is the admission guard refusing a request:
	// A = client PD id, B = status returned (throttled/retry).
	KindQoSThrottle
	// KindBreakerTrip is a client's circuit breaker opening:
	// A = client PD id, B = charge weight that tripped it.
	KindBreakerTrip

	numKinds
)

// Fault classes (Event.A of KindFaultInject).
const (
	FaultSDError   = 0 // SD staging read failed
	FaultSDStall   = 1 // SD staging read stalled
	FaultCorrupt   = 2 // staged image poisoned
	FaultPCAPCRC   = 3 // PCAP download CRC failure
	FaultPCAPStall = 4 // PCAP transfer hang (watchdog reap)
	FaultPRR       = 5 // transient PRR config fault
)

// Reconfiguration-submit outcomes (Event.B of KindReconfigSubmit).
const (
	ReconfigColdMiss  = 0
	ReconfigWarm      = 1
	ReconfigCoalesced = 2
)

var kindNames = [numKinds]string{
	KindHypercall:      "hypercall",
	KindVMSwitch:       "vm_switch",
	KindSchedWake:      "sched_wake",
	KindSchedBlock:     "sched_block",
	KindSchedRotate:    "sched_rotate",
	KindVGICInject:     "vgic_inject",
	KindVGICEOI:        "vgic_eoi",
	KindVGICRelatch:    "vgic_relatch",
	KindHwReq:          "hwreq",
	KindHwReqSubmit:    "hwreq_submit",
	KindHwReqFetch:     "hwreq_fetch",
	KindHwReqComplete:  "hwreq_complete",
	KindReconfigSubmit: "reconfig_submit",
	KindFillStart:      "fill_start",
	KindFillDone:       "fill_done",
	KindReconfigQueued: "reconfig_queued",
	KindPCAPStart:      "pcap_start",
	KindPCAPDone:       "pcap_done",
	KindCompletionIRQ:  "completion_irq",
	KindIPCCall:        "ipc_call",
	KindEpochCommit:    "epoch_commit",
	KindFaultInject:    "fault_inject",
	KindReconfigRetry:  "reconfig_retry",
	KindPRRQuarantine:  "prr_quarantine",
	KindQoSThrottle:    "qos_throttle",
	KindBreakerTrip:    "breaker_trip",
}

// categories group kinds for the Chrome exporter's cat field.
var kindCats = [numKinds]string{
	KindHypercall:      "kernel",
	KindVMSwitch:       "sched",
	KindSchedWake:      "sched",
	KindSchedBlock:     "sched",
	KindSchedRotate:    "sched",
	KindVGICInject:     "vgic",
	KindVGICEOI:        "vgic",
	KindVGICRelatch:    "vgic",
	KindHwReq:          "hwreq",
	KindHwReqSubmit:    "hwreq",
	KindHwReqFetch:     "hwreq",
	KindHwReqComplete:  "hwreq",
	KindReconfigSubmit: "reconfig",
	KindFillStart:      "reconfig",
	KindFillDone:       "reconfig",
	KindReconfigQueued: "reconfig",
	KindPCAPStart:      "reconfig",
	KindPCAPDone:       "reconfig",
	KindCompletionIRQ:  "reconfig",
	KindIPCCall:        "ipc",
	KindEpochCommit:    "engine",
	KindFaultInject:    "fault",
	KindReconfigRetry:  "fault",
	KindPRRQuarantine:  "fault",
	KindQoSThrottle:    "qos",
	KindBreakerTrip:    "qos",
}

// String returns the schema name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Cat returns the kind's category (the Chrome-trace cat field).
func (k Kind) Cat() string {
	if int(k) < len(kindCats) {
		return kindCats[k]
	}
	return "other"
}

// Event is one traced occurrence. When/Dur are simulated cycles; Dur is
// zero for point events. Flow threads causally related events into one
// chain (0 = no flow). A and B are kind-specific payload words.
type Event struct {
	When simclock.Cycles
	Dur  simclock.Cycles
	Flow uint64
	A, B uint64
	Kind Kind
}

// DefaultCapacity is the per-core ring capacity EnableTrace-style
// constructors use when the caller does not choose one. Sized so the
// flight recorder retains the full causal chain of recent hardware-task
// requests even on a core flooded with hypercall and scheduler events.
const DefaultCapacity = 16384

// Ring is one core's bounded event buffer: fixed capacity, drop-oldest.
// All methods are nil-receiver-safe so instrumentation sites can record
// unconditionally; a nil ring swallows the event. A ring must only be
// written by the goroutine that owns its core (or by the single-threaded
// epoch commit phase) — exactly the discipline the rest of the simulated
// state already obeys.
type Ring struct {
	buf   []Event
	start int // index of the oldest event
	n     int // live events
	drops uint64
	seq   uint64 // events ever emitted
}

// NewRing builds a ring holding up to capacity events (<=0 selects
// DefaultCapacity).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Emit records a point event.
func (r *Ring) Emit(when simclock.Cycles, k Kind, flow, a, b uint64) {
	r.EmitSpan(when, 0, k, flow, a, b)
}

// EmitSpan records an event with a duration (a span from when to
// when+dur).
func (r *Ring) EmitSpan(when, dur simclock.Cycles, k Kind, flow, a, b uint64) {
	if r == nil {
		return
	}
	r.seq++
	i := r.start + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = Event{When: when, Dur: dur, Kind: k, Flow: flow, A: a, B: b}
	if r.n < len(r.buf) {
		r.n++
	} else {
		// Overwrote the oldest event.
		r.start++
		if r.start == len(r.buf) {
			r.start = 0
		}
		r.drops++
	}
}

// Len returns the number of retained events.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Drops returns how many events were overwritten by newer ones.
func (r *Ring) Drops() uint64 {
	if r == nil {
		return 0
	}
	return r.drops
}

// Total returns how many events were ever emitted (retained + dropped).
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.seq
}

// Events returns the retained events oldest-first (a copy).
func (r *Ring) Events() []Event {
	if r == nil || r.n == 0 {
		return nil
	}
	out := make([]Event, r.n)
	tail := copy(out, r.buf[r.start:min(r.start+r.n, len(r.buf))])
	copy(out[tail:], r.buf[:r.n-tail])
	return out
}

// Last returns up to n of the most recent events, oldest-first.
func (r *Ring) Last(n int) []Event {
	ev := r.Events()
	if len(ev) > n {
		ev = ev[len(ev)-n:]
	}
	return ev
}

// Tracer is the whole machine's trace state: one ring per simulated core
// plus the name resolvers the exporters use. A nil Tracer is a valid
// "tracing off" value; Core returns a nil ring.
type Tracer struct {
	rings []*Ring

	// SelectorName resolves a hypercall selector to its portal name and
	// PDName a protection-domain id to its label, for the exporters.
	// Either may be nil (numeric fallback).
	SelectorName func(sel int) string
	PDName       func(id int) string
}

// New builds a tracer for cores simulated cores with the given per-core
// ring capacity (<=0 selects DefaultCapacity).
func New(cores, capacity int) *Tracer {
	t := &Tracer{}
	for i := 0; i < cores; i++ {
		t.rings = append(t.rings, NewRing(capacity))
	}
	return t
}

// Core returns core i's ring (nil on a nil tracer, so call sites can
// record unconditionally).
func (t *Tracer) Core(i int) *Ring {
	if t == nil || i < 0 || i >= len(t.rings) {
		return nil
	}
	return t.rings[i]
}

// Cores returns the number of per-core rings.
func (t *Tracer) Cores() int {
	if t == nil {
		return 0
	}
	return len(t.rings)
}

// Events returns the total retained events across all rings.
func (t *Tracer) Events() uint64 {
	var n uint64
	if t == nil {
		return 0
	}
	for _, r := range t.rings {
		n += uint64(r.Len())
	}
	return n
}

// Total returns the events ever emitted across all rings.
func (t *Tracer) Total() uint64 {
	var n uint64
	if t == nil {
		return 0
	}
	for _, r := range t.rings {
		n += r.Total()
	}
	return n
}

// Drops returns the total drop count across all rings.
func (t *Tracer) Drops() uint64 {
	var n uint64
	if t == nil {
		return 0
	}
	for _, r := range t.rings {
		n += r.Drops()
	}
	return n
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
