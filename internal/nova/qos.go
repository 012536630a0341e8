package nova

// QoS guard on the Hardware Task Manager portal (ROADMAP item 3): the
// manager service is shared by every VM, so without admission control a
// greedy guest hammering HcHwTaskRequest steals manager cycles — and,
// worse, PCAP bandwidth — from its critical neighbours. The kernel
// enforces two per-client guards at the portal itself, before a request
// ever reaches the service PD:
//
//   - a token bucket paces each client's acquire rate; an empty bucket
//     answers StatusThrottled and the request never enters the queue;
//   - a circuit breaker scores each client's reconfiguration pressure
//     (every launched download charges it, a *failed* one charges it
//     qosFaultWeight-fold); at qosTripAt the breaker opens for
//     qosCooldown and the portal answers StatusRetry.
//
// Clients at or above PrioService bypass both guards — the §III-D
// priority model already ranks them above general guests, and the QoS
// layer must never add jitter to the critical path it protects.
//
// All guard state advances on simulated cycles only, touched either by
// the client's own core goroutine (admission) or inside barrier commits
// (failure charges), so parallel runs replay the sequential decision
// sequence exactly.

import (
	"repro/internal/abi"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Guard policy: each client's bucket holds qosBucket tokens and regains
// one every qosRefillEvery (2 ms). Its breaker's score leaks one point
// every qosDecayEvery (1 ms); a launch charges 1 and a failed
// reconfiguration qosFaultWeight, and a score of qosTripAt opens the
// breaker for qosCooldown (8 ms).
const (
	qosBucket      = 3
	qosRefillEvery = 2000 * simclock.CyclesPerMicrosecond
	qosDecayEvery  = 1000 * simclock.CyclesPerMicrosecond
	qosFaultWeight = 4
	qosTripAt      = 10
	qosCooldown    = 8000 * simclock.CyclesPerMicrosecond
)

// EnableQoS arms the manager-portal admission guards for every PD, those
// created or forked later included. Call before Run.
func (k *Kernel) EnableQoS() { k.qosOn = true }

// tokenBucket paces one client's acquires. It is full at its first
// take; the zero value is a fresh bucket. Not internally synchronized:
// only the client's own core takes from it.
type tokenBucket struct {
	last    simclock.Cycles
	denials uint64 // admissions refused for an empty bucket
	tokens  uint32
	primed  bool
}

// take admits one request at now, spending a token; false means the
// bucket is empty (throttle the caller).
func (b *tokenBucket) take(now simclock.Cycles) bool {
	if !b.primed {
		b.tokens, b.last, b.primed = qosBucket, now, true
	} else if now > b.last {
		earned := (now - b.last) / qosRefillEvery
		b.last += earned * qosRefillEvery
		b.tokens = uint32(min(uint64(b.tokens)+uint64(earned), qosBucket))
	}
	if b.tokens == 0 {
		b.denials++
		return false
	}
	b.tokens--
	return true
}

// breaker is a leaky-counter circuit breaker over one client's
// reconfiguration pressure; the zero value is closed with score 0. Not
// internally synchronized: the manager core charges it while the client
// is parked in its acquire, and the client's core reads it at admission,
// serialized by the epoch-barrier commit discipline.
type breaker struct {
	last       simclock.Cycles
	openUntil  simclock.Cycles
	trips      uint64 // open transitions
	rejections uint64 // admissions refused while open
	score      uint32
}

// charge adds weight at now and reports whether it tripped the breaker
// open.
func (b *breaker) charge(now simclock.Cycles, weight uint32) bool {
	if now > b.last {
		leaked := (now - b.last) / qosDecayEvery
		b.last += leaked * qosDecayEvery
		b.score -= uint32(min(uint64(b.score), uint64(leaked)))
	}
	b.score += weight
	if b.score >= qosTripAt && now >= b.openUntil {
		b.openUntil = now + qosCooldown
		b.score = 0
		b.trips++
		return true
	}
	return false
}

// open reports whether the breaker is open (cooling down) at now,
// counting the rejection so the checksums can prove the guard fired.
func (b *breaker) open(now simclock.Cycles) bool {
	if now < b.openUntil {
		b.rejections++
		return true
	}
	return false
}

// chargeBreaker charges pd's breaker weight on core c when the guards
// are on, tracing a trip under flow.
func (k *Kernel) chargeBreaker(c *CoreCtx, pd *PD, flow uint64, weight uint32) {
	if !k.qosOn {
		return
	}
	now := c.Clock.Now()
	if pd.breaker.charge(now, weight) && k.Tracer != nil {
		k.Tracer.Core(c.ID).Emit(now, trace.KindBreakerTrip, flow, uint64(pd.ID), pd.breaker.trips)
	}
}

// admitHwRequest runs the portal guards for an acquire from pd on its
// home core c. StatusOK admits; StatusThrottled / StatusRetry bounce the
// request before it touches the manager queue.
func (k *Kernel) admitHwRequest(c *CoreCtx, pd *PD) uint32 {
	if !k.qosOn || pd == k.hwSvc || pd.Priority >= PrioService {
		return abi.StatusOK
	}
	now := c.Clock.Now()
	if pd.breaker.open(now) {
		return abi.StatusRetry
	}
	if !pd.bucket.take(now) {
		if k.Tracer != nil {
			k.Tracer.Core(c.ID).Emit(now, trace.KindQoSThrottle,
				0, uint64(pd.ID), pd.bucket.denials)
		}
		return abi.StatusThrottled
	}
	return abi.StatusOK
}

// QoSCounters returns pd's guard ledger — bucket denials, breaker trips
// and open-circuit rejections — for scenario digests.
func (k *Kernel) QoSCounters(pd *PD) (denials, trips, rejections uint64) {
	return pd.bucket.denials, pd.breaker.trips, pd.breaker.rejections
}

// PRRQuarantined reports whether the reconfiguration pipeline has pulled
// PRR prr from the placement pool (repeated config faults). The manager
// service consults it during PRR selection; it runs on the pipeline's
// core, so the read is race-free by the ownership discipline.
func (k *Kernel) PRRQuarantined(prr int) bool { return k.Reconfig.Quarantined(prr) }
