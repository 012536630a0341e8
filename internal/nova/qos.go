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
//     qosFaultWeight-fold); past TripAt the breaker opens for Cooldown
//     cycles and the portal answers StatusRetry.
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
	"repro/internal/fault"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Breaker policy: the score leaks one point per qosDecayEvery cycles
// (1 ms), and a failed reconfiguration charges qosFaultWeight points
// against 1 for a launch.
const (
	qosDecayEvery  = 1000 * simclock.CyclesPerMicrosecond
	qosFaultWeight = 4
)

// QoSConfig parameterizes the manager-portal admission guards. The zero
// value disables both (Enabled reports false).
type QoSConfig struct {
	// BucketCapacity is each client's token-bucket depth; 0 disables
	// rate admission.
	BucketCapacity uint32
	// RefillEvery is the cycles between single-token refills (default
	// 1 ms when rate admission is on).
	RefillEvery simclock.Cycles

	// TripAt is the breaker score that opens a client's circuit; 0
	// disables the breaker.
	TripAt uint32
	// Cooldown is how long an open breaker rejects before it re-closes
	// (default 10 ms).
	Cooldown simclock.Cycles
}

// Enabled reports whether any guard is configured.
func (q QoSConfig) Enabled() bool { return q.BucketCapacity != 0 || q.TripAt != 0 }

// withDefaults fills the knobs left zero.
func (q QoSConfig) withDefaults() QoSConfig {
	if q.RefillEvery == 0 {
		q.RefillEvery = simclock.FromMillis(1)
	}
	if q.Cooldown == 0 {
		q.Cooldown = simclock.FromMillis(10)
	}
	return q
}

// EnableQoS arms the manager-portal admission guards with cfg and
// initializes the per-client guard state of every existing PD; domains
// created later are armed at creation. Call before Run.
func (k *Kernel) EnableQoS(cfg QoSConfig) {
	if !cfg.Enabled() {
		return
	}
	k.qos = cfg.withDefaults()
	k.qosOn = true
	for _, pd := range k.PDs {
		k.initQoS(pd)
	}
}

// initQoS arms pd's guard state from the active config.
func (k *Kernel) initQoS(pd *PD) {
	pd.bucket = fault.TokenBucket{Capacity: k.qos.BucketCapacity, RefillEvery: k.qos.RefillEvery}
	pd.breaker = fault.Breaker{TripAt: k.qos.TripAt, DecayEvery: qosDecayEvery, Cooldown: k.qos.Cooldown}
}

// admitHwRequest runs the portal guards for an acquire from pd on its
// home core c. StatusOK admits; StatusThrottled / StatusRetry bounce the
// request before it touches the manager queue.
func (k *Kernel) admitHwRequest(c *CoreCtx, pd *PD) uint32 {
	if !k.qosOn || pd == k.hwSvc || pd.Priority >= PrioService {
		return StatusOK
	}
	now := c.Clock.Now()
	if pd.breaker.Open(now) {
		return StatusRetry
	}
	if !pd.bucket.Take(now) {
		if k.Tracer != nil {
			k.Tracer.Core(c.ID).Emit(now, trace.KindQoSThrottle,
				0, uint64(pd.ID), pd.bucket.Denials)
		}
		return StatusThrottled
	}
	return StatusOK
}

// QoSCounters returns pd's guard ledger — bucket denials, breaker trips
// and open-circuit rejections — for scenario digests.
func (k *Kernel) QoSCounters(pd *PD) (denials, trips, rejections uint64) {
	return pd.bucket.Denials, pd.breaker.Trips, pd.breaker.Rejections
}

// PRRQuarantined reports whether the reconfiguration pipeline has pulled
// PRR prr from the placement pool (repeated config faults). The manager
// service consults it during PRR selection; it runs on the pipeline's
// core, so the read is race-free by the ownership discipline.
func (k *Kernel) PRRQuarantined(prr int) bool {
	if k.Reconfig == nil {
		return false
	}
	return k.Reconfig.Quarantined(prr)
}
