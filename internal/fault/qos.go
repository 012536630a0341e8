// QoS guard primitives for the Hardware Task Manager portal (ROADMAP
// item 3): a token bucket for per-client admission and a circuit breaker
// for clients thrashing reconfiguration. Both advance exclusively on
// simulated cycles handed in by the caller — no host time — and use
// integer arithmetic only, so replay is exact.
//
// They live here rather than in the kernel because the admission policy
// is shared vocabulary between the kernel (which enforces it on the
// portal) and the manager stack above it; internal/nova imports this
// package, never the reverse.
package fault

import "repro/internal/simclock"

// TokenBucket is a classic integer token bucket: Capacity tokens, one
// refilled every RefillEvery cycles. The zero value (Capacity 0) is a
// disabled bucket that admits everything. Not internally synchronized:
// mutate only from the goroutine that owns the client (its core).
type TokenBucket struct {
	Capacity    uint32
	RefillEvery simclock.Cycles

	tokens uint32
	last   simclock.Cycles
	primed bool

	// Denials counts admissions refused for an empty bucket.
	Denials uint64
}

// refill credits the tokens earned since the last observation.
func (b *TokenBucket) refill(now simclock.Cycles) {
	if !b.primed {
		b.tokens = b.Capacity
		b.last = now
		b.primed = true
		return
	}
	if b.RefillEvery <= 0 || now <= b.last {
		return
	}
	earned := uint64((now - b.last) / b.RefillEvery)
	b.last += simclock.Cycles(earned) * b.RefillEvery
	if earned >= uint64(b.Capacity) || b.tokens+uint32(earned) >= b.Capacity {
		b.tokens = b.Capacity
	} else {
		b.tokens += uint32(earned)
	}
}

// Take admits one request at simulated time now, spending a token;
// false means the bucket is empty (throttle the caller).
func (b *TokenBucket) Take(now simclock.Cycles) bool {
	if b == nil || b.Capacity == 0 {
		return true
	}
	b.refill(now)
	if b.tokens == 0 {
		b.Denials++
		return false
	}
	b.tokens--
	return true
}

// Breaker is a leaky-counter circuit breaker: Charge adds weight to a
// score that leaks one point every DecayEvery cycles; when the score
// crosses TripAt the breaker opens for Cooldown cycles, during which
// Open reports true and admission should answer StatusRetry. The zero
// value (TripAt 0) never trips. Not internally synchronized: in the
// kernel the charge side runs on the manager core and the read side on
// the client core, serialized by the epoch-barrier commit discipline.
type Breaker struct {
	TripAt     uint32
	DecayEvery simclock.Cycles
	Cooldown   simclock.Cycles

	score     uint32
	last      simclock.Cycles
	openUntil simclock.Cycles

	// Trips counts open transitions; Rejections counts admissions
	// refused while open.
	Trips      uint64
	Rejections uint64
}

// decay leaks the score at now.
func (b *Breaker) decay(now simclock.Cycles) {
	if b.DecayEvery <= 0 || now <= b.last {
		if now > b.last {
			b.last = now
		}
		return
	}
	leaked := uint64((now - b.last) / b.DecayEvery)
	b.last += simclock.Cycles(leaked) * b.DecayEvery
	if leaked >= uint64(b.score) {
		b.score = 0
	} else {
		b.score -= uint32(leaked)
	}
}

// Charge adds weight at now (a reconfiguration launched, or — heavier —
// faulted). Returns true when this charge tripped the breaker open.
func (b *Breaker) Charge(now simclock.Cycles, weight uint32) bool {
	if b == nil || b.TripAt == 0 {
		return false
	}
	b.decay(now)
	b.score += weight
	if b.score >= b.TripAt && now >= b.openUntil {
		b.openUntil = now + b.Cooldown
		b.score = 0
		b.Trips++
		return true
	}
	return false
}

// Open reports whether the breaker is open (cooling down) at now. It
// counts the rejection so the caller can surface StatusRetry and the
// checksums can prove the guard fired.
func (b *Breaker) Open(now simclock.Cycles) bool {
	if b == nil || b.TripAt == 0 {
		return false
	}
	if now < b.openUntil {
		b.Rejections++
		return true
	}
	return false
}
