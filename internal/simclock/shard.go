package simclock

import "sort"

// This file holds the committer that carries cross-shard effects to the
// epoch barrier. A shard (a simulated core with its own *Clock cursor)
// never mutates another shard's state directly; it posts a closure
// stamped with its own local cycle instant, and the committer fires every
// posted closure at the next epoch barrier in (cycle, shard, sequence)
// order. The merge order is a pure function of simulated time, so the
// observable schedule is independent of how the shards' host goroutines
// interleave — the property the epoch-barrier run loop is built on.

// commitEntry is one deferred cross-shard effect.
type commitEntry struct {
	when  Cycles
	shard int
	seq   uint64
	fn    func()
}

// commitBuf is one shard's append-only log for the current epoch. The pad
// keeps logs on separate cache lines so concurrent appends don't false-share.
type commitBuf struct {
	entries []commitEntry
	seq     uint64
	_       [40]byte
}

// Committer collects cross-shard effects during an epoch and replays them
// at the barrier. Post is safe to call concurrently from different shards
// (each shard owns its buffer); Commit must only run while every shard is
// parked at the barrier.
type Committer struct {
	bufs    []commitBuf
	merged  []commitEntry // reused scratch for the barrier merge
	Commits uint64        // closures fired (observability; not checksummed)
}

// NewCommitter sizes the committer for n shards.
func NewCommitter(n int) *Committer {
	return &Committer{bufs: make([]commitBuf, n)}
}

// Post appends a deferred effect from shard at local instant when. The
// per-shard sequence number keeps same-instant posts from one shard in
// program order.
func (cm *Committer) Post(shard int, when Cycles, fn func()) {
	b := &cm.bufs[shard]
	b.entries = append(b.entries, commitEntry{when: when, shard: shard, seq: b.seq, fn: fn})
	b.seq++
}

// Pending reports whether any shard posted effects this epoch.
func (cm *Committer) Pending() bool {
	for i := range cm.bufs {
		if len(cm.bufs[i].entries) > 0 {
			return true
		}
	}
	return false
}

// Commit merges every shard's log in (when, shard, seq) order and fires
// the closures. A closure may itself Post follow-up effects; those land in
// the next epoch's logs unless the caller drains again. Returns the number
// of closures fired.
func (cm *Committer) Commit() int {
	cm.merged = cm.merged[:0]
	for i := range cm.bufs {
		cm.merged = append(cm.merged, cm.bufs[i].entries...)
		cm.bufs[i].entries = cm.bufs[i].entries[:0]
	}
	if len(cm.merged) == 0 {
		return 0
	}
	sort.Slice(cm.merged, func(i, j int) bool {
		a, b := cm.merged[i], cm.merged[j]
		if a.when != b.when {
			return a.when < b.when
		}
		if a.shard != b.shard {
			return a.shard < b.shard
		}
		return a.seq < b.seq
	})
	for i := range cm.merged {
		cm.merged[i].fn()
	}
	n := len(cm.merged)
	cm.Commits += uint64(n)
	return n
}
