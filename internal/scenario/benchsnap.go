package scenario

import "fmt"

// SnapshotFork is one fleet-size measurement of checkpoint/fork cloning.
// All fields are simulated (deterministic) quantities: the sweep's claim
// is about simulated cost, not simulator speed.
type SnapshotFork struct {
	Name   string
	Clones int
	// ColdBootMs is the template's boot-to-quiescence cost; ForkMs is
	// what the whole fleet cost instead by forking through the warm pool.
	ColdBootMs float64
	ForkMs     float64
	// ForkOverBoot is ForkMs/ColdBootMs — the fleet-for-one-boot ratio.
	ForkOverBoot float64
	// FramesShared/FramesCopied split the fleet's pages at run end:
	// still COW-shared with the image vs. privatized by write faults.
	FramesShared uint64
	FramesCopied uint64
	// CopyRate is the fraction of clone-mapped frames that were copied.
	CopyRate   float64
	PoolHits   uint64
	PoolMisses uint64
	// HitRatio is warm-pool hits over all acquires.
	HitRatio float64
}

// snapshotForkSpec builds the clone-sweep subject for one fleet size: the
// oversubscribed-256vm shape with the clone count swept and half the
// fleet prewarmed (so the pool serves both hits and cold builds).
// Everything measured is simulated time — the spec is a deterministic
// scenario like any other.
func snapshotForkSpec(clones int) Spec {
	return Spec{
		Name:  fmt.Sprintf("snapshot-fork-%d", clones),
		Cores: 2, RunMs: 4, Seed: 14,
		Snapshot: &SnapshotSpec{Clones: clones, Prewarm: clones / 2},
		VMs:      []VM{{Name: "template"}},
	}
}

// MeasureSnapshotFork runs one fleet size and reports boot-vs-fork
// simulated cost, the COW copy ledger, and the warm-pool hit ratio.
func MeasureSnapshotFork(clones int) SnapshotFork {
	r := Build(snapshotForkSpec(clones)).Run()
	sf := SnapshotFork{
		Name:         r.Name,
		Clones:       r.CloneCount,
		ColdBootMs:   r.BootCycles.Millis(),
		ForkMs:       r.ForkCycles.Millis(),
		FramesShared: r.FramesShared,
		FramesCopied: r.FramesCopied,
		PoolHits:     r.PoolHits,
		PoolMisses:   r.PoolMisses,
	}
	if sf.ColdBootMs > 0 {
		sf.ForkOverBoot = sf.ForkMs / sf.ColdBootMs
	}
	if mapped := sf.FramesCopied + sf.FramesShared; mapped > 0 {
		sf.CopyRate = float64(sf.FramesCopied) / float64(mapped)
	}
	if acq := sf.PoolHits + sf.PoolMisses; acq > 0 {
		sf.HitRatio = float64(sf.PoolHits) / float64(acq)
	}
	return sf
}

// MeasureSnapshotForks is the -snapshot sweep: fork cost staying
// O(metadata) as the clone count scales.
func MeasureSnapshotForks(short bool) []SnapshotFork {
	counts := []int{1, 8, 64, 256}
	if short {
		counts = []int{1, 8}
	}
	var out []SnapshotFork
	for _, n := range counts {
		out = append(out, MeasureSnapshotFork(n))
	}
	return out
}
