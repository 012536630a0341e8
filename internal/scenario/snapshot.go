// Checkpoint/fork scenario mode: a serverless-style template VM is
// booted to quiescence, checkpointed (hypervisor image + guest-kernel
// snapshot) and frozen, then forked into copy-on-write clones through a
// warm shelf of prebuilt frozen clones — the many-VMs-from-one-boot
// shape that motivates O(metadata) cloning. Every phase boundary happens
// at engine-stopped points, and every clone's divergence and every reap
// deadline is seeded from the spec, so the whole lifecycle — boot,
// checkpoint, prewarm, fork storm, COW breaks, TTL reaping — is covered
// by the scenario's replay checksum.
package scenario

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/nova"
	"repro/internal/simclock"
	"repro/internal/ucos"
)

// SnapshotSpec configures a scenario's checkpoint/fork phases.
type SnapshotSpec struct {
	// Clones is how many VMs to fork and activate from the template.
	Clones int
	// Prewarm is the warm shelf's target (0 = every fork is cold).
	Prewarm int
	// TTLMs reaps shelf clones unused for this long (0 = never).
	TTLMs float64
	// KeepWarm re-tops the shelf to Prewarm after each reap scan.
	KeepWarm bool
}

// The template runs templateTasks serverless handlers, each with a
// one-time cold-start burst of templateColdExec instructions (the work a
// fork skips), and must quiesce within templateBootMs.
const (
	templateBootMs   = 12.0
	templateTasks    = 3
	templateColdExec = 700_000
)

// slsState is one serverless handler's host-side mutable state. It is
// what makes clones more than copies: each clone's states are deep-copied
// from the template's at fork and perturbed with a seeded stream, so
// every clone touches different pages and accumulates a different digest.
type slsState struct {
	rng   uint32
	cold  int // one-time cold-start burst; 0 once booted
	iters uint64
	acc   uint64
}

// slsBufPages is each handler's working-set size in pages — it bounds a
// clone's COW copies at templateTasks*slsBufPages frames, within the arena.
const slsBufPages = 4

// slsBody is a serverless handler: an optional cold start (executed only
// on the template's first boot — forked clones inherit cold=0), then a
// steady request loop that writes its buffer pages and sleeps. The loop
// is shaped for checkpoint/restore: Delay is the last statement, so a
// parked task resuming and a restored task starting fresh both land at
// the loop top and charge identically.
func slsBody(st *slsState, idx int) func(t *ucos.Task) {
	bufVA := nova.GuestUserBase + 1<<20 + uint32(idx)*(64<<10)
	return func(t *ucos.Task) {
		for {
			if st.cold > 0 {
				t.Exec(st.cold)
				st.cold = 0
			}
			for i := 0; i < 2; i++ {
				st.rng ^= st.rng << 13
				st.rng ^= st.rng >> 17
				st.rng ^= st.rng << 5
				page := st.rng % slsBufPages
				t.Touch(bufVA+page*4096+(st.rng&15)*64, true)
				t.Exec(140)
			}
			st.acc = st.acc*31 + uint64(st.rng)
			st.iters++
			t.Delay(2)
		}
	}
}

// slsSetup creates the serverless handlers over the given states. The
// same setup shape runs on the template at boot and on every clone at
// restore (with the clone's own states), so the restored snapshot finds
// a task at every priority it checkpointed.
func slsSetup(states []*slsState) func(os *ucos.OS) {
	return func(os *ucos.OS) {
		for i, st := range states {
			if err := os.TaskCreate(fmt.Sprintf("fn%d", i), 8+i, slsBody(st, i)); err != nil {
				panic(err)
			}
		}
	}
}

// cloneVM is one forked VM's harness-side record, kept in build order so
// the per-clone digest lines are deterministic.
type cloneVM struct {
	name     string
	pd       *nova.PD
	guest    *ucos.Guest
	states   []*slsState
	deadline simclock.Cycles // shelf reap time; 0 = never reaped
	reaped   bool
}

// snapRun is the checkpoint/fork state machine of one snapshot scenario.
type snapRun struct {
	cfg       SnapshotSpec
	key       string // template VM name, the prefix of every clone name
	tpl       *vmProbe
	tplStates []*slsState

	osnap *ucos.Snapshot
	img   *checkpoint.Image

	// shelf holds the frozen prewarmed clones, newest last: acquire takes
	// the newest (the warmest caches), reaping and draining go oldest
	// first. ttl and rng give each prewarmed clone its reap deadline.
	shelf []*cloneVM
	ttl   simclock.Cycles
	rng   uint64

	clones []*cloneVM // every clone ever built, in build order
	active int
	hits   uint64 // acquires served off the shelf
	reaped uint64 // shelf clones destroyed by TTL

	bootCycles simclock.Cycles
	forkCycles simclock.Cycles
}

// addTemplateVM wires one VM as a serverless template (snapshot mode's
// counterpart of addVM: same probe plumbing, sls tasks instead of
// churn/workload drivers). The first template VM anchors the snapRun.
func (s *System) addTemplateVM(idx int, vm VM) {
	p, seed := s.addGuest(idx, vm)
	states := make([]*slsState, templateTasks)
	for i := range states {
		states[i] = &slsState{rng: mix(seed, uint32(0x515+i)), cold: templateColdExec}
	}
	p.guest.Setup = slsSetup(states)
	if s.snap == nil {
		cfg := *s.Spec.Snapshot
		s.snap = &snapRun{
			cfg: cfg, key: p.spec.Name, tpl: p, tplStates: states,
			ttl: simclock.FromMillis(cfg.TTLMs),
			rng: uint64(mix(s.Spec.Seed, 0x9001)),
		}
	}
}

// bootToQuiescence advances the simulation in fixed steps until the
// template parks in paravirtualized idle — the checkpointable state —
// panicking if the boot budget runs out first.
func (s *System) bootToQuiescence() {
	sr := s.snap
	limit := simclock.FromMillis(templateBootMs)
	step := simclock.FromMicros(250)
	for !sr.tpl.pd.IdleParked() {
		if s.Kernel.Clock.Now() >= limit {
			panic(fmt.Sprintf("scenario %q: template failed to quiesce within %.1f ms", s.Spec.Name, templateBootMs))
		}
		s.advance(step)
	}
}

// checkpointTemplate snapshots the quiesced template (guest-kernel state
// + hypervisor image, frames shared not copied) and freezes it under its
// future clones.
func (s *System) checkpointTemplate() {
	sr := s.snap
	osnap, err := sr.tpl.guest.OS.Snapshot()
	if err != nil {
		panic(fmt.Sprintf("scenario %q: %v", s.Spec.Name, err))
	}
	img, err := s.Kernel.Checkpoint(sr.tpl.pd, false)
	if err != nil {
		panic(fmt.Sprintf("scenario %q: %v", s.Spec.Name, err))
	}
	sr.osnap, sr.img = osnap, img
	if err := s.Kernel.Freeze(sr.tpl.pd); err != nil {
		panic(fmt.Sprintf("scenario %q: %v", s.Spec.Name, err))
	}
}

// buildClone forks the next clone from the template image: deep-copied,
// seed-perturbed handler states and a ucos.Guest that resumes the
// captured timeline. The clone's build ordinal names it and seeds it.
func (s *System) buildClone() *cloneVM {
	sr := s.snap
	seq := len(sr.clones)
	name := fmt.Sprintf("%s.c%d", sr.key, seq)
	states := make([]*slsState, len(sr.tplStates))
	for i, st := range sr.tplStates {
		cp := *st
		cp.rng = (cp.rng ^ mix(s.Spec.Seed, uint32(0xC10E+seq*8+i))) | 1
		states[i] = &cp
	}
	g := &ucos.Guest{GuestName: name, Snap: sr.osnap, Setup: slsSetup(states)}
	pd := s.Kernel.CreateClone(sr.img, name, g)
	cv := &cloneVM{name: name, pd: pd, guest: g, states: states}
	sr.clones = append(sr.clones, cv)
	return cv
}

// destroyClone tears down a reaped or drained shelf clone.
func (s *System) destroyClone(cv *cloneVM) {
	if err := s.Kernel.DestroyClone(cv.pd); err != nil {
		panic(fmt.Sprintf("scenario %q: %v", s.Spec.Name, err))
	}
	cv.reaped = true
}

// prewarm tops the shelf up to the spec's target. Each new clone's reap
// deadline is now+TTL plus a seeded xorshift jitter of up to an eighth
// of the TTL, so a batch built in one instant does not expire in one
// reap storm.
func (s *System) prewarm(now simclock.Cycles) {
	sr := s.snap
	for len(sr.shelf) < sr.cfg.Prewarm {
		cv := s.buildClone()
		if sr.ttl > 0 {
			cv.deadline = now + sr.ttl
			if span := uint64(sr.ttl / 8); span > 0 {
				sr.rng ^= sr.rng << 13
				sr.rng ^= sr.rng >> 7
				sr.rng ^= sr.rng << 17
				cv.deadline += simclock.Cycles(sr.rng % span)
			}
		}
		sr.shelf = append(sr.shelf, cv)
	}
}

// acquire takes the newest clone off the shelf, or forks a fresh one
// when the shelf is empty.
func (s *System) acquire() *cloneVM {
	sr := s.snap
	n := len(sr.shelf)
	if n == 0 {
		return s.buildClone()
	}
	cv := sr.shelf[n-1]
	sr.shelf = sr.shelf[:n-1]
	sr.hits++
	return cv
}

// reapExpired destroys, oldest first, every shelf clone whose deadline
// has passed.
func (s *System) reapExpired(now simclock.Cycles) {
	sr := s.snap
	kept := sr.shelf[:0]
	for _, cv := range sr.shelf {
		if cv.deadline != 0 && cv.deadline <= now {
			s.destroyClone(cv)
			sr.reaped++
		} else {
			kept = append(kept, cv)
		}
	}
	sr.shelf = kept
}

// runSnapshot is the snapshot scenario's phased run loop:
//
//	A) boot the template until it parks, checkpoint + freeze it;
//	B) prewarm the shelf, then acquire/activate the clone fleet — the
//	   fork storm whose simulated cost ForkCycles records;
//	C) run the fleet for the spec's budget in chunks, reaping expired
//	   shelf clones (and optionally re-warming) between chunks.
func (s *System) runSnapshot(d simclock.Cycles) {
	k := s.Kernel
	sr := s.snap

	s.bootToQuiescence()
	sr.bootCycles = k.Clock.Now()
	s.checkpointTemplate()

	fork0 := k.Clock.Now()
	s.prewarm(fork0)
	for i := 0; i < sr.cfg.Clones; i++ {
		if err := k.ActivateClone(s.acquire().pd); err != nil {
			panic(fmt.Sprintf("scenario %q: %v", s.Spec.Name, err))
		}
		sr.active++
	}
	sr.forkCycles = k.Clock.Now() - fork0

	chunk := d / 8
	if chunk == 0 {
		chunk = d
	}
	for done := simclock.Cycles(0); done < d; done += chunk {
		s.advance(chunk)
		s.reapExpired(k.Clock.Now())
		if sr.cfg.KeepWarm {
			s.prewarm(k.Clock.Now())
		}
	}
	// Deterministic teardown: shelf leftovers die, oldest first, before
	// collection so the final share-count/arena state is budget-independent.
	for _, cv := range sr.shelf {
		s.destroyClone(cv)
	}
	sr.shelf = nil
}

// snapshotCollect folds the snapshot/fork ledger into the result and the
// checksummed dump: the phase timings, the shelf counters, and one line
// per clone ever built (build order) with its COW and handler state.
func (s *System) snapshotCollect(d *digest, res *Result) {
	sr := s.snap
	res.BootCycles, res.ForkCycles = sr.bootCycles, sr.forkCycles
	res.CloneCount = sr.active
	d.addf("snapshot %s boot %d fork %d clones %d prewarm %d",
		sr.key, uint64(sr.bootCycles), uint64(sr.forkCycles), sr.active, sr.cfg.Prewarm)
	if sr.img != nil { // the fork phases ran
		// Every clone came from a prewarm or from an acquire's miss, every
		// acquire activated one clone, and the template was checkpointed
		// into one image.
		built := uint64(len(sr.clones))
		misses := uint64(sr.active) - sr.hits
		res.PoolHits, res.PoolMisses = sr.hits, misses
		res.PoolBuilt, res.PoolReaped = built, sr.reaped
		d.addf("pool built %d hits %d misses %d reaped %d prewarmed %d imageonce 1",
			built, sr.hits, misses, sr.reaped, built-misses)
	}
	for _, cv := range sr.clones {
		cs, _ := cv.pd.CloneStats()
		res.COWFaults += cs.COWFaults
		res.FramesCopied += cs.Copied
		res.FramesShared += uint64(cs.Shared)
		var ticks uint64
		if cv.guest.OS != nil {
			ticks = cv.guest.OS.Ticks
		}
		var iters, acc uint64
		for _, st := range cv.states {
			iters += st.iters
			acc = acc*33 + st.acc
		}
		d.addf("clone %s cow %d copied %d shared %d iters %d acc %d ticks %d reaped %v",
			cv.name, cs.COWFaults, cs.Copied, cs.Shared, iters, acc, ticks, cv.reaped)
	}
}

// snapshotForkSpec builds the clone-sweep subject for one fleet size: the
// oversubscribed-256vm shape with the clone count swept and half the
// fleet prewarmed (so the shelf serves both hits and cold builds).
func snapshotForkSpec(clones int) Spec {
	return Spec{
		Name:  fmt.Sprintf("snapshot-fork-%d", clones),
		Cores: 2, RunMs: 4, Seed: 14,
		Snapshot: &SnapshotSpec{Clones: clones, Prewarm: clones / 2},
		VMs:      []VM{{Name: "template"}},
	}
}

// MeasureSnapshotForks is the -snapshot sweep: one run per fleet size (1,
// 8, 64 and 256 clones; 1 and 8 when short). Each result carries the
// template's boot cost, the whole fleet's fork cost, the COW copy ledger
// and the shelf's hits and misses. All are simulated quantities: the
// sweep's claim is that fork cost stays O(metadata) as the clone count
// scales, not anything about simulator speed.
func MeasureSnapshotForks(short bool) []Result {
	counts := []int{1, 8, 64, 256}
	if short {
		counts = counts[:2]
	}
	var out []Result
	for _, n := range counts {
		out = append(out, Build(snapshotForkSpec(n)).Run())
	}
	return out
}
