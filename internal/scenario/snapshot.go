// Checkpoint/fork scenario mode: a serverless-style template VM is
// booted to quiescence, checkpointed (hypervisor image + guest-kernel
// snapshot) and frozen, then forked through a warm pool into
// copy-on-write clones — the many-VMs-from-one-boot shape that motivates
// O(metadata) cloning. Every phase boundary happens at engine-stopped
// points, and every clone's divergence is seeded from the spec, so the
// whole lifecycle — boot, checkpoint, prewarm, fork storm, COW breaks,
// TTL reaping — is covered by the scenario's replay checksum.
package scenario

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/nova"
	"repro/internal/pool"
	"repro/internal/simclock"
	"repro/internal/ucos"
)

// SnapshotSpec configures a scenario's checkpoint/fork phases.
type SnapshotSpec struct {
	// Clones is how many VMs to fork and activate from the template.
	Clones int
	// Prewarm is the warm pool's shelf target (0 = every fork is cold).
	Prewarm int
	// TTLMs reaps shelf clones unused for this long (0 = never).
	TTLMs float64
	// KeepWarm re-tops the shelf to Prewarm after each reap scan.
	KeepWarm bool
	// BootMs bounds the template's boot-to-quiescence phase (0 = 12).
	BootMs float64
	// Tasks is the template's serverless handler count (0 = 3, max 8).
	Tasks int
	// ColdExec is each handler's one-time cold-start instruction burst —
	// the work a fork skips (0 = 700_000).
	ColdExec int
}

// normalized fills the snapshot spec's defaults.
func (sp SnapshotSpec) normalized() SnapshotSpec {
	if sp.BootMs == 0 {
		sp.BootMs = 12
	}
	if sp.Tasks == 0 {
		sp.Tasks = 3
	}
	if sp.Tasks > 8 {
		sp.Tasks = 8
	}
	if sp.ColdExec == 0 {
		sp.ColdExec = 700_000
	}
	return sp
}

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
// clone's COW copies at Tasks*slsBufPages frames, within the arena.
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
// restore (with the clone's own states), satisfying ucos.Restore's
// tasks-recreated contract.
func slsSetup(tickMs float64, states []*slsState) func(os *ucos.OS) {
	return func(os *ucos.OS) {
		os.TickPeriod = simclock.FromMillis(tickMs)
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
	name   string
	pd     *nova.PD
	guest  *ucos.ResumedGuest
	states []*slsState
	reaped bool
}

// snapRun is the checkpoint/fork state machine of one snapshot scenario.
type snapRun struct {
	cfg       SnapshotSpec
	key       string // pool image key = template VM name
	tpl       *vmProbe
	tplStates []*slsState

	osnap *ucos.Snapshot
	img   *checkpoint.Image
	pool  *pool.Pool

	clones []*cloneVM // every clone ever built, in build order
	active int

	bootCycles simclock.Cycles
	forkCycles simclock.Cycles
}

// addTemplateVM wires one VM as a serverless template (snapshot mode's
// counterpart of addVM: same probe plumbing, sls tasks instead of
// churn/workload drivers). The first template VM anchors the snapRun.
func (s *System) addTemplateVM(idx int, vm VM) {
	p, seed := s.addGuest(idx, vm)
	cfg := s.Spec.Snapshot.normalized()
	states := make([]*slsState, cfg.Tasks)
	for i := range states {
		states[i] = &slsState{rng: mix(seed, uint32(0x515+i)), cold: cfg.ColdExec}
	}
	p.guest.Setup = slsSetup(s.Spec.TickMs, states)
	if s.snap == nil {
		s.snap = &snapRun{cfg: cfg, key: p.spec.Name, tpl: p, tplStates: states}
	}
}

// bootToQuiescence advances the simulation in fixed steps until the
// template parks in paravirtualized idle — the checkpointable state —
// panicking if the boot budget runs out first.
func (s *System) bootToQuiescence() {
	sr := s.snap
	limit := simclock.FromMillis(sr.cfg.BootMs)
	step := simclock.FromMicros(250)
	for !sr.tpl.pd.IdleParked() {
		if s.Kernel.Clock.Now() >= limit {
			panic(fmt.Sprintf("scenario %q: template failed to quiesce within %.1f ms", s.Spec.Name, sr.cfg.BootMs))
		}
		s.advance(step)
	}
}

// checkpointTemplate snapshots the quiesced template (guest-kernel state
// + hypervisor image, frames shared not copied) and freezes it under its
// future clones.
func (s *System) checkpointTemplate(withContents bool) {
	sr := s.snap
	osnap, err := sr.tpl.guest.OS.Snapshot()
	if err != nil {
		panic(fmt.Sprintf("scenario %q: %v", s.Spec.Name, err))
	}
	img, err := s.Kernel.Checkpoint(sr.tpl.pd, osnap, withContents, sr.key)
	if err != nil {
		panic(fmt.Sprintf("scenario %q: %v", s.Spec.Name, err))
	}
	sr.osnap, sr.img = osnap, img
	if err := s.Kernel.Freeze(sr.tpl.pd); err != nil {
		panic(fmt.Sprintf("scenario %q: %v", s.Spec.Name, err))
	}
}

// buildClone forks clone #seq from the template image: deep-copied,
// seed-perturbed handler states and a ResumedGuest that re-enters the
// captured timeline. Pool Build callback; runs at engine-stopped points.
func (s *System) buildClone(seq int) *cloneVM {
	sr := s.snap
	name := fmt.Sprintf("%s.c%d", sr.key, seq)
	states := make([]*slsState, len(sr.tplStates))
	for i, st := range sr.tplStates {
		cp := *st
		cp.rng = (cp.rng ^ mix(s.Spec.Seed, uint32(0xC10E+seq*8+i))) | 1
		states[i] = &cp
	}
	g := &ucos.ResumedGuest{GuestName: name, Snap: sr.osnap, Setup: slsSetup(s.Spec.TickMs, states)}
	pd := s.Kernel.CreateClone(sr.img, nova.CloneConfig{Name: name, Guest: g})
	cv := &cloneVM{name: name, pd: pd, guest: g, states: states}
	sr.clones = append(sr.clones, cv)
	return cv
}

// destroyClone is the pool's Destroy callback (TTL reap / drain).
func (s *System) destroyClone(cv *cloneVM) {
	if err := s.Kernel.DestroyClone(cv.pd); err != nil {
		panic(fmt.Sprintf("scenario %q: %v", s.Spec.Name, err))
	}
	cv.reaped = true
}

// newPool wires the warm pool over the scenario's build/destroy hooks.
func (s *System) newPool() *pool.Pool {
	sr := s.snap
	return pool.New(
		pool.Config{
			Target: sr.cfg.Prewarm,
			TTL:    simclock.FromMillis(sr.cfg.TTLMs),
			Seed:   uint64(mix(s.Spec.Seed, 0x9001)),
		},
		pool.Funcs{
			Image:   func(string) (any, error) { return sr.img, nil },
			Build:   func(_ string, _ any, seq int) (any, error) { return s.buildClone(seq), nil },
			Destroy: func(v any) { s.destroyClone(v.(*cloneVM)) },
		})
}

// runSnapshot is the snapshot scenario's phased run loop:
//
//	A) boot the template until it parks, checkpoint + freeze it;
//	B) prewarm the pool, then acquire/activate the clone fleet — the
//	   fork storm whose simulated cost ForkCycles records;
//	C) run the fleet for the spec's budget in chunks, reaping expired
//	   shelf clones (and optionally re-warming) between chunks.
func (s *System) runSnapshot(d simclock.Cycles) {
	k := s.Kernel
	sr := s.snap

	s.bootToQuiescence()
	sr.bootCycles = k.Clock.Now()
	s.checkpointTemplate(false)

	sr.pool = s.newPool()
	fork0 := k.Clock.Now()
	if err := sr.pool.Prewarm(sr.key, fork0); err != nil {
		panic(fmt.Sprintf("scenario %q: %v", s.Spec.Name, err))
	}
	for i := 0; i < sr.cfg.Clones; i++ {
		v, _, err := sr.pool.Acquire(sr.key, k.Clock.Now())
		if err != nil {
			panic(fmt.Sprintf("scenario %q: %v", s.Spec.Name, err))
		}
		cv := v.(*cloneVM)
		if err := k.ActivateClone(cv.pd); err != nil {
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
		if sr.cfg.TTLMs > 0 {
			sr.pool.ReapExpired(k.Clock.Now())
		}
		if sr.cfg.KeepWarm {
			if err := sr.pool.Prewarm(sr.key, k.Clock.Now()); err != nil {
				panic(fmt.Sprintf("scenario %q: %v", s.Spec.Name, err))
			}
		}
	}
	// Deterministic teardown: shelf leftovers die before collection so
	// the final refcount/arena state is budget-independent.
	sr.pool.DrainAll()
}

// snapshotCollect folds the snapshot/fork ledger into the result and the
// checksummed dump: the phase timings, the pool counters, and one line
// per clone ever built (build order) with its COW and handler state.
func (s *System) snapshotCollect(d *digest, res *Result) {
	sr := s.snap
	res.BootCycles, res.ForkCycles = sr.bootCycles, sr.forkCycles
	res.CloneCount = sr.active
	d.addf("snapshot %s boot %d fork %d clones %d prewarm %d",
		sr.key, uint64(sr.bootCycles), uint64(sr.forkCycles), sr.active, sr.cfg.Prewarm)
	if sr.pool != nil {
		st := sr.pool.Stats()
		res.PoolHits, res.PoolMisses = st.Hits, st.Misses
		res.PoolBuilt, res.PoolReaped = st.Built, st.Reaped
		d.addf("pool built %d hits %d misses %d reaped %d prewarmed %d imageonce %d",
			st.Built, st.Hits, st.Misses, st.Reaped, st.Prewarmed, st.ImageOnce)
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
