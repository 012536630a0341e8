package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"
)

const (
	// minRounds timed rounds are always run, however short --seconds is.
	minRounds = 5
	// setupCycles extra build+close cycles feed setup_s beside the
	// builds of the timed reps.
	setupCycles = 10
	// variants is how many seeds the timed reps cycle through: the given
	// seed and variants-1 derived from it. Host cost per simulated
	// millisecond depends on the seed (reconfig_thrash's FFT mix moves it
	// by about 10%), so a run that covers several seeds reports a speed
	// that moves less from one --seed to the next.
	variants = 4
	// profileHz is the CPU profile rate asked for in the traced round.
	profileHz = 1000
	// traceMin is how much profiled run time each workload gets (at
	// least one rep) before its per-layer shares are read.
	traceMin = 2 * time.Second
	// checkShards is the shard count of the warm-up rep, whose state
	// must equal the sequential reps'. It stays at 2, the CPU count of
	// the host the bounds were measured on, so the check never
	// oversubscribes it.
	checkShards = 2
)

// config is one invocation's settings.
type config struct {
	seed    uint32
	short   bool // the reduced horizons of the tests
	seconds time.Duration
	trace   bool
}

// plan returns the timed-round floor, the set-up cycles and the seed
// variants of an invocation. The tests' short runs use the fewest that
// still compare two reps of every variant.
func (c config) plan() (rounds, cycles, nvariants int) {
	if c.short {
		return 4, 2, 2
	}
	return minRounds, setupCycles, variants
}

// variantSeed is the seed of variant v: the invocation's seed itself for
// v = 0, which the golden digests and the simulated metrics describe.
func variantSeed(seed uint32, v int) uint32 { return seed + uint32(v)*0x9E3779B9 }

// result is everything one workload's part of an invocation measured.
type result struct {
	w workload

	// One sample per timed rep (setupS also gets the set-up cycles).
	// The end-to-end ones are in reference time (see speed.go); the
	// host ones are as measured.
	setupS, simMsPerRefS, refMips, refCPUPerSim, heapMB []float64
	hostSimMsPerS, hostMips, hostCPUPerSim, kernelMs    []float64
	allocKB, gcCycles                                   []float64

	// refs holds each seed variant's first timed outcome, which its
	// later reps must equal. refs[0], the invocation's own seed, must
	// also equal the shards=2 warm-up and, at goldenSeed, the golden
	// entry; the simulated metrics are read from it.
	refs []*outcome
	reps int // timed and profiled reps started, which picks the variant

	attempted, failed int
	problems          []string

	// Traced round: samples per layer; the process CPU time, wall time
	// and simulated time of the profiled runs; and their speed in
	// reference time.
	layers            map[string]int64
	profCPU, profWall time.Duration
	profSimMs         float64
	profRefS          float64
	firstProfile      []byte
}

func (r *result) pass() { r.attempted++ }

func (r *result) fail(format string, args ...any) {
	r.attempted++
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// compare checks got against want as one attempted check.
func (r *result) compare(what string, want, got outcome) {
	if d := diffOutcomes(want, got); d != "" {
		r.fail("%s differs: %s", what, d)
		return
	}
	r.pass()
}

// rep is one build, run and collect of a workload, with its host costs.
type rep struct {
	o                outcome
	setup, wall, cpu time.Duration
	heapBytes        uint64 // live heap the system holds after its run
	allocBytes       uint64 // allocated during the run
	gcCycles         uint32 // collections during the run
	profile          []byte
}

// runBench runs one invocation: a warm-up round on the parallel engine,
// the set-up cycles, timed rounds until both minRounds and the time
// budget are spent, then (when tracing) the profiled round. Each phase
// visits the workloads round-robin, one rep each, so host drift hits
// them alike.
func runBench(ws []workload, cfg config) []*result {
	rounds, cycles, nvariants := cfg.plan()
	res := make([]*result, len(ws))
	warm := make([]*outcome, len(ws))
	for i, w := range ws {
		res[i] = &result{w: w, layers: map[string]int64{}, refs: make([]*outcome, nvariants)}
		if rp, err := runRep(w, cfg.seed, cfg.short, checkShards, false); err != nil {
			res[i].fail("warm-up rep (shards=%d): %v", checkShards, err)
		} else {
			warm[i] = &rp.o
		}
	}
	// Every set-up cycle and rep is bracketed by speed-kernel timings,
	// which convert its host time into reference time.
	speed := newSpeedMeter()
	for _, r := range res {
		for range cycles {
			d, err := setupOnly(r.w, cfg.seed, cfg.short)
			k := speed.around()
			if err != nil {
				r.fail("set-up cycle: %v", err)
				continue
			}
			r.setupS = append(r.setupS, d.Seconds()*refScale(k))
		}
	}
	start := time.Now()
	for round := 0; round < rounds || time.Since(start) < cfg.seconds; round++ {
		for _, r := range res {
			v := r.nextVariant()
			rp, err := runRep(r.w, variantSeed(cfg.seed, v), cfg.short, 1, false)
			k := speed.around()
			if err != nil {
				r.fail("timed rep %d: %v", round, err)
				continue
			}
			r.record(rp, k)
			r.check(v, "timed rep", rp.o)
		}
	}
	for i, r := range res {
		if r.refs[0] == nil {
			continue
		}
		if warm[i] != nil {
			r.compare(fmt.Sprintf("the shards=%d run", checkShards), *r.refs[0], *warm[i])
		}
		if cfg.seed == goldenSeed {
			if msg := checkGolden(r.w.name, cfg.short, *r.refs[0]); msg != "" {
				r.fail("%s", msg)
			} else {
				r.pass()
			}
		}
	}
	if cfg.trace {
		for _, r := range res {
			r.traceRound(cfg)
		}
	}
	return res
}

func (r *result) nextVariant() int {
	v := r.reps % len(r.refs)
	r.reps++
	return v
}

// check compares a rep of variant v with that variant's first timed
// rep, or makes it the first.
func (r *result) check(v int, what string, o outcome) {
	if r.refs[v] == nil {
		r.refs[v] = &o
		r.pass()
		return
	}
	r.compare(fmt.Sprintf("%s %d (seed variant %d)", what, r.reps-1, v), *r.refs[v], o)
}

// record folds one timed rep's host costs into the result. kernel is
// the speed-kernel time around the rep.
func (r *result) record(rp rep, kernel time.Duration) {
	scale := refScale(kernel)
	simMs := rp.o.simCycles.Millis()
	wall, cpuMs := rp.wall.Seconds(), float64(rp.cpu.Microseconds())/1e3
	r.setupS = append(r.setupS, rp.setup.Seconds()*scale)
	r.simMsPerRefS = append(r.simMsPerRefS, simMs/(wall*scale))
	r.refMips = append(r.refMips, float64(rp.o.instructions)/(wall*scale)/1e6)
	r.refCPUPerSim = append(r.refCPUPerSim, cpuMs*scale/simMs)
	r.heapMB = append(r.heapMB, float64(rp.heapBytes)/(1<<20))
	r.hostSimMsPerS = append(r.hostSimMsPerS, simMs/wall)
	r.hostMips = append(r.hostMips, float64(rp.o.instructions)/wall/1e6)
	r.hostCPUPerSim = append(r.hostCPUPerSim, cpuMs/simMs)
	r.kernelMs = append(r.kernelMs, float64(kernel.Microseconds())/1e3)
	r.allocKB = append(r.allocKB, float64(rp.allocBytes)/1024/simMs)
	r.gcCycles = append(r.gcCycles, float64(rp.gcCycles))
}

// traceRound profiles the workload's run calls, still cycling through
// the seed variants, until traceMin of profiled run time has passed (one
// rep at the short horizons), and files the samples under layers.
func (r *result) traceRound(cfg config) {
	if r.refs[0] == nil {
		return
	}
	speed := newSpeedMeter()
	for r.profWall < traceMin {
		v := r.nextVariant()
		rp, err := runRep(r.w, variantSeed(cfg.seed, v), cfg.short, 1, true)
		k := speed.around()
		if err != nil {
			r.fail("profiled rep: %v", err)
			return
		}
		r.check(v, "profiled rep", rp.o)
		samples, err := decodeProfile(rp.profile)
		if err != nil {
			r.fail("decoding the profile: %v", err)
			return
		}
		layerCounts(samples, r.layers)
		r.profCPU += rp.cpu
		r.profWall += rp.wall
		r.profRefS += rp.wall.Seconds() * refScale(k)
		r.profSimMs += rp.o.simCycles.Millis()
		if r.firstProfile == nil {
			r.firstProfile = rp.profile
		}
		if cfg.short {
			return
		}
	}
}

// setupOnly times one build and releases the system unrun.
func setupOnly(w workload, seed uint32, short bool) (d time.Duration, err error) {
	defer recoverInto(&err)
	s, d, _ := timedBuild(w, seed, short, 1)
	s.close()
	return d, nil
}

// timedBuild builds one system from a freshly collected heap, so every
// build starts from the same allocator state, and times the build call.
// It also returns the live heap before the build: what the harness
// itself holds, which the live-heap metric leaves out.
func timedBuild(w workload, seed uint32, short bool, shards int) (system, time.Duration, uint64) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	start := time.Now()
	s := w.build(seed, short, shards)
	return s, time.Since(start), ms.HeapAlloc
}

// runRep builds, runs and collects one system. Only the run call is
// timed and, when profile is set, profiled. A panic anywhere comes back
// as an error, so the rep counts as failed instead of ending the
// invocation.
func runRep(w workload, seed uint32, short bool, shards int, profile bool) (rp rep, err error) {
	defer recoverInto(&err)
	s, setup, baseHeap := timedBuild(w, seed, short, shards)
	rp.setup = setup
	defer s.close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var prof bytes.Buffer
	if profile {
		// StartCPUProfile keeps a rate set before it (and says so on
		// stderr); its own rate is 100 Hz.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return rp, fmt.Errorf("starting the CPU profile: %w", err)
		}
	}
	cpu0 := processCPU()
	t0 := time.Now()
	s.run()
	rp.wall = time.Since(t0)
	rp.cpu = processCPU() - cpu0
	if profile {
		pprof.StopCPUProfile()
		rp.profile = prof.Bytes()
	}
	runtime.ReadMemStats(&after)
	rp.allocBytes = after.TotalAlloc - before.TotalAlloc
	rp.gcCycles = after.NumGC - before.NumGC
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > baseHeap {
		rp.heapBytes = after.HeapAlloc - baseHeap
	}
	rp.o = s.collect()
	return rp, nil
}

func recoverInto(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("panic: %v", r)
	}
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// diffOutcomes returns "" when two outcomes are the same simulated
// state, else where they part: the first differing dump line with
// context, else the first differing count. The checksum needs no check
// of its own: it is a hash of the dump.
func diffOutcomes(want, got outcome) string {
	if d := firstDifference(want.dump, got.dump); d != "" {
		return d
	}
	keys := make([]string, 0, len(want.counts))
	for k := range want.counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if g, ok := got.counts[k]; !ok || g != want.counts[k] {
			return fmt.Sprintf("count %s is %v, want %v", k, g, want.counts[k])
		}
	}
	if len(got.counts) != len(want.counts) {
		return fmt.Sprintf("%d counts, want %d", len(got.counts), len(want.counts))
	}
	if got.simCycles != want.simCycles || got.instructions != want.instructions {
		return fmt.Sprintf("simulated time %d cycles and %d instructions, want %d and %d",
			got.simCycles, got.instructions, want.simCycles, want.instructions)
	}
	return ""
}
