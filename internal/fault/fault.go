// Package fault is the deterministic fault-plan engine: a seeded source
// of injected failures for the slow, failure-prone legs of hardware-task
// switching — SD-card bitstream fetches, serial PCAP downloads, and the
// PRR configuration step itself (§IV-B/§IV-E of the paper treat these as
// the dominant costs; real boards also make them the dominant *failure*
// sites).
//
// Determinism is the contract: every injection decision is a pure
// function of the scenario seed, the decision site, the image key, and a
// per-site occurrence counter — never host randomness and never host
// time. The reconfiguration pipeline consumes the injector exclusively
// from the manager core's goroutine, where the epoch-barrier engine
// already guarantees a deterministic operation order, so the same
// scenario produces the byte-identical fault sequence sequential vs
// parallel, shard count notwithstanding. Counters live in Stats and feed
// the scenario checksums.
package fault

// Config is one scenario's fault plan. All rates are per-mille
// (0..1000); zero everywhere means a fault-free run and a nil injector.
// The tolerance policy the pipeline applies against it (retry budget,
// quarantine threshold) is reconfig's own.
type Config struct {
	// Seed whitens every injection decision. Scenario specs derive it
	// from the scenario seed so fault plans are reproducible.
	Seed uint32

	// SDErrorPermille is the chance an SD staging read fails outright
	// (the fill is retried with exponential backoff).
	SDErrorPermille uint32
	// SDStallPermille is the chance an SD read stalls: it completes, but
	// only after SDStallFactor times the modelled transfer latency.
	SDStallPermille uint32
	// SDStallFactor multiplies the fill latency on a stall (default 4).
	SDStallFactor uint32
	// CorruptPermille is the chance a *successful* SD read staged a
	// corrupt image: the cache entry is poisoned, the PCAP download from
	// it fails CRC, and the pipeline must invalidate and re-fetch.
	CorruptPermille uint32

	// PCAPCRCPermille is the chance a PCAP download fails its CRC check
	// (device signals error; pipeline retries the download).
	PCAPCRCPermille uint32
	// PCAPStallPermille is the chance a PCAP transfer hangs and must be
	// reaped by the pipeline's watchdog timeout, then re-downloaded.
	PCAPStallPermille uint32

	// PRRFaultPermille is the chance a completed download leaves the PRR
	// in a faulted configuration state (transient config fault). Repeated
	// faults quarantine the PRR.
	PRRFaultPermille uint32
}

// Enabled reports whether the plan injects anything at all.
func (c Config) Enabled() bool {
	return c.SDErrorPermille|c.SDStallPermille|c.CorruptPermille|
		c.PCAPCRCPermille|c.PCAPStallPermille|c.PRRFaultPermille != 0
}

// withDefaults fills the stall factor if left zero.
func (c Config) withDefaults() Config {
	if c.SDStallFactor == 0 {
		c.SDStallFactor = 4
	}
	return c
}

// Decision sites. Each site draws from its own occurrence-counter
// stream so adding a draw at one site never shifts another site's
// sequence.
const (
	siteSDError = iota
	siteSDStall
	siteCorrupt
	sitePCAPCRC
	sitePCAPStall
	sitePRRFault
	numSites
)

// Stats counts injected faults by class; the scenario engine folds them
// into the canonical dump, so they are part of the determinism checksum.
type Stats struct {
	SDErrors    uint64 // SD read failures injected
	SDStalls    uint64 // SD read stalls injected
	Corruptions uint64 // poisoned staged images
	PCAPCRCs    uint64 // PCAP CRC failures injected
	PCAPStalls  uint64 // PCAP hangs injected
	PRRFaults   uint64 // transient PRR config faults injected
}

// Total returns all injected faults.
func (s Stats) Total() uint64 {
	return s.SDErrors + s.SDStalls + s.Corruptions + s.PCAPCRCs + s.PCAPStalls + s.PRRFaults
}

// Injector evaluates a Config at the pipeline's decision points. It is
// not internally synchronized: call it only from the goroutine that owns
// the reconfiguration pipeline (the manager core), the same discipline
// every other pipeline mutation already follows. A nil *Injector is a
// valid "no faults" value — every method returns the zero outcome.
type Injector struct {
	cfg   Config
	draws [numSites]uint32 // per-site occurrence counters
	Stats Stats
}

// New builds an injector for the plan; a plan that injects nothing
// returns nil so call sites pay a single pointer test.
func New(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{cfg: cfg.withDefaults()}
}

// Config returns the (defaulted) active plan; the zero Config on nil.
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}.withDefaults()
	}
	return in.cfg
}

// mix32 is a splitmix-style finalizer: full-avalanche whitening so
// neighbouring (site, key, count) triples decorrelate.
func mix32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7FEB_352D
	x ^= x >> 15
	x *= 0x846C_A68B
	x ^= x >> 16
	return x
}

// roll draws site's next per-mille value for key.
func (in *Injector) roll(site int, key uint32) uint32 {
	in.draws[site]++
	h := in.cfg.Seed
	h = mix32(h ^ uint32(site)*0x9E37_79B9)
	h = mix32(h ^ key)
	h = mix32(h ^ in.draws[site]*0x85EB_CA6B)
	return h % 1000
}

func (in *Injector) hit(site int, key, permille uint32) bool {
	if permille == 0 {
		return false
	}
	return in.roll(site, key) < permille
}

// SDOutcome is one SD staging read's injected fate.
type SDOutcome struct {
	Err     bool // read fails; retry with backoff
	Stall   bool // read completes after StallFactor× the normal latency
	Corrupt bool // read succeeds but the staged image is poisoned
}

// SDFill decides the fate of one SD staging read of image key.
func (in *Injector) SDFill(key uint32) SDOutcome {
	if in == nil {
		return SDOutcome{}
	}
	var o SDOutcome
	if in.hit(siteSDError, key, in.cfg.SDErrorPermille) {
		o.Err = true
		in.Stats.SDErrors++
		return o // a failed read neither stalls nor stages anything
	}
	if in.hit(siteSDStall, key, in.cfg.SDStallPermille) {
		o.Stall = true
		in.Stats.SDStalls++
	}
	if in.hit(siteCorrupt, key, in.cfg.CorruptPermille) {
		o.Corrupt = true
		in.Stats.Corruptions++
	}
	return o
}

// PCAPOutcome is one PCAP download's injected fate.
type PCAPOutcome struct {
	CRC   bool // device reports a CRC failure
	Stall bool // transfer hangs; the watchdog must reap it
}

// PCAPStart decides the fate of one PCAP download of image key into prr.
func (in *Injector) PCAPStart(key uint32, prr int) PCAPOutcome {
	if in == nil {
		return PCAPOutcome{}
	}
	k := key ^ uint32(prr)<<24
	var o PCAPOutcome
	if in.hit(sitePCAPCRC, k, in.cfg.PCAPCRCPermille) {
		o.CRC = true
		in.Stats.PCAPCRCs++
		return o
	}
	if in.hit(sitePCAPStall, k, in.cfg.PCAPStallPermille) {
		o.Stall = true
		in.Stats.PCAPStalls++
	}
	return o
}

// PRRConfig decides whether a completed download leaves prr with a
// transient configuration fault.
func (in *Injector) PRRConfig(prr int) bool {
	if in == nil {
		return false
	}
	if in.hit(sitePRRFault, uint32(prr), in.cfg.PRRFaultPermille) {
		in.Stats.PRRFaults++
		return true
	}
	return false
}
