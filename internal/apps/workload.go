package apps

import "repro/internal/cpu"

// Workload is a resumable guest computation: each Step processes one unit
// (a speech frame, a compression block, ...) charging its instruction and
// memory traffic to the machine through ctx, with the real algorithm run
// on the side so the output is verifiable. Workloads are what the guest
// uC/OS-II tasks execute between hardware-task requests (§V-B: "Each VM
// is assigned with a virtualized uC/OS-II, which is executing heavy
// workload tasks, for example, GSM encoding, or ADPCM compression").
//
// The codec workloads do not encode an input cycle again once a whole
// cycle has started and ended in the same codec state: they replay it
// exactly (see cycleReplay). Output and the codec state after every Step
// are what the encoder would produce, and the charges do not change.
type Workload interface {
	// Step runs one work unit against ctx; bufVA is the VA of the
	// workload's working buffer inside the guest.
	Step(ctx *cpu.ExecContext, bufVA uint32)
	// Output returns a digest of processed bytes (tests verify progress).
	Output() uint64
}

// NewWorkloadByName builds a workload from a spec string — the factory
// declarative harnesses use to wire guest computations from
// configuration. Known names: "gsm", "adpcm", "memhog". ok is false for
// anything else (including ""), so callers can treat absence as "no
// workload".
func NewWorkloadByName(name string, seed uint32) (Workload, bool) {
	switch name {
	case "gsm":
		return NewGSMWorkload(1, seed), true
	case "adpcm":
		return NewADPCMWorkload(1, seed), true
	case "memhog":
		return NewMemoryHogWorkload(256 << 10), true
	}
	return nil, false
}

// CodecWorkload encodes synthetic audio one fixed-size step at a time
// (a GSM frame, an ADPCM block) with a stateful codec whose inter-step
// state is S.
type CodecWorkload[S comparable] struct {
	codec  *codec[S]
	st     S
	input  []int16
	pos    int
	steps  uint64
	digest uint64
	enc    []byte // scratch: one encoded step, reused across Steps
	rep    cycleReplay[S]
}

// codec is what a CodecWorkload knows of one encoder.
type codec[S comparable] struct {
	samples int // input samples per step
	encoded int // encoded bytes per step
	// bursts are the instructions charged per step, one Exec each: a
	// burst's fetch charge depends on its length, so summing them would
	// change what a step costs.
	bursts []int
	encode func(st *S, pcm []int16, dst []byte) []byte
}

// codecSpan is the charged working-set size of a codec workload: the
// input stream advances circularly through [bufVA, bufVA+codecSpan) and
// the output through the quarter span after it, so a running workload
// genuinely churns the cache hierarchy (64 KB of live buffering, a
// realistic footprint for a codec pipeline's buffers).
const codecSpan = 64 << 10

var gsmCodec = codec[GSMState]{
	samples: GSMFrameSamples,
	encoded: GSMEncodedBytes,
	// ~5.5k instructions of MACs: preprocess + autocorrelation (~9×160),
	// Schur + LAR (8²), short-term filtering (8×160), RPE selection +
	// packing.
	bursts: []int{1600, 900, 2200, 800},
	encode: AppendGSMFrame,
}

var adpcmCodec = codec[ADPCMState]{
	samples: ADPCMBlockSamples,
	encoded: ADPCMBlockSamples / 2,
	bursts:  []int{ADPCMBlockSamples * 8}, // ~8 instructions per sample + table lookups
	encode:  AppendADPCM,
}

// ADPCMBlockSamples is the per-step block size.
const ADPCMBlockSamples = 512

// NewGSMWorkload prepares the given number of seconds of synthetic speech,
// encoded one 160-sample frame per Step.
func NewGSMWorkload(seconds int, seed uint32) *CodecWorkload[GSMState] {
	return newCodecWorkload(&gsmCodec, SyntheticSpeech(seconds*8000, seed))
}

// NewADPCMWorkload prepares n seconds of synthetic audio, compressed one
// 512-sample (1 KB) block per Step.
func NewADPCMWorkload(seconds int, seed uint32) *CodecWorkload[ADPCMState] {
	return newCodecWorkload(&adpcmCodec, SyntheticSpeech(seconds*8000, seed^0xA5A5))
}

func newCodecWorkload[S comparable](c *codec[S], input []int16) *CodecWorkload[S] {
	return &CodecWorkload[S]{codec: c, input: input, rep: cycleReplay[S]{mul: pow131(c.encoded)}}
}

// Step implements Workload: one step of the codec. The charged traffic
// mirrors the algorithm: a streaming read of the step's samples (int16) at
// their position in the circular input buffer, the codec's instruction
// bursts, and a streaming write of the encoded bytes at the moving output
// cursor. The charged cursors run on the step counter, so they sweep the
// whole span even though the synthetic source signal is shorter.
func (w *CodecWorkload[S]) Step(ctx *cpu.ExecContext, bufVA uint32) {
	c := w.codec
	if w.pos+c.samples > len(w.input) {
		w.pos = 0
	}
	pcm := w.input[w.pos : w.pos+c.samples]
	w.digest = w.rep.step(w.pos/c.samples, &w.st, w.digest, func(st *S) []byte {
		w.enc = c.encode(st, pcm, w.enc[:0])
		return w.enc
	})
	w.pos += c.samples
	w.steps++

	inOff := uint32(w.steps*uint64(c.samples)*2) % codecSpan
	ctx.StreamRange(bufVA+inOff, uint32(c.samples)*2, 8, false)
	for _, n := range c.bursts {
		ctx.Exec(n)
	}
	outOff := uint32(w.steps*uint64(c.encoded)) % (codecSpan / 4)
	ctx.StreamRange(bufVA+codecSpan+outOff, uint32(c.encoded), 8, true)
}

// Output implements Workload.
func (w *CodecWorkload[S]) Output() uint64 { return w.digest }

// Steps returns the number of encoded steps (frames or blocks).
func (w *CodecWorkload[S]) Steps() uint64 { return w.steps }

// cycleReplay skips codec work whose output provably repeats. A codec
// workload's input is a fixed buffer that Step wraps to its start after a
// fixed number of steps, so the codec state at one wrap is a pure function
// of the state at the previous wrap. Once a cycle ends in the state it
// started from, every later cycle encodes exactly the bytes of that cycle.
// From then on a step restores the codec state recorded after it and folds
// its recorded frame hash into the digest instead of running the encoder.
// Nothing the workload exposes or charges changes. The zero value of S is
// the start state of the first cycle, which is where the workloads' codec
// state starts.
type cycleReplay[S comparable] struct {
	start  S               // codec state at the start of the recorded cycle
	steps  []replayStep[S] // the recorded cycle, one entry per step
	mul    uint64          // 131^n for n encoded bytes per step
	replay bool            // the recorded cycle ends in its start state
	off    bool            // always run the encoder (tests)
}

// replayStep is one recorded step: the hash of its encoded bytes and the
// codec state after it.
type replayStep[S comparable] struct {
	h  uint64
	st S
}

// pow131 returns 131^n mod 2^64: folding n bytes into a digest one at a
// time (d = d*131 + b) multiplies the old digest by it.
func pow131(n int) uint64 {
	m := uint64(1)
	for range n {
		m *= 131
	}
	return m
}

// step advances the codec in st by step i of the input cycle (i is 0 at
// every wrap) and returns digest with the step's encoded bytes folded in.
// encode runs the encoder on st and returns the bytes it encoded.
func (r *cycleReplay[S]) step(i int, st *S, digest uint64, encode func(*S) []byte) uint64 {
	if i == 0 && len(r.steps) > 0 && !r.replay {
		if *st == r.start && !r.off {
			r.replay = true
		} else {
			r.start, r.steps = *st, r.steps[:0]
		}
	}
	if r.replay {
		s := &r.steps[i]
		*st = s.st
		return digest*r.mul + s.h
	}
	var h uint64
	for _, b := range encode(st) {
		h = h*131 + uint64(b)
	}
	r.steps = append(r.steps, replayStep[S]{h, *st})
	return digest*r.mul + h
}

// MemoryHogWorkload streams a large buffer to pressure the cache
// hierarchy — used by ablation benches to emulate cache-hostile guests.
type MemoryHogWorkload struct {
	size   uint32
	offset uint32
	passes uint64
}

// NewMemoryHogWorkload streams size bytes per pass.
func NewMemoryHogWorkload(size uint32) *MemoryHogWorkload {
	return &MemoryHogWorkload{size: size}
}

// Step implements Workload: one 8 KB pass per call, 64-byte stride.
func (w *MemoryHogWorkload) Step(ctx *cpu.ExecContext, bufVA uint32) {
	chunk := uint32(8 << 10)
	ctx.StreamRange(bufVA+w.offset, chunk, 64, w.passes%2 == 1)
	ctx.Exec(256)
	w.offset += chunk
	if w.offset >= w.size {
		w.offset = 0
		w.passes++
	}
}

// Output implements Workload.
func (w *MemoryHogWorkload) Output() uint64 { return w.passes }
