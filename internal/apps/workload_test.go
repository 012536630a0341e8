package apps

import (
	"fmt"
	"math/big"
	"testing"

	"repro/internal/cpu"
	"repro/internal/gic"
	"repro/internal/physmem"
	"repro/internal/simclock"
)

// testBufVA is the working-buffer address the tests pass to Step; with
// the MMU off it is charged as a physical address.
const testBufVA = 0x10_0000

// testCtx returns an MMU-off execution context on a bare CPU, enough for
// Step's charges.
func testCtx() *cpu.ExecContext {
	c := cpu.New(simclock.New(), physmem.NewBus(), gic.New())
	c.MMU.Enabled = false
	return cpu.NewExecContext(c, "workload", 0x1_0000, 32<<10)
}

// fold is the byte-at-a-time digest the workloads define.
func fold(digest uint64, bytes []byte) uint64 {
	for _, b := range bytes {
		digest = digest*131 + uint64(b)
	}
	return digest
}

// Replay is exact: each codec workload, run with replay and with the
// encoder forced on every step, must hold the same digest and the same
// codec state after every Step, for 20 cycles past the fixed point.
func TestCycleReplayMatchesEncoder(t *testing.T) {
	for _, seconds := range []int{1, 2} {
		for _, seed := range []uint32{0, 1, 2, 3, 0xdeadbeef} {
			name := fmt.Sprintf("%ds/seed%#x", seconds, seed)
			t.Run("gsm/"+name, func(t *testing.T) {
				a, b := NewGSMWorkload(seconds, seed), NewGSMWorkload(seconds, seed)
				b.rep.off = true
				checkReplay(t, a, b, &a.rep, &b.rep, &a.st, &b.st, len(a.input)/GSMFrameSamples)
			})
			t.Run("adpcm/"+name, func(t *testing.T) {
				a, b := NewADPCMWorkload(seconds, seed), NewADPCMWorkload(seconds, seed)
				b.rep.off = true
				checkReplay(t, a, b, &a.rep, &b.rep, &a.st, &b.st, len(a.input)/ADPCMBlockSamples)
			})
		}
	}
}

// checkReplay steps a (replay on) and b (replay off) in lockstep, cycle
// steps per input cycle, until a has replayed 20 whole cycles.
func checkReplay[S comparable](t *testing.T, a, b Workload, ra, rb *cycleReplay[S], sa, sb *S, cycle int) {
	t.Helper()
	const pastFixedPoint, maxCycles = 20, 64
	ctxA, ctxB := testCtx(), testCtx()
	engaged := -1
	for n := 0; n < maxCycles*cycle; n++ {
		a.Step(ctxA, testBufVA)
		b.Step(ctxB, testBufVA)
		if a.Output() != b.Output() {
			t.Fatalf("step %d: digest %016x, encoder's %016x", n, a.Output(), b.Output())
		}
		if *sa != *sb {
			t.Fatalf("step %d: codec state %+v, encoder's %+v", n, *sa, *sb)
		}
		if engaged < 0 && ra.replay {
			engaged = n
		}
		if engaged >= 0 && n-engaged+1 >= pastFixedPoint*cycle {
			if rb.replay {
				t.Fatal("replay engaged with the encoder forced on")
			}
			t.Logf("replay engaged from cycle %d on (counting from 0)", engaged/cycle)
			return
		}
	}
	if engaged < 0 {
		t.Fatalf("replay never engaged in %d cycles", maxCycles)
	}
	t.Fatalf("only %d steps replayed in %d cycles", maxCycles*cycle-engaged, maxCycles)
}

// A codec whose wrap state never repeats is never replayed, and its
// digest is the byte-at-a-time fold of everything it encoded. A codec
// whose state settles is replayed, and its digest is the fold of what a
// plain encoder produces.
func TestCycleReplayToyCodecs(t *testing.T) {
	const cycle, n = 7, 5
	// encode derives n bytes from the state and step; next is the state
	// after the step.
	encode := func(dst []byte, st uint32, i int) []byte {
		for j := range dst {
			dst[j] = byte(st*2654435761>>uint(8*(j%4))) ^ byte(i*37+j)
		}
		return dst
	}
	for _, tc := range []struct {
		name   string
		next   func(st uint32) uint32
		replay bool
	}{
		{"counting", func(st uint32) uint32 { return st + 1 }, false},
		{"settling", func(st uint32) uint32 { return min(st+1, 3*cycle) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := cycleReplay[uint32]{mul: pow131(n)}
			var st, plainSt uint32
			var digest, want uint64
			enc, plain := make([]byte, n), make([]byte, n)
			for k := 0; k < 100*cycle; k++ {
				i := k % cycle
				digest = r.step(i, &st, digest, func(st *uint32) []byte {
					encode(enc, *st, i)
					*st = tc.next(*st)
					return enc
				})
				want = fold(want, encode(plain, plainSt, i))
				plainSt = tc.next(plainSt)
				if digest != want || st != plainSt {
					t.Fatalf("step %d: digest %016x state %d, plain encoder %016x state %d",
						k, digest, st, want, plainSt)
				}
			}
			if r.replay != tc.replay {
				t.Errorf("replay engaged = %v, want %v", r.replay, tc.replay)
			}
		})
	}
}

// The digest multiplier is 131^n for each codec's encoded frame size, and
// two Steps fold exactly the two encoded frames into the digest.
func TestCycleReplayMultiplier(t *testing.T) {
	pow := func(n int) uint64 {
		mod := new(big.Int).Lsh(big.NewInt(1), 64)
		return new(big.Int).Exp(big.NewInt(131), big.NewInt(int64(n)), mod).Uint64()
	}

	g := NewGSMWorkload(1, 1)
	if want := pow(GSMEncodedBytes); g.rep.mul != want {
		t.Errorf("GSM mul = %d, want 131^%d = %d", g.rep.mul, GSMEncodedBytes, want)
	}
	var gst GSMState
	want := fold(0, EncodeGSMFrame(&gst, g.input[:GSMFrameSamples]))
	want = fold(want, EncodeGSMFrame(&gst, g.input[GSMFrameSamples:2*GSMFrameSamples]))
	ctx := testCtx()
	g.Step(ctx, testBufVA)
	g.Step(ctx, testBufVA)
	if g.Output() != want {
		t.Errorf("GSM digest after two frames = %016x, byte fold %016x", g.Output(), want)
	}

	a := NewADPCMWorkload(1, 1)
	if want := pow(ADPCMBlockSamples / 2); a.rep.mul != want {
		t.Errorf("ADPCM mul = %d, want 131^%d = %d", a.rep.mul, ADPCMBlockSamples/2, want)
	}
	var ast ADPCMState
	want = fold(0, EncodeADPCM(&ast, a.input[:ADPCMBlockSamples]))
	want = fold(want, EncodeADPCM(&ast, a.input[ADPCMBlockSamples:2*ADPCMBlockSamples]))
	a.Step(ctx, testBufVA)
	a.Step(ctx, testBufVA)
	if a.Output() != want {
		t.Errorf("ADPCM digest after two blocks = %016x, byte fold %016x", a.Output(), want)
	}
}

// BenchmarkWorkloadStep times one Step of each codec workload past its
// fixed point: replayed, and with the encoder forced on.
func BenchmarkWorkloadStep(b *testing.B) {
	codecs := []struct {
		name string
		// build returns the same workload with replay on and off, and
		// whether the first has engaged replay.
		build func() (replay, encode Workload, engaged func() bool)
	}{
		{"gsm", func() (Workload, Workload, func() bool) {
			r, e := NewGSMWorkload(1, 1), NewGSMWorkload(1, 1)
			e.rep.off = true
			return r, e, func() bool { return r.rep.replay }
		}},
		{"adpcm", func() (Workload, Workload, func() bool) {
			r, e := NewADPCMWorkload(1, 1), NewADPCMWorkload(1, 1)
			e.rep.off = true
			return r, e, func() bool { return r.rep.replay }
		}},
	}
	for _, c := range codecs {
		for _, mode := range []string{"replay", "encode"} {
			b.Run(c.name+"/"+mode, func(b *testing.B) {
				r, e, engaged := c.build()
				ctx := testCtx()
				for !engaged() {
					r.Step(ctx, testBufVA)
					e.Step(ctx, testBufVA)
				}
				w := r
				if mode == "encode" {
					w = e
				}
				for b.Loop() {
					w.Step(ctx, testBufVA)
				}
			})
		}
	}
}
