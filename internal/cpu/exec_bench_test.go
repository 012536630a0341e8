package cpu

import "testing"

// kernelCodeSize is the kernel's text footprint (nova.KernelCodeSize,
// which this package cannot import): 40 KB, more than the 32 KB L1I.
const kernelCodeSize = 40 << 10

// BenchmarkMemoryPath isolates the memory-path engine from the rest of the
// system over a live MMU/TLB/cache stack, batched vs scalar. This is the
// engine's own speedup, free of the kernel, scheduler and codec work that
// the full-system benchmark (BenchmarkSimThroughput at the repo root)
// also times. Two shapes:
//
//   - task: one GSM-ish guest step, streaming data passes and instruction
//     issue over an 8 KB code range, the size the experiment systems give
//     a guest task. It fits the 32 KB L1I, which is what lets the batched
//     engine's residency proof engage, the regime the Table III workload
//     tasks run in;
//   - kernel: ten Exec calls of 40–48 instructions over the kernel's 40 KB
//     code range, about the fetch traffic of one ipc_pingpong portal round
//     trip. The range does not fit the L1I, so about 40% of the fetches
//     miss and no residency proof holds.
func BenchmarkMemoryPath(b *testing.B) {
	shapes := []struct {
		name     string
		codeSize uint32
		op       func(ctx *ExecContext, i int)
	}{
		{"task", 8 << 10, func(ctx *ExecContext, i int) {
			// One GSM-ish step: stream in, crunch, stream out.
			ctx.StreamRange(equivDataVA+uint32(i%32)*1024, 8<<10, 8, false)
			ctx.Exec(5500)
			ctx.StreamRange(equivDataVA+40<<10, 2<<10, 8, true)
		}},
		{"kernel", kernelCodeSize, func(ctx *ExecContext, i int) {
			for j := range 10 {
				ctx.Exec(40 + (i+j)%9)
			}
		}},
	}
	for _, shape := range shapes {
		for _, scalar := range []bool{false, true} {
			name := shape.name + "/batched"
			if scalar {
				name = shape.name + "/scalar"
			}
			b.Run(name, func(b *testing.B) {
				r := newEquivRig(scalar)
				ctx := NewExecContext(r.cpu, shape.name, equivCodeVA, shape.codeSize)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					shape.op(ctx, i)
				}
				b.ReportMetric(float64(r.clock.Now())/float64(b.N), "sim_cycles/op")
			})
		}
	}
}
