package cpu

import "testing"

// BenchmarkMemoryPath isolates the memory-path engine from the rest of the
// system: a workload-shaped mix of streaming data passes and instruction
// issue over a live MMU/TLB/cache stack, batched vs scalar. This is the
// engine's own speedup, free of the kernel, scheduler and codec work that
// the full-system benchmark (BenchmarkSimThroughput at the repo root)
// also times.
func BenchmarkMemoryPath(b *testing.B) {
	for _, scalar := range []bool{false, true} {
		name := "batched"
		if scalar {
			name = "scalar"
		}
		b.Run(name, func(b *testing.B) {
			r := newEquivRig(scalar)
			// A guest-task-sized code range (8 KB, as the experiment
			// systems configure): it fits the 32 KB L1I, which is what
			// lets the batched engine's residency proof engage — the same
			// regime the Table III workload tasks run in.
			ctx := NewExecContext(r.cpu, "task", equivCodeVA, 8<<10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// One GSM-ish step: stream in, crunch, stream out.
				ctx.StreamRange(equivDataVA+uint32(i%32)*1024, 8<<10, 8, false)
				ctx.Exec(5500)
				ctx.StreamRange(equivDataVA+40<<10, 2<<10, 8, true)
			}
			b.ReportMetric(float64(r.clock.Now())/float64(b.N), "sim_cycles/op")
		})
	}
}
