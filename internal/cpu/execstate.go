package cpu

// ExecState is the part of an ExecContext that a checkpoint captures:
// the fetch cursor, the micro-TLBs, the I-side residency streak and
// Stalled. All of it feeds future cycle charges, so a mid-run checkpoint
// that wants the restored timeline byte-identical to the uninterrupted
// one copies it whole, ctx.ExecState in one assignment each way. Only
// Stalled is exported; the checkpoint image carries the rest opaquely.
// A copy is only meaningful on the CPU it was taken on: micro entries are
// tagged with that CPU's translation generation, and on any other CPU
// they read as stale and refill, which is the safe direction.
type ExecState struct {
	cursor uint32 // byte offset of the next fetch within the code range

	gen    uint64 // CPU generation the micro-TLBs were filled under
	iMicro microEntry
	dMicro [microTLBSize]microEntry
	dNext  int

	// I-side residency streak: iClean counts consecutive zero-miss fetch
	// bytes observed while the L1I's residency epoch stayed at iEpoch.
	// Once it reaches CodeSize, every line of the (32-byte-multiple) code
	// range is proven resident and fetch probes are guaranteed hits until
	// the epoch moves — the batched Exec bulk-charges them (see Exec).
	iEpoch uint64
	iClean uint32

	// Stalled is set when an unrecovered abort occurred; the owner (VM or
	// kernel) decides what to do with a stalled context.
	Stalled bool
}
