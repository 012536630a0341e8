package physmem

import "fmt"

// Frame-granular operations of the kernel's copy-on-write fork and of
// checkpoint images. A checkpoint materializes the frames of a quiesced
// guest; each clone forked from the image maps them read-only, and a
// write through such a mapping makes the kernel copy the frame into the
// clone's private arena (CopyFrame). The bus keeps no record of who
// shares a frame: an image and its frames live as long as the kernel,
// and each clone counts the frames it still shares itself.
//
// Materializing every image frame before any fork is what lets parallel
// runs break COW concurrently on different clones: a clone only ever
// reads an image frame, and a materialized frame's slot is never stored
// again by a reader (see frame()).

// Materialize fills the frame slot of a RAM address (with the shared zero
// frame if no one has written the frame), so later concurrent readers
// never race the lazy slot store in frame().
func (b *Bus) Materialize(a Addr) {
	if !isRAM(a) {
		panic(fmt.Sprintf("physmem: materialize of non-RAM address %#08x", uint32(a)))
	}
	b.cover(a, 1)
	b.frame(a)
}

// Allocated reports whether the frame containing a is materialized, on a
// private buffer or on a shared one, the zero frame included.
func (b *Bus) Allocated(a Addr) bool {
	return isRAM(a) && b.peek(frameNum(a)) != nil
}

// CopyFrame copies the 4 KB frame at src over the frame at dst (both
// frame-aligned RAM addresses). This is the COW break's data move; the
// caller charges its simulated cost. A src no one has written moves no
// bytes: dst goes back to the shared zero frame.
func (b *Bus) CopyFrame(dst, src Addr) {
	if dst&(FrameSize-1) != 0 || src&(FrameSize-1) != 0 {
		panic(fmt.Sprintf("physmem: unaligned frame copy %#08x <- %#08x", uint32(dst), uint32(src)))
	}
	b.cover(src, 1)
	b.cover(dst, 1)
	if s := b.frame(src); s != &zeroFrame {
		*b.frameW(frameNum(dst)) = *s
		return
	}
	b.setFrame(frameNum(dst), &zeroFrame, false)
}
