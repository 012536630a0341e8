package physmem

import (
	"fmt"
	"sync"
)

// Copy-on-write frame sharing. A checkpoint image pins the frames of a
// quiesced guest; each clone forked from the image takes one reference
// per mapped frame. Writes through a clone's read-only mapping break the
// share: the kernel copies the frame into the clone's private arena and
// drops the reference here. A pinned frame is never freed while the
// image exists, however many clones come and go; an unpinned frame is
// reclaimed when its last reference drops.
//
// The refcount table is shared by every core (parallel runs break COW
// concurrently on different clones), so it is mutex-guarded — unlike the
// frame table itself, whose safety argument at frame() (disjoint per-PD
// regions) still holds: shared frames are materialized before any clone
// can read them, and no one writes them.
//
// Like the frame table, the refcounts are indexed by frame number
// (frameNum: DDR, then OCM), in two levels: a table of 1 MB chunks, each
// allocated the first time one of its frames is pinned or shared. The
// chunk table itself is built on the first pin or share, so buses that
// never checkpoint pay nothing. A fork shares whole regions, so one lock
// covers a region's refcounts.

// frameRef is the sharing state of one 4 KB frame.
type frameRef struct {
	refs   int32
	pinned bool
}

// cowChunkFrames is the number of frames in one 1 MB chunk; cowChunks
// chunks cover every RAM frame.
const (
	cowChunkFrames = 1 << (20 - FrameShift)
	cowChunks      = (ramFrames + cowChunkFrames - 1) / cowChunkFrames
)

// cowChunk is the sharing state of one 1 MB chunk of frames.
type cowChunk [cowChunkFrames]frameRef

// cowTable holds a bus's refcounts.
type cowTable struct {
	mu     sync.Mutex
	chunks []*cowChunk // cowChunks entries once built
}

// ref returns frame n's sharing state, allocating its chunk when alloc
// is set; without alloc it is nil for a chunk never pinned or shared.
// Caller holds t.mu.
func (t *cowTable) ref(n int, alloc bool) *frameRef {
	if t.chunks == nil {
		if !alloc {
			return nil
		}
		t.chunks = make([]*cowChunk, cowChunks)
	}
	c := t.chunks[n/cowChunkFrames]
	if c == nil {
		if !alloc {
			return nil
		}
		c = new(cowChunk)
		t.chunks[n/cowChunkFrames] = c
	}
	return &c[n%cowChunkFrames]
}

// lookup returns the sharing state of the frame containing a, or nil
// when a is not RAM or its frame was never pinned or shared. Caller
// holds t.mu.
func (t *cowTable) lookup(a Addr) *frameRef {
	if !isRAM(a) {
		return nil
	}
	return t.ref(frameNum(a), false)
}

// frameBase rounds a down to its frame base address.
func frameBase(a Addr) Addr { return a &^ (FrameSize - 1) }

// Materialize fills the frame slot of a RAM address (with the shared zero
// frame if no one has written the frame), so later concurrent readers
// never race the lazy slot store in frame().
func (b *Bus) Materialize(a Addr) {
	if !isRAM(a) {
		panic(fmt.Sprintf("physmem: materialize of non-RAM address %#08x", uint32(a)))
	}
	b.frame(a)
}

// Pin marks the frame containing a as image-owned: it is materialized
// immediately and survives until Unpin, regardless of the refcount.
func (b *Bus) Pin(a Addr) {
	b.Materialize(a)
	b.cow.mu.Lock()
	defer b.cow.mu.Unlock()
	b.cow.ref(frameNum(a), true).pinned = true
}

// Unpin releases the image's hold on the frame. If no clone references
// remain the frame is reclaimed.
func (b *Bus) Unpin(a Addr) {
	t := &b.cow
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.lookup(a)
	if r == nil || !r.pinned {
		panic(fmt.Sprintf("physmem: unpin of unpinned frame %#08x", uint32(frameBase(a))))
	}
	r.pinned = false
	if r.refs == 0 {
		b.reclaim(frameNum(a))
	}
}

// ShareRange takes one clone reference on each of the n frames starting
// with the one containing a, which must lie in one RAM region. The frames
// are materialized first, then one lock covers all n refcounts.
func (b *Bus) ShareRange(a Addr, n int) {
	a = frameBase(a)
	if !isRAM(a) || uint64(a)+uint64(n)<<FrameShift > ramEnd(a) {
		panic(fmt.Sprintf("physmem: share of %d frames at %#08x leaves RAM", n, uint32(a)))
	}
	first := frameNum(a)
	frames := b.frames[first : first+n]
	var fresh int64
	for i, f := range frames {
		if f == nil {
			frames[i] = &zeroFrame
			fresh++
		}
	}
	b.touched.Add(fresh)
	t := &b.cow
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := first; i < first+n; i++ {
		t.ref(i, true).refs++
	}
}

// Release drops one clone reference and returns the remaining count. The
// frame is reclaimed when the count reaches zero and no image pins it.
func (b *Bus) Release(a Addr) int {
	t := &b.cow
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.lookup(a)
	if r == nil || r.refs == 0 {
		panic(fmt.Sprintf("physmem: release of unshared frame %#08x", uint32(frameBase(a))))
	}
	r.refs--
	if r.refs == 0 && !r.pinned {
		b.reclaim(frameNum(a))
	}
	return int(r.refs)
}

// Refs returns the clone reference count on the frame containing a.
func (b *Bus) Refs(a Addr) int {
	b.cow.mu.Lock()
	defer b.cow.mu.Unlock()
	if r := b.cow.lookup(a); r != nil {
		return int(r.refs)
	}
	return 0
}

// Pinned reports whether an image pins the frame containing a.
func (b *Bus) Pinned(a Addr) bool {
	b.cow.mu.Lock()
	defer b.cow.mu.Unlock()
	if r := b.cow.lookup(a); r != nil {
		return r.pinned
	}
	return false
}

// Allocated reports whether the frame containing a is materialized, on a
// private buffer or on the shared zero frame (reclaimed and never-touched
// frames read as zero once materialized again).
func (b *Bus) Allocated(a Addr) bool {
	return isRAM(a) && b.frames[frameNum(a)] != nil
}

// reclaim drops frame n's backing buffer; its sharing state is already
// zero. Caller holds the cow table lock.
func (b *Bus) reclaim(n int) {
	if b.frames[n] != nil {
		b.frames[n] = nil
		b.touched.Add(-1)
	}
	if b.shared != nil {
		b.shared[n] = false
	}
}

// CopyFrame copies the 4 KB frame at src over the frame at dst (both
// frame-aligned RAM addresses). This is the COW break's data move; the
// caller charges its simulated cost. A src no one has written moves no
// bytes: dst goes back to the shared zero frame.
func (b *Bus) CopyFrame(dst, src Addr) {
	if dst&(FrameSize-1) != 0 || src&(FrameSize-1) != 0 {
		panic(fmt.Sprintf("physmem: unaligned frame copy %#08x <- %#08x", uint32(dst), uint32(src)))
	}
	if s := b.frame(src); s != &zeroFrame {
		*b.frameW(frameNum(dst)) = *s
		return
	}
	b.setFrame(frameNum(dst), &zeroFrame, false)
}

// SnapshotFrame returns a copy of the frame's current contents (used by
// in-place checkpoint images, which own their bytes).
func (b *Bus) SnapshotFrame(a Addr) []byte {
	out := make([]byte, FrameSize)
	copy(out, b.frame(frameBase(a))[:])
	return out
}

// LoadFrame overwrites the frame at a with p (at most one frame).
func (b *Bus) LoadFrame(a Addr, p []byte) {
	if len(p) > FrameSize {
		panic("physmem: LoadFrame payload exceeds a frame")
	}
	copy(b.frameW(frameNum(a))[:], p)
}
