package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// This file decodes the gzipped profile.proto that runtime/pprof writes
// and files every CPU sample under one layer of the simulator. It uses
// only the standard library: the repository takes no dependencies.

// frame is one resolved stack frame.
type frame struct {
	fn   string // fully qualified function name
	file string // source file path as the binary recorded it
}

// profSample is one stack (leaf first) and how many times it was hit.
type profSample struct {
	stack []frame
	count int64
}

// Field numbers of the profile.proto messages the decoder reads.
const (
	profSampleField   = 2
	profLocationField = 4
	profFunctionField = 5
	profStringField   = 6

	sampleLocationField = 1
	sampleValueField    = 2

	locationIDField   = 1
	locationLineField = 4
	lineFunctionField = 1

	functionIDField   = 1
	functionNameField = 2
	functionFileField = 4
)

// decodeProfile parses a (possibly gzipped) CPU profile into resolved
// samples. The count of a sample is its first value (samples/count).
func decodeProfile(data []byte) ([]profSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs, values []uint64
	}
	type rawFunc struct{ name, file uint64 }
	var (
		strs    []string
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]rawFunc{}
	)
	top := pbReader{b: data}
	for top.next() {
		switch top.field {
		case profSampleField:
			var s rawSample
			m := top.message()
			for m.next() {
				switch m.field {
				case sampleLocationField:
					s.locs = m.appendUints(s.locs)
				case sampleValueField:
					s.values = m.appendUints(s.values)
				default:
					m.skip()
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			samples = append(samples, s)
		case profLocationField:
			var id uint64
			var fns []uint64
			m := top.message()
			for m.next() {
				switch m.field {
				case locationIDField:
					id = m.uint()
				case locationLineField:
					l := m.message()
					for l.next() {
						if l.field == lineFunctionField {
							fns = append(fns, l.uint())
						} else {
							l.skip()
						}
					}
					if l.err != nil {
						return nil, l.err
					}
				default:
					m.skip()
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			locs[id] = fns
		case profFunctionField:
			var id uint64
			var f rawFunc
			m := top.message()
			for m.next() {
				switch m.field {
				case functionIDField:
					id = m.uint()
				case functionNameField:
					f.name = m.uint()
				case functionFileField:
					f.file = m.uint()
				default:
					m.skip()
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			funcs[id] = f
		case profStringField:
			strs = append(strs, string(top.bytes()))
		default:
			top.skip()
		}
	}
	if top.err != nil {
		return nil, top.err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{}
		if len(s.values) > 0 {
			ps.count = int64(s.values[0])
		}
		for _, id := range s.locs {
			for _, fid := range locs[id] {
				f := funcs[fid]
				ps.stack = append(ps.stack, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// pbReader walks the fields of one protobuf message.
type pbReader struct {
	b     []byte
	field int
	wire  int
	err   error
}

var errTruncated = errors.New("profile: truncated protobuf")

func (r *pbReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.fail(errTruncated)
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.fail(errors.New("profile: varint overflow"))
	return 0
}

func (r *pbReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// next advances to the next field; false at the end or on error.
func (r *pbReader) next() bool {
	if r.err != nil || len(r.b) == 0 {
		return false
	}
	key := r.varint()
	r.field, r.wire = int(key>>3), int(key&7)
	return r.err == nil
}

// bytes returns a length-delimited field's payload.
func (r *pbReader) bytes() []byte {
	if r.wire != 2 {
		r.fail(fmt.Errorf("profile: field %d has wire type %d, want 2", r.field, r.wire))
		return nil
	}
	n := r.varint()
	if n > uint64(len(r.b)) {
		r.fail(errTruncated)
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *pbReader) message() pbReader {
	b := r.bytes()
	return pbReader{b: b, err: r.err}
}

// uint reads a scalar varint field.
func (r *pbReader) uint() uint64 {
	if r.wire != 0 {
		r.fail(fmt.Errorf("profile: field %d has wire type %d, want 0", r.field, r.wire))
		return 0
	}
	return r.varint()
}

// appendUints reads a repeated varint field in either encoding: one
// value per field (wire type 0) or packed (wire type 2). runtime/pprof
// writes both, depending on the list length.
func (r *pbReader) appendUints(dst []uint64) []uint64 {
	if r.wire == 0 {
		return append(dst, r.varint())
	}
	p := pbReader{b: r.bytes()}
	for len(p.b) > 0 && p.err == nil {
		dst = append(dst, p.varint())
	}
	if p.err != nil {
		r.fail(p.err)
	}
	return dst
}

func (r *pbReader) skip() {
	switch r.wire {
	case 0:
		r.varint()
	case 1, 5:
		n := 8
		if r.wire == 5 {
			n = 4
		}
		if len(r.b) < n {
			r.fail(errTruncated)
			return
		}
		r.b = r.b[n:]
	case 2:
		r.bytes()
	default:
		r.fail(fmt.Errorf("profile: unsupported wire type %d", r.wire))
	}
}

// Layer attribution.

// gcFrames mark allocation and collector work: a sample whose stack
// holds one of them is the gc layer's, whichever layer allocated.
var gcFrames = []string{
	"runtime.mallocgc", "runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.sweepone", "runtime.wbBufFlush", "runtime._GC",
}

// handoffFrames mark goroutine handoff: channel and select operations,
// parking and readying, the scheduler, goroutine creation and stack
// growth. The kernel hands each core between its loop and the guest
// goroutines this way, so this is the simulator's synchronisation cost.
var handoffFrames = []string{
	"runtime.chansend", "runtime.chanrecv", "runtime.closechan", "runtime.selectgo",
	"runtime.gopark", "runtime.park_m", "runtime.goready",
	"runtime.ready", "runtime.mcall", "runtime.schedule", "runtime.findRunnable",
	"runtime.gosched_m", "runtime.goexit0", "runtime.mstart", "runtime.stopm",
	"runtime.startm", "runtime.wakep", "runtime.newproc", "runtime.morestack",
	"runtime.newstack", "runtime.copystack", "runtime.semacquire", "runtime.semrelease",
	"runtime.notesleep", "runtime.notewakeup", "sync.(*WaitGroup)", "sync.runtime_Sem",
}

// novaFileLayers splits the kernel package by source file; files not
// listed are nova.core.
var novaFileLayers = map[string]string{
	"epoch.go":     "nova.epoch",
	"hypercall.go": "nova.hypercall",
	"portals.go":   "nova.hypercall",
	"qos.go":       "nova.hypercall",
	"clone.go":     "nova.clone",
	"vgic.go":      "nova.vgic",
}

const internalPrefix = "repro/internal/"

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// layerOf files one stack (leaf first) under a layer: gc if any frame
// allocates or collects, handoff if any frame hands a goroutine off,
// else the innermost repro/internal package (nova split by file), else
// other.
func layerOf(stack []frame) string {
	for _, f := range stack {
		if hasAnyPrefix(f.fn, gcFrames) {
			return "gc"
		}
	}
	for _, f := range stack {
		if hasAnyPrefix(f.fn, handoffFrames) {
			return "handoff"
		}
	}
	for _, f := range stack {
		rest, ok := strings.CutPrefix(f.fn, internalPrefix)
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		if pkg != "nova" {
			return pkg
		}
		if l, ok := novaFileLayers[path.Base(f.file)]; ok {
			return l
		}
		return "nova.core"
	}
	return "other"
}

// layerCounts totals sample counts per layer.
func layerCounts(samples []profSample, into map[string]int64) {
	for _, s := range samples {
		into[layerOf(s.stack)] += s.count
	}
}
