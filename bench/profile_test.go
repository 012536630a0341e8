package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func fr(fn string, file ...string) frame {
	f := frame{fn: fn}
	if len(file) > 0 {
		f.file = file[0]
	}
	return f
}

func TestLayerOf(t *testing.T) {
	const src = "/src/repro/internal/"
	cases := []struct {
		name  string
		stack []frame // leaf first
		want  string
	}{
		{"mallocgc under physmem is gc", []frame{
			fr("runtime.mallocgc"), fr("runtime.newobject"),
			fr("repro/internal/physmem.(*Bus).frame", src+"physmem/physmem.go"),
		}, "gc"},
		{"memmove under physmem is physmem", []frame{
			fr("runtime.memmove"),
			fr("repro/internal/physmem.(*Bus).CopyFrame", src+"physmem/cow.go"),
			fr("repro/internal/nova.(*Kernel).cowBreak", src+"nova/clone.go"),
		}, "physmem"},
		{"selectgo under nova.yield is handoff", []frame{
			fr("runtime.selectgo"),
			fr("repro/internal/nova.(*Env).yield", src+"nova/kernel.go"),
		}, "handoff"},
		{"an epoch.go frame is nova.epoch", []frame{
			fr("repro/internal/nova.(*Kernel).runEpochs", src+"nova/epoch.go"),
			fr("main.main"),
		}, "nova.epoch"},
		{"portals.go is nova.hypercall", []frame{
			fr("repro/internal/nova.(*Kernel).DelegateIPC", src+"nova/portals.go"),
		}, "nova.hypercall"},
		{"other kernel files are nova.core", []frame{
			fr("repro/internal/nova.(*Kernel).worldSwitch", src+"nova/kernel.go"),
		}, "nova.core"},
		{"innermost internal frame wins", []frame{
			fr("runtime.memclrNoHeapPointers"),
			fr("repro/internal/cache.(*Cache).fill", src+"cache/cache.go"),
			fr("repro/internal/cpu.(*ExecContext).Exec", src+"cpu/exec.go"),
		}, "cache"},
		{"closures keep their package", []frame{
			fr("repro/internal/scenario.(*System).churnTask.func1", src+"scenario/guests.go"),
		}, "scenario"},
		{"gc beats handoff", []frame{
			fr("runtime.mallocgc"), fr("runtime.newproc1"), fr("runtime.newproc"),
		}, "gc"},
		{"a background mark worker is gc", []frame{
			fr("runtime.scanobject"), fr("runtime.gcDrain"), fr("runtime.gcBgMarkWorker"),
		}, "gc"},
		{"the idle scheduler is handoff", []frame{
			fr("runtime.futex"), fr("runtime.futexsleep"), fr("runtime.notesleep"),
			fr("runtime.stopm"), fr("runtime.findRunnable"), fr("runtime.schedule"),
		}, "handoff"},
		{"no internal frame is other", []frame{fr("runtime._ExternalCode")}, "other"},
		{"empty stack is other", nil, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestEveryAttributedLayerIsReported(t *testing.T) {
	reported := map[string]bool{}
	for _, l := range hostLayers {
		reported[l] = true
	}
	for _, l := range novaFileLayers {
		if !reported[l] {
			t.Errorf("nova file layer %q is not in hostLayers", l)
		}
	}
	for _, l := range []string{"nova.core", "gc", "handoff", "other"} {
		if !reported[l] {
			t.Errorf("layer %q is not in hostLayers", l)
		}
	}
}

// pb is a minimal protobuf encoder for hand-built test profiles.
type pb struct{ b []byte }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

// uint writes a varint field (wire type 0).
func (p *pb) uint(field int, v uint64) {
	p.varint(uint64(field) << 3)
	p.varint(v)
}

func (p *pb) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func TestDecodeHandBuiltProfile(t *testing.T) {
	var prof pb
	// Strings: "", then names and files.
	strs := []string{"", "repro/internal/cache.(*Cache).fill", "/x/internal/cache/cache.go",
		"repro/internal/nova.(*Kernel).runEpochs", "/x/internal/nova/epoch.go", "runtime.memmove"}
	// Sample 1: packed location ids [1 2], values packed [3 3000].
	var s1, ids, vals pb
	ids.varint(1)
	ids.varint(2)
	vals.varint(3)
	vals.varint(3000)
	s1.bytes(sampleLocationField, ids.b)
	s1.bytes(sampleValueField, vals.b)
	prof.bytes(profSampleField, s1.b)
	// Sample 2: one unpacked location id and unpacked values.
	var s2 pb
	s2.uint(sampleLocationField, 2)
	s2.uint(sampleValueField, 5)
	s2.uint(sampleValueField, 5000)
	prof.bytes(profSampleField, s2.b)
	// Location 1 has an inlined frame: memmove inlined into cache.fill.
	var l1, line1, line2 pb
	l1.uint(locationIDField, 1)
	line1.uint(lineFunctionField, 3)
	line2.uint(lineFunctionField, 1)
	l1.bytes(locationLineField, line1.b)
	l1.bytes(locationLineField, line2.b)
	l1.uint(5, 1) // is_folded: skipped
	prof.bytes(profLocationField, l1.b)
	var l2, line3 pb
	l2.uint(locationIDField, 2)
	line3.uint(lineFunctionField, 2)
	l2.bytes(locationLineField, line3.b)
	prof.bytes(profLocationField, l2.b)
	for _, fn := range []struct{ id, name, file uint64 }{{1, 1, 2}, {2, 3, 4}, {3, 5, 0}} {
		var f pb
		f.uint(functionIDField, fn.id)
		f.uint(functionNameField, fn.name)
		f.uint(functionFileField, fn.file)
		prof.bytes(profFunctionField, f.b)
	}
	for _, s := range strs {
		prof.bytes(profStringField, []byte(s))
	}
	prof.uint(12, 1000000) // period: skipped

	samples, err := decodeProfile(prof.b)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("decoded %d samples, want 2", len(samples))
	}
	want := []struct {
		count  int64
		leaves []string
	}{
		{3, []string{"runtime.memmove", "repro/internal/cache.(*Cache).fill", "repro/internal/nova.(*Kernel).runEpochs"}},
		{5, []string{"repro/internal/nova.(*Kernel).runEpochs"}},
	}
	for i, w := range want {
		s := samples[i]
		var got []string
		for _, f := range s.stack {
			got = append(got, f.fn)
		}
		if s.count != w.count || strings.Join(got, " ") != strings.Join(w.leaves, " ") {
			t.Errorf("sample %d = %d %v, want %d %v", i, s.count, got, w.count, w.leaves)
		}
	}
	counts := map[string]int64{}
	layerCounts(samples, counts)
	if counts["cache"] != 3 || counts["nova.epoch"] != 5 {
		t.Errorf("layer counts = %v, want cache 3, nova.epoch 5", counts)
	}
}

func TestDecodeRejectsTruncatedProfile(t *testing.T) {
	var prof pb
	prof.bytes(profStringField, []byte("runtime.main"))
	if _, err := decodeProfile(prof.b[:len(prof.b)-3]); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}

var spinSink uint64

//go:noinline
func spinForProfile(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

func TestProfileFindsBusyLoop(t *testing.T) {
	var buf bytes.Buffer
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.count
		for _, f := range s.stack {
			if strings.HasSuffix(f.fn, ".spinForProfile") {
				inSpin += s.count
				break
			}
		}
	}
	if total == 0 || inSpin*2 < total {
		t.Fatalf("busy loop in %d of %d samples, want most", inSpin, total)
	}
}
