package main

import "time"

// On the 2-CPU shared VM the bounds were measured on, host speed drifts
// by up to half within minutes, and every workload drifts with it (see
// README.md). So the end-to-end times are reported in reference time:
// each rep's host times are scaled by how long a fixed kernel took
// around it, relative to the kernel's time on the reference host. The
// kernel shares no code with the simulator, so a change to the
// simulator moves the scaled metrics exactly as much as it moves the
// raw ones.

// refKernel defines reference time: a reference second is as much host
// time as 1 s / refKernel runs of speedKernel take. It is about what the
// kernel takes on that VM when it runs at its fastest.
const refKernel = 10 * time.Millisecond

var (
	kernelTable [1 << 16]uint32
	kernelSink  uint32
)

// speedKernel runs fixed work in the simulator's two shapes and returns
// its wall time: random read-modify-writes over a 256 KB table, like
// the cache and memory models, then token passes between two goroutines
// over unbuffered channels, like the guest/kernel handoff. The handoff
// part takes most of the time: it tracked the VM's drift best on every
// workload, codec-bound ones included.
func speedKernel() time.Duration {
	start := time.Now()
	x := uint32(0x9E3779B9)
	for range 1_000_000 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		kernelTable[x%uint32(len(kernelTable))] += x
	}
	ping, pong := make(chan uint32), make(chan uint32)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	for range 20_000 {
		ping <- x
		x = <-pong
	}
	close(ping)
	<-pong
	kernelSink = x
	return time.Since(start)
}

// speedMeter brackets stretches of work with speed-kernel timings.
type speedMeter struct{ last time.Duration }

func newSpeedMeter() *speedMeter { return &speedMeter{last: speedKernel()} }

// around times the kernel again and returns the mean of this timing and
// the previous one: the host's speed around the work done in between.
func (m *speedMeter) around() time.Duration {
	next := speedKernel()
	mean := (m.last + next) / 2
	m.last = next
	return mean
}

// refScale converts host time measured at a speed-kernel time of k into
// reference time.
func refScale(k time.Duration) float64 { return refKernel.Seconds() / k.Seconds() }
