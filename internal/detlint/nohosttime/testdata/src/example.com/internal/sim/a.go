// Fixture for the nohosttime analyzer: example.com/internal/sim is a
// simulator package by path suffix.
package sim

import (
	"math/rand"
	"os"
	"time"
)

// Bad smuggles the host into the simulation three ways.
func Bad() int64 {
	t := time.Now()           // want `time.Now in simulator package: host wall-clock time is nondeterministic`
	n := rand.Intn(10)        // want `rand.Intn in simulator package: global math/rand source`
	home := os.Getenv("HOME") // want `os.Getenv in simulator package: process environment varies by host`
	return t.UnixNano() + int64(n) + int64(len(home))
}

// Elapsed flags time.Since too.
func Elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `time.Since in simulator package`
}

// Stored references are flagged, not just calls: hiding time.Now in a
// func value does not remove the host dependency.
var clock = time.Now // want `time.Now in simulator package`

// Good derives randomness from a seeded, locally-owned generator: the
// constructor and the method calls are both fine.
func Good(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}
