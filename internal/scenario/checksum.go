package scenario

import (
	"fmt"
	"hash"
	"hash/fnv"
	"strings"
)

// digest accumulates the state dump line by line and hashes it (FNV-1a
// 64) as it goes. The text is retained so a replay divergence can be
// localized by diffing two runs' dumps.
type digest struct {
	h hash.Hash64
	b strings.Builder
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

// addf appends one formatted line to the dump and folds it into the hash.
func (d *digest) addf(format string, args ...any) {
	line := fmt.Sprintf(format, args...) + "\n"
	d.h.Write([]byte(line))
	d.b.WriteString(line)
}

func (d *digest) sum() uint64  { return d.h.Sum64() }
func (d *digest) text() string { return d.b.String() }

// fnvString hashes a plain string (console output) without retaining it.
func fnvString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
