package scenario

import (
	"testing"

	"repro/internal/mmu"
	"repro/internal/physmem"
)

// TestCloneRefcountConservation checks physmem refcount conservation on
// the two clone-fleet scenarios. After the run, every frame of the
// template image (which lives as long as the system) is still pinned and
// carries exactly one share reference per undestroyed clone whose table
// still maps the frame's VA read-only to it; each such clone's Shared
// counter is the number of those mappings.
func TestCloneRefcountConservation(t *testing.T) {
	for _, name := range []string{"oversubscribed-256vm", "warm-pool-reap"} {
		t.Run(name, func(t *testing.T) {
			spec, ok := FindSpec(name, true)
			if !ok {
				t.Fatalf("%s not in suite", name)
			}
			sys := Build(spec)
			sys.Run()
			k, sr := sys.Kernel, sys.snap
			var live []*cloneVM
			for _, cv := range sr.clones {
				if cv.reaped {
					if !cv.pd.Dead() {
						t.Fatalf("destroyed clone %s not dead", cv.name)
					}
					continue
				}
				live = append(live, cv)
			}
			if len(live) == 0 {
				t.Fatal("no live clones to check")
			}
			mapped := make([]int, len(live))
			sr.img.EachFrame(func(va uint32, pa physmem.Addr) {
				want := 0
				for i, cv := range live {
					if cur, _, ap, ok := cv.pd.Table.Lookup(va); ok && ap == mmu.APUserRO && cur == pa {
						want++
						mapped[i]++
					}
				}
				if got := k.Bus.Refs(pa); got != want {
					t.Errorf("frame va %#x pa %#x: refs %d, want %d read-only clone mappings", va, uint32(pa), got, want)
				}
				if !k.Bus.Pinned(pa) {
					t.Errorf("frame va %#x pa %#x unpinned while the image lives", va, uint32(pa))
				}
			})
			for i, cv := range live {
				if st, _ := cv.pd.CloneStats(); st.Shared != mapped[i] {
					t.Errorf("clone %s: Shared %d, but %d frames mapped read-only", cv.name, st.Shared, mapped[i])
				}
			}
		})
	}
}
