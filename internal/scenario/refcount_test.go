package scenario

import (
	"testing"

	"repro/internal/mmu"
	"repro/internal/physmem"
)

// TestCloneRefcountConservation checks the clone fleet's share counts on
// the two clone-fleet scenarios. After the run, every undestroyed clone's
// Shared counter, the one record of the template frames it still
// references, equals the number of image frames its table maps read-only
// at their template address; every destroyed clone is dead and shares
// nothing.
func TestCloneRefcountConservation(t *testing.T) {
	for _, name := range []string{"oversubscribed-256vm", "warm-pool-reap"} {
		t.Run(name, func(t *testing.T) {
			spec, ok := FindSpec(name, true)
			if !ok {
				t.Fatalf("%s not in suite", name)
			}
			sys := Build(spec)
			sys.Run()
			sr := sys.snap
			live := 0
			for _, cv := range sr.clones {
				st, _ := cv.pd.CloneStats()
				if cv.reaped {
					if !cv.pd.Dead() || st.Shared != 0 {
						t.Fatalf("destroyed clone %s: dead %v, Shared %d; want dead and 0", cv.name, cv.pd.Dead(), st.Shared)
					}
					continue
				}
				live++
				mapped := 0
				sr.img.EachFrame(func(va uint32, pa physmem.Addr) {
					if cur, _, ap, ok := cv.pd.Table.Lookup(va); ok && ap == mmu.APUserRO && cur == pa {
						mapped++
					}
				})
				if st.Shared != mapped {
					t.Errorf("clone %s: Shared %d, but %d frames mapped read-only", cv.name, st.Shared, mapped)
				}
			}
			if live == 0 {
				t.Fatal("no live clones to check")
			}
		})
	}
}
