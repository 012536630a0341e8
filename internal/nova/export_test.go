package nova

// PortalRuns wraps every service portal of k so that each handler run
// counts against the calling PD's ID. The returned slice has one entry
// for each of the IDs below pds; each entry is written only on its PD's
// own core.
func PortalRuns(k *Kernel, pds int) []int {
	runs := make([]int, pds)
	for _, o := range k.portalObjs {
		p := o.Payload.(*portalDesc)
		fn := p.fn
		p.fn = func(k *Kernel, c *CoreCtx, pd *PD, args [4]uint32) uint32 {
			runs[pd.ID]++
			return fn(k, c, pd, args)
		}
	}
	return runs
}

// BootFrozenTemplate and CloneWriter are the clone tests' template boot
// and clone guest.
var (
	BootFrozenTemplate = bootFrozenTemplate
	CloneWriter        = cloneWriter
)

// Commits is the number of deferred effects k's committer has replayed.
func Commits(k *Kernel) uint64 { return k.committer.Commits }
