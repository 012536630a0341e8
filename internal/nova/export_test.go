package nova

// PortalRuns wraps every service portal of k so that each handler run
// counts against the calling PD's ID. The returned slice has one entry
// per client-handle selector, so it covers every PD the manager can act
// on; each entry is written only on its PD's own core.
func PortalRuns(k *Kernel) []int {
	runs := make([]int, maxClientPDs)
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
