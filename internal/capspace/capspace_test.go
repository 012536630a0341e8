package capspace

import "testing"

func TestLookupErrorPaths(t *testing.T) {
	portal := NewObject(ObjPortal, "svc", nil)
	sem := NewObject(ObjSem, "queue", nil)
	s := NewSpace(8)
	s.Insert(3, portal, RightCall)
	s.Insert(4, sem, 0) // held, no rights

	cases := []struct {
		name string
		sel  int
		typ  ObjType
		r    Rights
		want Err
	}{
		{"hit", 3, ObjPortal, RightCall, OK},
		{"hit-any-type", 3, ObjNone, RightCall, OK},
		{"empty-slot", 5, ObjPortal, RightCall, ErrBadSel},
		{"out-of-range", 99, ObjPortal, RightCall, ErrBadSel},
		{"negative", -1, ObjPortal, RightCall, ErrBadSel},
		{"wrong-type", 4, ObjPortal, 0, ErrBadType},
		{"no-call-right", 4, ObjSem, RightCall, ErrDenied},
		{"no-delegate-right", 3, ObjPortal, RightDelegate, ErrDenied},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := s.Lookup(c.sel, c.typ, c.r)
			if err != c.want {
				t.Errorf("Lookup(%d,%v,%v) = %v, want %v", c.sel, c.typ, c.r, err, c.want)
			}
		})
	}
	if d := s.Stats.Denials(); d != 6 {
		t.Errorf("Denials = %d, want 6", d)
	}
	if s.Stats.Hits != 2 {
		t.Errorf("Hits = %d, want 2", s.Stats.Hits)
	}
}

func TestDelegationNarrowsRights(t *testing.T) {
	obj := NewObject(ObjPD, "vm0", nil)
	a, b := NewSpace(4), NewSpace(4)
	a.Insert(0, obj, RightsAll)

	sel, err := a.DelegateFree(0, b, 0, RightCall)
	if err != OK {
		t.Fatalf("Delegate: %v", err)
	}
	if got := b.RightsAt(sel); got != RightCall {
		t.Errorf("delegated rights = %v, want call-only", got)
	}
	// The copy cannot be re-delegated (no RightDelegate survived).
	if _, err := b.DelegateFree(sel, NewSpace(1), 0, RightsAll); err != ErrDenied {
		t.Errorf("re-delegation of a call-only cap = %v, want ErrDenied", err)
	}
	// Delegation cannot widen: ask to keep all, source had call-only.
	c := NewSpace(4)
	if _, err := b.Lookup(sel, ObjPD, RightCall); err != OK {
		t.Fatalf("lookup after delegation: %v", err)
	}
	a.Insert(1, obj, RightCall|RightDelegate)
	s3, err := a.DelegateFree(1, c, 0, RightsAll)
	if err != OK {
		t.Fatalf("Delegate: %v", err)
	}
	if got := c.RightsAt(s3); got != RightCall|RightDelegate {
		t.Errorf("rights widened to %v through delegation", got)
	}
}

func TestRevocationInvalidatesAllCopies(t *testing.T) {
	obj := NewObject(ObjMemRegion, "datasect", nil)
	owner, peer := NewSpace(4), NewSpace(4)
	owner.Insert(0, obj, RightsAll)
	sel, err := owner.DelegateFree(0, peer, 0, RightCall)
	if err != OK {
		t.Fatalf("Delegate: %v", err)
	}
	if _, err := peer.Lookup(sel, ObjMemRegion, RightCall); err != OK {
		t.Fatalf("pre-revoke lookup: %v", err)
	}
	if err := owner.RevokeObject(0); err != OK {
		t.Fatalf("RevokeObject: %v", err)
	}
	if _, err := peer.Lookup(sel, ObjMemRegion, RightCall); err != ErrRevoked {
		t.Errorf("post-revoke lookup = %v, want ErrRevoked", err)
	}
	if owner.Stats.Revocations != 1 {
		t.Errorf("Revocations = %d, want 1", owner.Stats.Revocations)
	}
	// A call-only holder cannot revoke.
	obj2 := NewObject(ObjSem, "s", nil)
	peer.Insert(2, obj2, RightCall)
	if err := peer.RevokeObject(2); err != ErrDenied {
		t.Errorf("revoke without RightRevoke = %v, want ErrDenied", err)
	}
}

func TestSelectorsAreSpaceLocal(t *testing.T) {
	// The forgery property: a selector valid in one space means nothing
	// in another.
	obj := NewObject(ObjPD, "vm1", nil)
	a, b := NewSpace(8), NewSpace(8)
	a.Insert(6, obj, RightCall)
	if _, err := a.Lookup(6, ObjPD, RightCall); err != OK {
		t.Fatalf("owner lookup: %v", err)
	}
	if _, err := b.Lookup(6, ObjPD, RightCall); err != ErrBadSel {
		t.Errorf("forged selector = %v, want ErrBadSel", err)
	}
}

func TestInsertFreeAndDrop(t *testing.T) {
	s := NewSpace(2)
	o := NewObject(ObjPortal, "p", nil)
	if sel := s.InsertFree(0, o, RightCall); sel != 0 {
		t.Errorf("first free = %d, want 0", sel)
	}
	if sel := s.InsertFree(0, o, RightCall); sel != 1 {
		t.Errorf("second free = %d, want 1", sel)
	}
	if sel := s.InsertFree(32, o, RightCall); sel != 32 {
		t.Errorf("floored free = %d, want 32", sel)
	}
	if s.CapCount() != 3 {
		t.Errorf("CapCount = %d, want 3", s.CapCount())
	}
	if err := s.Drop(1); err != OK {
		t.Errorf("Drop: %v", err)
	}
	if err := s.Drop(1); err != ErrBadSel {
		t.Errorf("double Drop = %v, want ErrBadSel", err)
	}
	if s.CapCount() != 2 {
		t.Errorf("CapCount after drop = %d, want 2", s.CapCount())
	}
}

func TestStatsAggregation(t *testing.T) {
	var total Stats
	total.Add(Stats{Lookups: 3, Hits: 2, BadSel: 1, Delegations: 4})
	total.Add(Stats{Lookups: 1, Revoked: 1, Revocations: 2})
	if total.Lookups != 4 || total.Hits != 2 || total.Denials() != 2 ||
		total.Delegations != 4 || total.Revocations != 2 {
		t.Errorf("aggregate = %+v", total)
	}
}

// TestRetireKeepsCountAndStats: a retired space drops its table but keeps
// its Stats and the live-capability count it had (stale slots excluded);
// its selectors resolve as empty slots, and a later insert counts on top.
func TestRetireKeepsCountAndStats(t *testing.T) {
	s := NewSpace(8)
	live, stale := NewObject(ObjPortal, "p", nil), NewObject(ObjPD, "vm", nil)
	s.Insert(0, live, RightCall)
	s.Insert(1, live, RightCall)
	s.Insert(5, stale, RightsAll)
	if err := s.RevokeObject(5); err != OK {
		t.Fatal(err)
	}
	s.Insert(6, stale, RightCall)
	stale.revoke() // slot 6 goes stale
	if _, err := s.Lookup(0, ObjPortal, RightCall); err != OK {
		t.Fatal(err)
	}
	want := s.Stats
	s.Retire()
	if s.CapCount() != 2 || s.Len() != 0 || s.Stats != want {
		t.Fatalf("retired: CapCount %d, Len %d, Stats %+v; want 2, 0, %+v", s.CapCount(), s.Len(), s.Stats, want)
	}
	if _, err := s.Lookup(0, ObjPortal, RightCall); err != ErrBadSel {
		t.Fatalf("lookup in a retired space = %v, want ErrBadSel", err)
	}
	s.Insert(3, live, RightCall)
	if s.CapCount() != 3 {
		t.Fatalf("CapCount after an insert into a retired space = %d, want 3", s.CapCount())
	}
}
