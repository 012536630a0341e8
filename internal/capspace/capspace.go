// Package capspace implements the kernel's typed object spaces: the
// NOVA-style capability layer Mini-NOVA's protection domains are built
// on (paper §III-A: a PD is "a resource container and a capability
// interface between a virtual machine and the microkernel").
//
// Kernel objects are typed (protection domain, portal, semaphore,
// memory region, hardware-task slot) and global; what a PD holds is a
// *capability* — a slot in its per-PD table referencing an object with a
// rights mask (call / delegate / revoke). Every kernel request resolves
// a selector through the caller's table, so isolation is by
// construction: an object a domain was never delegated simply does not
// exist in its space, and a selector forged from another domain's layout
// resolves an empty slot.
//
// Revocation is by object generation: each capability records the
// object's generation at delegation time, and revoking the object bumps
// the generation, turning every outstanding capability stale in O(1)
// without walking the delegation tree.
//
// The package is deterministic by design — tables are selector-indexed
// slices, never maps — so the capability counters fold into the scenario
// engine's replay checksums.
package capspace

import "fmt"

// ObjType is the kernel object type tag.
type ObjType uint8

// Kernel object types.
const (
	ObjNone      ObjType = iota
	ObjPD                // a protection domain (IPC destination, manager client handle)
	ObjPortal            // a kernel service entry point (hypercall portal)
	ObjSem               // a semaphore (the hw-request queue's wait object)
	ObjMemRegion         // a physical memory region (data section, bitstream store)
	ObjHwSlot            // a hardware-task slot (one PRR of the fabric)
)

// String names the type for diagnostics and dumps.
func (t ObjType) String() string {
	switch t {
	case ObjPD:
		return "pd"
	case ObjPortal:
		return "portal"
	case ObjSem:
		return "sem"
	case ObjMemRegion:
		return "memregion"
	case ObjHwSlot:
		return "hwslot"
	}
	return "none"
}

// Rights is the per-capability rights mask.
type Rights uint8

// Rights bits.
const (
	// RightCall permits invoking the object (calling a portal, sending
	// to a PD, waiting on a semaphore, using a slot or region).
	RightCall Rights = 1 << iota
	// RightDelegate permits copying the capability into another space
	// (with equal or reduced rights).
	RightDelegate
	// RightRevoke permits revoking the referenced object, invalidating
	// every outstanding capability to it.
	RightRevoke
)

// RightsAll is the full mask (typically only the object's creator).
const RightsAll = RightCall | RightDelegate | RightRevoke

// String renders the mask as "cdr" flags.
func (r Rights) String() string {
	b := []byte("---")
	if r&RightCall != 0 {
		b[0] = 'c'
	}
	if r&RightDelegate != 0 {
		b[1] = 'd'
	}
	if r&RightRevoke != 0 {
		b[2] = 'r'
	}
	return string(b)
}

// Object is one typed kernel object. Objects are created by the kernel
// and shared; spaces hold capabilities referencing them.
type Object struct {
	Type ObjType
	Name string
	// Payload is the kernel-side state behind the object (a *nova.PD, a
	// portal descriptor, a region window...). The owner package asserts
	// the concrete type.
	Payload any

	gen uint32
}

// NewObject builds a kernel object.
func NewObject(t ObjType, name string, payload any) *Object {
	return &Object{Type: t, Name: name, Payload: payload}
}

// revoke bumps the generation, invalidating every capability that was
// minted against the previous one. (Spaces revoke through RevokeObject,
// which checks RightRevoke on the revoker's own capability.)
func (o *Object) revoke() { o.gen++ }

// cap is one table slot.
type cap struct {
	obj    *Object
	rights Rights
	gen    uint32
}

// Err is the typed capability-resolution failure. The zero value is OK.
type Err uint8

// Resolution results.
const (
	OK         Err = iota
	ErrBadSel      // selector out of range or slot empty
	ErrRevoked     // object revoked since the capability was minted
	ErrBadType     // object held, but of the wrong type
	ErrDenied      // object held, but the capability lacks the rights
)

// Error implements error for kernel-internal plumbing.
func (e Err) Error() string {
	switch e {
	case OK:
		return "ok"
	case ErrBadSel:
		return "bad selector"
	case ErrRevoked:
		return "capability revoked"
	case ErrBadType:
		return "object type mismatch"
	case ErrDenied:
		return "insufficient rights"
	}
	return "unknown capability error"
}

// Stats counts a space's capability traffic. All counters are written
// from the simulation's single logical thread, so they are replay-
// deterministic and safe to fold into state checksums.
type Stats struct {
	Lookups     uint64 // resolution attempts
	Hits        uint64 // successful resolutions
	BadSel      uint64 // empty/out-of-range selectors (includes forgeries)
	Revoked     uint64 // stale-generation hits
	BadType     uint64 // type mismatches
	Denied      uint64 // rights failures
	Delegations uint64 // capabilities copied out of this space
	Revocations uint64 // objects revoked through this space
}

// Add accumulates other into s (kernel-wide aggregation).
func (s *Stats) Add(o Stats) {
	s.Lookups += o.Lookups
	s.Hits += o.Hits
	s.BadSel += o.BadSel
	s.Revoked += o.Revoked
	s.BadType += o.BadType
	s.Denied += o.Denied
	s.Delegations += o.Delegations
	s.Revocations += o.Revocations
}

// Denials sums every failed resolution.
func (s *Stats) Denials() uint64 { return s.BadSel + s.Revoked + s.BadType + s.Denied }

// Space is one protection domain's capability table.
type Space struct {
	caps  []cap
	Stats Stats
}

// NewSpace builds a table with room for n selectors (it grows on
// demand; n only sizes the initial allocation).
func NewSpace(n int) *Space {
	if n < 0 {
		n = 0
	}
	return &Space{caps: make([]cap, n)}
}

// grow ensures selector sel is addressable.
func (s *Space) grow(sel int) {
	if sel < len(s.caps) {
		return
	}
	bigger := make([]cap, sel+1)
	copy(bigger, s.caps)
	s.caps = bigger
}

// Insert installs a capability to o with rights r at selector sel,
// replacing whatever the slot held. Kernel boot/delegation use only.
func (s *Space) Insert(sel int, o *Object, r Rights) {
	if sel < 0 {
		panic(fmt.Sprintf("capspace: negative selector %d", sel))
	}
	s.grow(sel)
	s.caps[sel] = cap{obj: o, rights: r, gen: o.gen}
}

// InsertFree installs a capability at the lowest empty selector at or
// above floor and returns the selector chosen.
func (s *Space) InsertFree(floor int, o *Object, r Rights) int {
	if floor < 0 {
		floor = 0
	}
	for sel := floor; sel < len(s.caps); sel++ {
		if s.caps[sel].obj == nil {
			s.caps[sel] = cap{obj: o, rights: r, gen: o.gen}
			return sel
		}
	}
	sel := len(s.caps)
	if sel < floor {
		sel = floor
	}
	s.Insert(sel, o, r)
	return sel
}

// Lookup resolves sel, requiring object type t (ObjNone accepts any)
// and every bit of rights r. Each failure mode is distinct and counted.
func (s *Space) Lookup(sel int, t ObjType, r Rights) (*Object, Err) {
	s.Stats.Lookups++
	if sel < 0 || sel >= len(s.caps) || s.caps[sel].obj == nil {
		s.Stats.BadSel++
		return nil, ErrBadSel
	}
	c := &s.caps[sel]
	if c.gen != c.obj.gen {
		s.Stats.Revoked++
		return nil, ErrRevoked
	}
	if t != ObjNone && c.obj.Type != t {
		s.Stats.BadType++
		return nil, ErrBadType
	}
	if c.rights&r != r {
		s.Stats.Denied++
		return nil, ErrDenied
	}
	s.Stats.Hits++
	return c.obj, OK
}

// Delegate copies the capability at sel into dst at exactly dstSel,
// masking the copy's rights with keep. It requires RightDelegate on the
// source capability and never widens: the delegated rights are
// source ∩ keep. Returns the destination selector.
func (s *Space) Delegate(sel int, dst *Space, dstSel int, keep Rights) (int, Err) {
	obj, err := s.Lookup(sel, ObjNone, RightDelegate)
	if err != OK {
		return -1, err
	}
	dst.Insert(dstSel, obj, s.caps[sel].rights&keep)
	s.Stats.Delegations++
	return dstSel, OK
}

// DelegateFree is Delegate into the lowest empty selector of dst at or
// above floor (for grants with no conventional slot, e.g. IPC peers).
func (s *Space) DelegateFree(sel int, dst *Space, floor int, keep Rights) (int, Err) {
	obj, err := s.Lookup(sel, ObjNone, RightDelegate)
	if err != OK {
		return -1, err
	}
	dstSel := dst.InsertFree(floor, obj, s.caps[sel].rights&keep)
	s.Stats.Delegations++
	return dstSel, OK
}

// Drop clears the slot at sel (a domain discarding its own capability;
// no rights required — you may always drop what you hold).
func (s *Space) Drop(sel int) Err {
	if sel < 0 || sel >= len(s.caps) || s.caps[sel].obj == nil {
		return ErrBadSel
	}
	s.caps[sel] = cap{}
	return OK
}

// RevokeObject revokes the object referenced at sel: the generation
// bump turns every outstanding capability to it — in every space —
// stale. Requires RightRevoke on the revoker's own capability. The
// revoker's slot is cleared; everyone else discovers the revocation on
// their next lookup (ErrRevoked).
func (s *Space) RevokeObject(sel int) Err {
	obj, err := s.Lookup(sel, ObjNone, RightRevoke)
	if err != OK {
		return err
	}
	obj.revoke()
	s.caps[sel] = cap{}
	s.Stats.Revocations++
	return OK
}

// Len returns the table's selector range (including empty slots).
func (s *Space) Len() int { return len(s.caps) }

// CapCount returns the number of live capabilities (empty and stale
// slots excluded) — the footprint number dumps report.
func (s *Space) CapCount() int {
	n := 0
	for i := range s.caps {
		if c := &s.caps[i]; c.obj != nil && c.gen == c.obj.gen {
			n++
		}
	}
	return n
}

// RightsAt reports the rights of the capability at sel (0 when the slot
// is empty or stale) — dump/diagnostic use.
func (s *Space) RightsAt(sel int) Rights {
	if sel < 0 || sel >= len(s.caps) || s.caps[sel].obj == nil {
		return 0
	}
	if s.caps[sel].gen != s.caps[sel].obj.gen {
		return 0
	}
	return s.caps[sel].rights
}
