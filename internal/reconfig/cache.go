package reconfig

// Cache is the bitstream cache: a bounded OCM/DDR-resident store sitting
// in front of the SD-card path. Entries are whole bitstream images,
// identified by their offset inside the bitstream store (the catalog's
// content address). The simulator keeps every image's bytes resident at
// its catalog offset — the cache models *which* of them would be RAM-
// resident on the real platform, so a miss charges the SD fetch latency
// and a hit skips it.
//
// Replacement is LRU with pin-while-loading semantics: an entry is
// unevictable while its SD fill is in flight or while a PCAP transfer (or
// a queued request) still references it. Insertion of an image larger
// than the evictable space bypasses the cache entirely rather than
// thrashing pinned entries.
type Cache struct {
	capacity uint32
	used     uint32
	entries  map[uint32]*CacheEntry

	// LRU list: head is most recently used, tail the eviction candidate.
	head, tail *CacheEntry

	// OnEvict, when set, observes every eviction (the pipeline uses it to
	// count speculative entries that were dropped before any demand hit).
	OnEvict func(*CacheEntry)

	Stats CacheStats
}

// CacheStats counts cache outcomes. Coalesced misses found a fill already
// in flight for the same image and joined it instead of re-reading the SD
// card; Bypasses could not reserve space (everything pinned, or the image
// exceeds the capacity) and paid an uncached fetch. Invalidations are
// forced removals outside LRU policy: failed fills and poisoned images.
type CacheStats struct {
	Hits          uint64
	Misses        uint64
	Coalesced     uint64
	Evictions     uint64
	Bypasses      uint64
	Invalidations uint64
}

// CacheEntry is one resident (or loading) bitstream image.
type CacheEntry struct {
	Key uint32 // image identity: byte offset inside the bitstream store
	Len uint32

	pins        int  // references: the in-flight fill plus every live request
	loading     bool // SD fill still in flight
	speculative bool // resident due to a prefetch, not demanded yet
	corrupt     bool // staged bytes are poisoned (injected fault); the
	// PCAP download will fail CRC and the pipeline must invalidate

	prev, next *CacheEntry
}

// Loading reports whether the entry's SD fill is still in flight.
func (e *CacheEntry) Loading() bool { return e.loading }

// Corrupt reports whether the staged image is poisoned.
func (e *CacheEntry) Corrupt() bool { return e.corrupt }

// NewCache returns an empty cache bounded to capacity bytes.
func NewCache(capacity uint32) *Cache {
	return &Cache{capacity: capacity, entries: make(map[uint32]*CacheEntry)}
}

// Capacity returns the configured byte budget.
func (c *Cache) Capacity() uint32 { return c.capacity }

// Used returns the bytes currently charged against the budget.
func (c *Cache) Used() uint32 { return c.used }

// Len returns the number of resident (or loading) entries.
func (c *Cache) Len() int { return len(c.entries) }

// HitRatio returns hits / (hits + misses), or 0 with no lookups yet.
func (c *Cache) HitRatio() float64 {
	total := c.Stats.Hits + c.Stats.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Stats.Hits) / float64(total)
}

// Lookup finds the entry for key, counting the outcome and refreshing the
// LRU position. A loading entry counts as a coalesced miss (the caller
// joins the in-flight fill); nil is a plain miss.
func (c *Cache) Lookup(key uint32) *CacheEntry {
	e, ok := c.entries[key]
	if !ok {
		c.Stats.Misses++
		return nil
	}
	if e.loading {
		c.Stats.Misses++
		c.Stats.Coalesced++
	} else {
		c.Stats.Hits++
	}
	c.moveToFront(e)
	return e
}

// Peek returns the entry for key without touching stats or LRU order.
func (c *Cache) Peek(key uint32) *CacheEntry { return c.entries[key] }

// Insert reserves space for a new image and returns its entry, pinned and
// marked loading (the caller owns the fill and must call FillDone). It
// evicts unpinned LRU entries as needed; when the space cannot be freed
// the insert is counted as a bypass and nil is returned.
func (c *Cache) Insert(key, length uint32, speculative bool) *CacheEntry {
	if _, dup := c.entries[key]; dup {
		panic("reconfig: duplicate cache insert")
	}
	if !c.reserve(length) {
		c.Stats.Bypasses++
		return nil
	}
	e := &CacheEntry{Key: key, Len: length, pins: 1, loading: true, speculative: speculative}
	c.entries[key] = e
	c.used += length
	c.pushFront(e)
	return e
}

// reserve evicts unpinned LRU entries until length bytes fit; it reports
// whether the reservation succeeded without touching anything on failure.
func (c *Cache) reserve(length uint32) bool {
	if length > c.capacity {
		return false
	}
	// Walk candidates from the tail; pinned entries are skipped.
	for c.used+length > c.capacity {
		victim := c.tail
		for victim != nil && victim.pins > 0 {
			victim = victim.prev
		}
		if victim == nil {
			return false
		}
		c.evict(victim)
	}
	return true
}

func (c *Cache) evict(e *CacheEntry) {
	c.unlink(e)
	delete(c.entries, e.Key)
	c.used -= e.Len
	c.Stats.Evictions++
	if c.OnEvict != nil {
		c.OnEvict(e)
	}
}

// Pin adds a reference that blocks eviction.
func (c *Cache) Pin(e *CacheEntry) { e.pins++ }

// Unpin drops a reference.
func (c *Cache) Unpin(e *CacheEntry) {
	if e.pins <= 0 {
		panic("reconfig: unpin of unpinned cache entry")
	}
	e.pins--
}

// FillDone marks the entry resident and releases the fill's pin.
func (c *Cache) FillDone(e *CacheEntry) {
	e.loading = false
	c.Unpin(e)
}

// FillFailed releases the fill's pin and removes the placeholder: a fill
// that errored must not leave a pinned loading entry behind — it would
// never become resident, never be evicted, and leak its reservation
// forever. Waiters that pinned the entry keep their (now-detached) pins;
// their completion paths Unpin the orphan harmlessly.
func (c *Cache) FillFailed(e *CacheEntry) {
	e.loading = false
	c.Unpin(e)
	c.Invalidate(e)
}

// Invalidate force-removes an entry regardless of pins — the poisoned-
// image path: a corrupt bitstream must not be served warm, so the moment
// the PCAP download exposes it the entry leaves the map and the next
// request for the key re-fetches from the card. Holders of the detached
// entry may still Unpin it; the pins just never block anything again.
// A no-op when the entry was already removed (or replaced by a fresh
// insert of the same key).
func (c *Cache) Invalidate(e *CacheEntry) {
	if c.entries[e.Key] != e {
		return
	}
	c.unlink(e)
	delete(c.entries, e.Key)
	c.used -= e.Len
	c.Stats.Invalidations++
}

// --- intrusive LRU list ---

func (c *Cache) pushFront(e *CacheEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *CacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) moveToFront(e *CacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
