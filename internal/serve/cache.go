package serve

import (
	"container/list"
	"sync"

	"ceaff/internal/obs"
)

// resultCache is the versioned LRU over per-source answers. Keys carry the
// engine version, so an entry computed against one engine snapshot can never
// answer for another even if a racing request inserts it after a hot-swap;
// Publish additionally calls Reset so a swap discards the whole working set
// at once instead of waiting for stale keys to age out of the LRU.
//
// Entries are per-row and only ever pure functions of (engine version,
// source row, k): single-source collective align answers (a lone source's
// decision depends on nobody else's rows), candidate lists, and the matched
// unilateral rows of multi-source batches, which enter through putSampled
// because they are provably the single-source answer. A batch's collective
// answer as a whole is never stored — it depends on the whole row set — and
// degraded answers are never inserted, so a breaker-open period cannot
// poison the cache.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[cacheKey]*list.Element

	// doorkeeper is the TinyLFU-style admission filter for sampled inserts
	// (multi-source batch rows): a key's first sighting while the cache is
	// full only leaves a note here; admission requires a second sighting.
	// One-hit wonders from sweeping batch scans therefore never displace
	// resident entries, while genuinely hot keys pay one extra miss and
	// then enter. Bounded to doorkeeperScale×cap and cleared wholesale when
	// full — the periodic reset that keeps the frequency signal fresh.
	doorkeeper map[cacheKey]struct{}

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	admitted  *obs.Counter
	rejected  *obs.Counter
}

// doorkeeperScale bounds the doorkeeper to a multiple of the cache
// capacity before it resets.
const doorkeeperScale = 4

// Cache entry kinds; part of the key so an align answer and a candidates
// answer for the same row never collide.
const (
	cacheKindAlign      = 'a'
	cacheKindCandidates = 'c'
)

type cacheKey struct {
	version uint64
	kind    byte
	row     int
	k       int // topK (align) or k (candidates)
}

type cacheEntry struct {
	key cacheKey
	val any // []Decision or []Candidate, immutable once inserted
}

// newResultCache returns a cache bounded to capacity entries, or nil when
// capacity < 1 — a nil *resultCache is a valid always-miss cache, so the
// server never branches on "caching enabled".
func newResultCache(capacity int, reg *obs.Registry) *resultCache {
	if capacity < 1 {
		return nil
	}
	return &resultCache{
		cap:        capacity,
		ll:         list.New(),
		items:      make(map[cacheKey]*list.Element, capacity),
		doorkeeper: make(map[cacheKey]struct{}),
		hits:       reg.Counter("serve.cache.hits"),
		misses:     reg.Counter("serve.cache.misses"),
		evictions:  reg.Counter("serve.cache.evictions"),
		admitted:   reg.Counter("serve.cache.admitted"),
		rejected:   reg.Counter("serve.cache.rejected"),
	}
}

// get returns the cached value for key and refreshes its recency.
func (c *resultCache) get(key cacheKey) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*cacheEntry).val, true
}

// put inserts (or refreshes) key → val, evicting the least recently used
// entry when full. val must never be mutated after insertion; callers hand
// over ownership.
func (c *resultCache) put(key cacheKey, val any) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evictions.Inc()
	}
}

// putSampled inserts key → val under the doorkeeper admission policy: a
// refresh of a resident key or an insert into a non-full cache proceeds
// directly (warming is free), but once the cache is full a new key is
// admitted only on its second sighting — the first merely registers it in
// the doorkeeper and counts as rejected. Multi-source batch rows enter the
// cache through this path; single-row answers and candidate lists keep the
// unconditional put.
func (c *resultCache) putSampled(key cacheKey, val any) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	if c.ll.Len() >= c.cap {
		if _, seen := c.doorkeeper[key]; !seen {
			if len(c.doorkeeper) >= doorkeeperScale*c.cap {
				clear(c.doorkeeper)
			}
			c.doorkeeper[key] = struct{}{}
			c.rejected.Inc()
			c.mu.Unlock()
			return
		}
		delete(c.doorkeeper, key)
	}
	c.admitted.Inc()
	c.mu.Unlock()
	c.put(key, val)
}

// Reset empties the cache; called on every engine publish so no answer from
// a previous snapshot survives a hot-swap.
func (c *resultCache) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
	clear(c.doorkeeper)
}

// len reports the live entry count (test hook).
func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
