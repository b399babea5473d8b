package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"
)

// cacheShards is the number of independently locked cache segments. A
// power of two so the hash can be masked instead of divided. Sixteen
// shards keep lock contention negligible up to a few hundred concurrent
// requests (each Get/Put holds its shard lock for ~100ns).
const cacheShards = 16

// Cache is a sharded LRU cache with per-entry TTL. Keys are strings
// (see Key); values are opaque. All methods are safe for concurrent
// use. A zero-capacity cache stores nothing and misses every Get, so
// callers never need to special-case "caching disabled".
type Cache struct {
	shards [cacheShards]cacheShard
	ttl    time.Duration
	// staleFor extends an expired entry's residence: between ttl and
	// ttl+staleFor the entry misses Get but is reachable via GetStale —
	// the degradation ladder's stale-but-fresh-enough rung. Beyond that
	// the entry is removed on access.
	staleFor time.Duration
	// perShard bounds each shard's entry count; total capacity is
	// perShard*cacheShards rounded up from the requested capacity.
	perShard int
	// now is replaceable in tests to exercise TTL expiry without
	// sleeping.
	now func() time.Time

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	expiries  atomic.Uint64
	staleHits atomic.Uint64
}

// cacheShard is one lock domain: an LRU list (front = most recent)
// with a key index into its elements.
type cacheShard struct {
	mu    sync.Mutex
	ll    *list.List
	index map[string]*list.Element
}

// cacheEntry is the list element payload.
type cacheEntry struct {
	key     string
	value   any
	expires time.Time
}

// NewCache builds a cache holding up to capacity entries whose entries
// expire ttl after insertion. capacity <= 0 disables storage; ttl <= 0
// means entries never expire.
func NewCache(capacity int, ttl time.Duration) *Cache {
	c := &Cache{ttl: ttl, now: time.Now}
	if capacity > 0 {
		c.perShard = (capacity + cacheShards - 1) / cacheShards
	}
	for i := range c.shards {
		c.shards[i].ll = list.New()
		c.shards[i].index = make(map[string]*list.Element)
	}
	return c
}

// SetStaleWindow allows expired entries to linger for d past their TTL,
// servable only through GetStale. Set once at construction time.
func (c *Cache) SetStaleWindow(d time.Duration) {
	if d > 0 {
		c.staleFor = d
	}
}

// fnv1a hashes the key for shard selection.
func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

func (c *Cache) shard(key string) *cacheShard {
	return &c.shards[fnv1a(key)&(cacheShards-1)]
}

// Get returns the live value for key, promoting it to most recently
// used. Expired entries are removed on access.
func (c *Cache) Get(key string) (any, bool) {
	if c.perShard == 0 {
		c.misses.Add(1)
		return nil, false
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.index[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if !e.expires.IsZero() && c.now().After(e.expires) {
		// Within the stale window the entry stays resident (for GetStale)
		// but still misses; beyond it, it is collected.
		if c.staleFor <= 0 || c.now().After(e.expires.Add(c.staleFor)) {
			s.ll.Remove(el)
			delete(s.index, key)
			c.expiries.Add(1)
		}
		c.misses.Add(1)
		return nil, false
	}
	s.ll.MoveToFront(el)
	c.hits.Add(1)
	return e.value, true
}

// GetStale returns the value for key even if it has expired, provided
// it is still within the stale window, along with how long ago it
// expired (zero for a still-live entry). It does not promote the entry
// or count as a hit/miss: it is the degradation ladder's read path, not
// the primary one.
func (c *Cache) GetStale(key string) (any, time.Duration, bool) {
	if c.perShard == 0 {
		return nil, 0, false
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.index[key]
	if !ok {
		return nil, 0, false
	}
	e := el.Value.(*cacheEntry)
	if e.expires.IsZero() {
		return e.value, 0, true
	}
	now := c.now()
	if !now.After(e.expires) {
		return e.value, 0, true
	}
	age := now.Sub(e.expires)
	if c.staleFor <= 0 || age > c.staleFor {
		s.ll.Remove(el)
		delete(s.index, key)
		c.expiries.Add(1)
		return nil, 0, false
	}
	c.staleHits.Add(1)
	return e.value, age, true
}

// Put inserts or refreshes key. When the shard is full the least
// recently used entry is evicted.
func (c *Cache) Put(key string, value any) {
	if c.perShard == 0 {
		return
	}
	var expires time.Time
	if c.ttl > 0 {
		expires = c.now().Add(c.ttl)
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.index[key]; ok {
		e := el.Value.(*cacheEntry)
		e.value = value
		e.expires = expires
		s.ll.MoveToFront(el)
		return
	}
	for s.ll.Len() >= c.perShard {
		oldest := s.ll.Back()
		if oldest == nil {
			break
		}
		s.ll.Remove(oldest)
		delete(s.index, oldest.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
	s.index[key] = s.ll.PushFront(&cacheEntry{key: key, value: value, expires: expires})
}

// CacheEntry is one entry exported by Entries for drain snapshots.
type CacheEntry struct {
	Key   string
	Value any
	// Expired reports the entry was past TTL (resident only for the
	// stale window) at snapshot time.
	Expired bool
}

// Entries snapshots every resident entry still servable through Get or
// GetStale (entries past the stale window are skipped, not collected).
// The crash-only drain path spills these to disk so a restarted
// replica can serve stale-rung answers immediately.
func (c *Cache) Entries() []CacheEntry {
	var out []CacheEntry
	now := c.now()
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*cacheEntry)
			expired := !e.expires.IsZero() && now.After(e.expires)
			if expired && (c.staleFor <= 0 || now.Sub(e.expires) > c.staleFor) {
				continue
			}
			out = append(out, CacheEntry{Key: e.key, Value: e.value, Expired: expired})
		}
		s.mu.Unlock()
	}
	return out
}

// PutStale inserts key as an already-expired entry: Get misses it, but
// GetStale serves it for the stale window. This is the snapshot
// restore path — answers carried across a restart are old enough that
// only the degradation ladder's stale rung should ever serve them. It
// reports whether the entry was stored: it is not when the stale window
// is disabled (the entry would be unreachable), storage is off, or key
// already holds a live entry.
func (c *Cache) PutStale(key string, value any) bool {
	if c.perShard == 0 || c.staleFor <= 0 {
		return false
	}
	expires := c.now().Add(-time.Nanosecond)
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.index[key]; ok {
		// Never downgrade a live entry to stale.
		e := el.Value.(*cacheEntry)
		if e.expires.IsZero() || c.now().Before(e.expires) {
			return false
		}
		e.value = value
		e.expires = expires
		return true
	}
	for s.ll.Len() >= c.perShard {
		oldest := s.ll.Back()
		if oldest == nil {
			break
		}
		s.ll.Remove(oldest)
		delete(s.index, oldest.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
	s.index[key] = s.ll.PushFront(&cacheEntry{key: key, value: value, expires: expires})
	return true
}

// Len counts live entries (including not-yet-collected expired ones).
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits, Misses, Evictions, Expiries, StaleHits uint64
	Entries                                      int
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Expiries:  c.expiries.Load(),
		StaleHits: c.staleHits.Load(),
		Entries:   c.Len(),
	}
}
