package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// sameShardKeys generates n keys that all hash into one shard, so LRU
// order is deterministic for eviction tests.
func sameShardKeys(n int) []string {
	var keys []string
	want := fnv1a("seed-key") & (cacheShards - 1)
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		if fnv1a(k)&(cacheShards-1) == want {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestCacheGetPut(t *testing.T) {
	c := NewCache(100, 0)
	if _, ok := c.Get("missing"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1)
	v, ok := c.Get("a")
	if !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	c.Put("a", 2)
	if v, _ := c.Get("a"); v.(int) != 2 {
		t.Fatalf("after overwrite Get(a) = %v", v)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheEvictionOrder(t *testing.T) {
	// Capacity cacheShards means one entry per shard: the fifth insert
	// into one shard must evict exactly that shard's LRU entry.
	keys := sameShardKeys(5)
	c := NewCache(4*cacheShards, 0)
	for _, k := range keys[:4] {
		c.Put(k, k)
	}
	// Touch keys[0] so keys[1] becomes least recently used.
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("warm entry missing")
	}
	c.Put(keys[4], keys[4])
	if _, ok := c.Get(keys[1]); ok {
		t.Error("LRU entry survived eviction")
	}
	for _, k := range []string{keys[0], keys[2], keys[3], keys[4]} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("entry %q wrongly evicted", k)
		}
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	c := NewCache(10, time.Minute)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	c.Put("a", 1)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("fresh entry missing")
	}
	now = now.Add(59 * time.Second)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("entry expired before TTL")
	}
	now = now.Add(2 * time.Second)
	if _, ok := c.Get("a"); ok {
		t.Fatal("entry alive after TTL")
	}
	if c.Len() != 0 {
		t.Errorf("expired entry not collected, len = %d", c.Len())
	}
	if exp := c.Stats().Expiries; exp != 1 {
		t.Errorf("expiries = %d, want 1", exp)
	}
	// Refreshing via Put restarts the clock.
	c.Put("a", 2)
	now = now.Add(30 * time.Second)
	if v, ok := c.Get("a"); !ok || v.(int) != 2 {
		t.Errorf("refreshed entry = %v, %v", v, ok)
	}
}

func TestCachePutStaleReportsStored(t *testing.T) {
	// Without a stale window the entry would be unreachable: not stored.
	if c := NewCache(10, time.Minute); c.PutStale("a", 1) || c.Len() != 0 {
		t.Errorf("PutStale without a stale window stored an entry (len %d)", c.Len())
	}

	c := NewCache(10, time.Minute)
	c.SetStaleWindow(time.Hour)
	if !c.PutStale("a", 1) {
		t.Fatal("PutStale into an empty slot reported not stored")
	}
	if _, ok := c.Get("a"); ok {
		t.Error("stale entry served by Get")
	}
	if v, _, ok := c.GetStale("a"); !ok || v.(int) != 1 {
		t.Errorf("GetStale = %v, %v; want 1, true", v, ok)
	}
	// A live entry is never downgraded.
	c.Put("b", 2)
	if c.PutStale("b", 3) {
		t.Error("PutStale over a live entry reported stored")
	}
	if v, ok := c.Get("b"); !ok || v.(int) != 2 {
		t.Errorf("live entry after PutStale = %v, %v; want 2, true", v, ok)
	}
}

func TestCacheZeroCapacity(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := NewCache(capacity, time.Minute)
		c.Put("a", 1)
		if _, ok := c.Get("a"); ok {
			t.Errorf("capacity %d stored an entry", capacity)
		}
	}
}

func TestCacheParallelHammer(t *testing.T) {
	// Many goroutines mixing Get/Put over a small hot key space; run
	// with -race this shreds any unsynchronized path.
	c := NewCache(64, 50*time.Millisecond)
	const goroutines = 16
	const ops = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%97)
				if i%3 == 0 {
					c.Put(k, i)
				} else {
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 64+cacheShards {
		t.Errorf("cache overfull after hammer: %d", n)
	}
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Error("no lookups recorded")
	}
}
