package serve

import (
	"container/list"
	"sync"
)

// cache is a bounded LRU map from a string key to values of type V. The
// server keeps two: the result cache and the request memo.
//
// The result cache is content-addressed by the scenario's canonical key.
// Values are the marshaled ResultWire bytes of a successful run: storing
// the serialized form (rather than the struct) is what makes a cache hit
// byte-identical to the fresh response — the response writer copies the
// same bytes into the envelope either way (see appendRunResponse). Only
// successful, canonicalizable results are stored; failures and
// cancellations must re-run (a deadline hit under load says nothing
// about the scenario itself).
//
// The request memo maps the SHA-256 of a /v1/run body to the request it
// resolved to (see decodeRun).
//
// Every entry has a weight, and the cache holds at most max total
// weight: each result weighs 1, each memoized request its scenario count.
type cache[V any] struct {
	mu      sync.Mutex
	max     int
	used    int
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
}

type cacheEntry[V any] struct {
	key    string
	value  V
	weight int
}

// newCache creates a cache holding at most max total weight; max <= 0
// disables caching (every lookup misses, stores are dropped).
func newCache[V any](max int) *cache[V] {
	return &cache[V]{max: max, entries: map[string]*list.Element{}, lru: list.New()}
}

// get returns the cached value for key and whether it was present.
func (c *cache[V]) get(key string) (V, bool) {
	var zero V
	if c.max <= 0 || key == "" {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return zero, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry[V]).value, true
}

// put stores value under key with the given weight, evicting least
// recently used entries until it fits. A value heavier than the whole
// cache is dropped. Callers must not mutate value afterwards.
func (c *cache[V]) put(key string, value V, weight int) {
	if c.max <= 0 || key == "" || weight > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// Deterministic runs make re-stores identical; keep the first.
		c.lru.MoveToFront(el)
		return
	}
	for c.used+weight > c.max {
		oldest := c.lru.Back()
		e := oldest.Value.(*cacheEntry[V])
		c.lru.Remove(oldest)
		delete(c.entries, e.key)
		c.used -= e.weight
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry[V]{key: key, value: value, weight: weight})
	c.used += weight
}

// size returns the current entry count.
func (c *cache[V]) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
