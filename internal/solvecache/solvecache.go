// Package solvecache memoizes dispatches. The evaluation pipeline (impact
// matrices, adversary branch-and-bound, experiment grids, the N-k screen)
// repeatedly dispatches the same attack sets against the same grid; the
// cache keys each dispatched set by a canonical hash (impact.CanonicalKey,
// salted by the grid's fingerprint) and stores the solved *flow.Result:
// welfare, flows, generation, load, prices and basis.
//
// The entry holds no per-actor profit. Ownership never enters the dispatch
// LP, so every reader divides the memoized dispatch with its own ownership
// and profit model: analyses of one grid under different ownerships share
// every entry.
//
// The cache is a pure memo: entries hold exactly what a fresh solve would
// produce, so enabling it never changes results — the golden-figure CSVs
// stay byte-identical with the cache on. Entries are shared with every
// reader and never mutated, and eviction only unlinks them, so a reader
// holding an entry is never affected by concurrent eviction.
//
// All methods are safe for concurrent use and nil-safe: a nil *Cache is a
// valid always-miss cache, which lets callers thread an optional cache
// without guarding every call site.
package solvecache

import (
	"container/list"
	"errors"
	"sync"

	"cpsguard/internal/flow"
	"cpsguard/internal/telemetry"
)

var (
	mHits      = telemetry.NewCounter("solvecache.hits")
	mMisses    = telemetry.NewCounter("solvecache.misses")
	mEvictions = telemetry.NewCounter("solvecache.evictions")
)

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits, Misses, Evictions int64
	Size, Capacity          int
}

type cacheItem struct {
	key string
	r   *flow.Result
}

// fill is one in-flight Do miss; later callers of its key wait for it.
type fill struct {
	done chan struct{}
	r    *flow.Result
	err  error
}

// errFillPanicked is what the waiters of a fill see when it panicked.
var errFillPanicked = errors.New("solvecache: the dispatch filling this entry panicked")

// Cache is a size-bounded LRU memo from canonical perturbation-set keys to
// dispatches. The zero value is unusable; construct with New.
type Cache struct {
	mu       sync.Mutex
	capacity int
	items    map[string]*list.Element // value: *cacheItem
	order    *list.List               // front = most recently used
	filling  map[string]*fill
	hits     int64
	misses   int64
	evicts   int64
}

// New returns a cache bounded to capacity entries. A capacity ≤ 0 returns
// nil — the always-miss cache — so flag plumbing can pass sizes straight
// through. The cache allocates as it fills, not up front, so a generous
// bound costs nothing until it is used.
func New(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	return &Cache{
		capacity: capacity,
		items:    map[string]*list.Element{},
		order:    list.New(),
		filling:  map[string]*fill{},
	}
}

// Get returns the dispatch memoized under key, marking it most recently
// used, and reports whether there was one. A miss memoizes nothing.
func (c *Cache) Get(key string) (*flow.Result, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookup(key)
}

// lookup returns key's entry and counts a hit, or counts a miss. The caller
// holds mu.
func (c *Cache) lookup(key string) (*flow.Result, bool) {
	el, ok := c.items[key]
	if !ok {
		c.misses++
		mMisses.Inc()
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits++
	mHits.Inc()
	return el.Value.(*cacheItem).r, true
}

// Do returns the dispatch memoized under key, or calls dispatch, memoizes
// its result and returns it. Concurrent callers of one missing key share a
// single call: the first runs it, the others wait and count as hits, so
// every key is dispatched once while it stays cached, however callers
// interleave. An error is returned to every caller of that call and not
// memoized. On a nil cache Do just calls dispatch.
func (c *Cache) Do(key string, dispatch func() (*flow.Result, error)) (*flow.Result, error) {
	if c == nil {
		return dispatch()
	}
	c.mu.Lock()
	if f, ok := c.filling[key]; ok {
		c.hits++
		mHits.Inc()
		c.mu.Unlock()
		<-f.done
		return f.r, f.err
	}
	if r, ok := c.lookup(key); ok {
		c.mu.Unlock()
		return r, nil
	}
	f := &fill{done: make(chan struct{}), err: errFillPanicked}
	c.filling[key] = f
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.filling, key)
		if f.err == nil {
			c.put(key, f.r)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.r, f.err = dispatch()
	return f.r, f.err
}

// put memoizes r under key, evicting the least recently used entry when at
// capacity. The caller holds mu, and key is not memoized.
func (c *Cache) put(key string, r *flow.Result) {
	if c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheItem).key)
		c.evicts++
		mEvictions.Inc()
	}
	c.items[key] = c.order.PushFront(&cacheItem{key: key, r: r})
}

// Len reports the current number of memoized entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats snapshots hit/miss/eviction totals and occupancy.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evicts,
		Size: c.order.Len(), Capacity: c.capacity,
	}
}

// Keys returns the memoized keys from most to least recently used. Intended
// for tests asserting LRU order.
func (c *Cache) Keys() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*cacheItem).key)
	}
	return out
}
