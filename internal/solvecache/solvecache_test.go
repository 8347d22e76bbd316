package solvecache

import (
	"container/list"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"cpsguard/internal/flow"
)

// put memoizes r under key through Do, unless key is memoized already.
func put(c *Cache, key string, r *flow.Result) {
	c.Do(key, func() (*flow.Result, error) { return r, nil })
}

func entryFor(i int) *flow.Result {
	return &flow.Result{
		Flow:    []float64{float64(i), float64(2 * i)},
		Welfare: float64(100 + i),
	}
}

// TestCapacityBounds drives insert sequences through caches of several
// capacities and checks the size never exceeds the bound and the eviction
// count accounts exactly for the overflow.
func TestCapacityBounds(t *testing.T) {
	cases := []struct {
		capacity int
		inserts  int
	}{
		{1, 1},
		{1, 10},
		{2, 2},
		{2, 7},
		{8, 3},
		{8, 100},
		{64, 200},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("cap%d_ins%d", tc.capacity, tc.inserts), func(t *testing.T) {
			c := New(tc.capacity)
			for i := 0; i < tc.inserts; i++ {
				put(c, fmt.Sprintf("k%d", i), entryFor(i))
				if got := c.Len(); got > tc.capacity {
					t.Fatalf("size %d exceeds capacity %d", got, tc.capacity)
				}
			}
			st := c.Stats()
			wantSize := tc.inserts
			if wantSize > tc.capacity {
				wantSize = tc.capacity
			}
			if st.Size != wantSize {
				t.Fatalf("size %d, want %d", st.Size, wantSize)
			}
			wantEvicts := int64(tc.inserts - wantSize)
			if st.Evictions != wantEvicts {
				t.Fatalf("evictions %d, want %d", st.Evictions, wantEvicts)
			}
		})
	}
}

// TestLRUOrdering pins the recency contract: reading an entry refreshes
// it, putting an existing key refreshes it, and eviction always takes the
// least recently used key.
func TestLRUOrdering(t *testing.T) {
	c := New(3)
	for i := 0; i < 3; i++ {
		put(c, fmt.Sprintf("k%d", i), entryFor(i))
	}
	// Recency now k2 > k1 > k0. Touch k0 via Get, k1 via a second put.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	put(c, "k1", entryFor(1))
	got := c.Keys()
	want := []string{"k1", "k0", "k2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recency order %v, want %v", got, want)
		}
	}
	// Next insert must evict k2 (least recently used).
	put(c, "k3", entryFor(3))
	if _, ok := c.Get("k2"); ok {
		t.Fatal("k2 survived eviction but was least recently used")
	}
	for _, k := range []string{"k0", "k1", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted out of LRU order", k)
		}
	}
}

// TestRePutKeepsEntry documents that re-putting an existing key refreshes
// recency without replacing the stored entry.
func TestRePutKeepsEntry(t *testing.T) {
	c := New(2)
	put(c, "k", entryFor(1))
	put(c, "k", entryFor(99))
	e, ok := c.Get("k")
	if !ok || e.Welfare != entryFor(1).Welfare {
		t.Fatalf("entry replaced on re-put: %+v", e)
	}
	if c.Len() != 1 {
		t.Fatalf("duplicate key occupies %d slots", c.Len())
	}
}

// TestNilCache checks every method is a safe no-op on the nil (always-miss)
// cache, including the New(0) spelling flag plumbing produces.
func TestNilCache(t *testing.T) {
	for _, c := range []*Cache{nil, New(0), New(-3)} {
		if c != nil {
			t.Fatal("non-positive capacity must yield the nil cache")
		}
		put(c, "k", entryFor(1))
		if _, ok := c.Get("k"); ok {
			t.Fatal("nil cache returned a hit")
		}
		if c.Len() != 0 || c.Stats() != (Stats{}) || c.Keys() != nil {
			t.Fatal("nil cache reported state")
		}
	}
}

// TestConcurrentAccess hammers a small cache from many goroutines (forcing
// constant eviction) and verifies under the race detector that concurrent
// Do/Stats/Keys are safe and that every hit returns an uncorrupted
// entry even when its key is being evicted concurrently.
func TestConcurrentAccess(t *testing.T) {
	c := New(8)
	const (
		workers = 16
		keys    = 32 // 4x capacity: evictions happen continuously
		rounds  = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w*rounds + r) % keys
				key := fmt.Sprintf("k%d", i)
				if e, ok := c.Get(key); ok {
					// Entry integrity: values must be the exact ones
					// inserted for this key, never a torn mix.
					if e.Welfare != float64(100+i) || e.Flow[0] != float64(i) || e.Flow[1] != float64(2*i) {
						t.Errorf("corrupt entry for %s: %+v", key, e)
						return
					}
				} else {
					put(c, key, entryFor(i))
				}
				if r%64 == 0 {
					c.Stats()
					c.Keys()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Len(); got > 8 {
		t.Fatalf("size %d exceeds capacity after concurrent churn", got)
	}
	// The cycling pattern above guarantees misses and evictions but — being
	// LRU's sequential-scan worst case — hits only on lucky interleavings.
	// A serial hot-key pass makes the hit counter deterministic.
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("hot%d", i)
		put(c, key, entryFor(i))
		if _, ok := c.Get(key); !ok {
			t.Fatalf("hot key %s missing immediately after put", key)
		}
	}
	st := c.Stats()
	if st.Hits < 4 || st.Misses == 0 || st.Evictions == 0 {
		t.Fatalf("churn should exercise hits, misses and evictions: %+v", st)
	}
}

// TestEvictedEntryStaysReadable holds a reference to an entry across the
// eviction of its key and checks the held value is untouched — eviction
// unlinks, it never scrubs.
func TestEvictedEntryStaysReadable(t *testing.T) {
	c := New(1)
	put(c, "old", entryFor(7))
	held, ok := c.Get("old")
	if !ok {
		t.Fatal("old missing")
	}
	put(c, "new", entryFor(8)) // evicts "old"
	if _, ok := c.Get("old"); ok {
		t.Fatal("old not evicted")
	}
	if held.Welfare != 107 || held.Flow[0] != 7 {
		t.Fatalf("held entry mutated by eviction: %+v", held)
	}
}

// TestDoDispatchesEachKeyOnce: concurrent callers of one missing key share
// a single dispatch; the first counts a miss and the rest hits, however
// they interleave. A failed dispatch reaches its callers and is not
// memoized, and a nil cache dispatches every time.
func TestDoDispatchesEachKeyOnce(t *testing.T) {
	c := New(4)
	var calls atomic.Int64
	release := make(chan struct{})
	dispatch := func() (*flow.Result, error) {
		calls.Add(1)
		<-release
		return entryFor(3), nil
	}
	const callers = 8
	got := make([]*flow.Result, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := c.Do("k", dispatch)
			if err != nil {
				t.Error(err)
			}
			got[i] = r
		}(i)
	}
	// Let every caller reach the key before the dispatch returns.
	for c.Stats().Hits+c.Stats().Misses < callers {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d dispatches for one key, want 1", n)
	}
	for i, r := range got {
		if r != got[0] {
			t.Fatalf("caller %d got another result than caller 0", i)
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != callers-1 || st.Size != 1 {
		t.Fatalf("stats %+v, want 1 miss, %d hits, 1 entry", st, callers-1)
	}

	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if _, err := c.Do("bad", func() (*flow.Result, error) { return nil, boom }); err != boom {
			t.Fatalf("Do returned %v, want the dispatch's error", err)
		}
	}
	if _, ok := c.Get("bad"); ok {
		t.Fatal("a failed dispatch was memoized")
	}

	var nilCache *Cache
	for i := 0; i < 2; i++ {
		if _, err := nilCache.Do("k", dispatch); err != nil {
			t.Fatal(err)
		}
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("nil cache dispatched %d times in 2 calls", n-1)
	}
}

// TestLargeCacheAllocatesLazily: a figure-sized memo of 65,536 entries
// holding a few dispatches must cost a small fraction of a map preallocated
// for its full capacity.
func TestLargeCacheAllocatesLazily(t *testing.T) {
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var keep any
	prealloc := allocated(func() { keep = make(map[string]*list.Element, 1<<16) })
	lazy := allocated(func() {
		c := New(1 << 16)
		for i := 0; i < 4; i++ {
			put(c, fmt.Sprintf("k%d", i), entryFor(i))
		}
		keep = c
	})
	runtime.KeepAlive(keep)
	if lazy*16 > prealloc {
		t.Fatalf("New(1<<16) with 4 entries allocated %d bytes; a preallocated map takes %d", lazy, prealloc)
	}
}
