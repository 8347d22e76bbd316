package solvecache

import (
	"fmt"
	"sync"
	"testing"
)

func entryFor(i int) Entry {
	return Entry{
		Profits: []float64{float64(i), float64(2 * i)},
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
				c.Put(fmt.Sprintf("k%d", i), entryFor(i))
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

// TestLRUOrdering pins the recency contract: Get refreshes an entry, Put of
// an existing key refreshes it, and eviction always takes the least
// recently used key.
func TestLRUOrdering(t *testing.T) {
	c := New(3)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), entryFor(i))
	}
	// Recency now k2 > k1 > k0. Touch k0 via Get, k1 via re-Put.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	c.Put("k1", entryFor(1))
	got := c.Keys()
	want := []string{"k1", "k0", "k2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recency order %v, want %v", got, want)
		}
	}
	// Next insert must evict k2 (least recently used).
	c.Put("k3", entryFor(3))
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
	c.Put("k", entryFor(1))
	c.Put("k", entryFor(99))
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
		c.Put("k", entryFor(1))
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
// Get/Put/Stats/Keys are safe and that every hit returns an uncorrupted
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
					if e.Welfare != float64(100+i) || e.Profits[0] != float64(i) || e.Profits[1] != float64(2*i) {
						t.Errorf("corrupt entry for %s: %+v", key, e)
						return
					}
				} else {
					c.Put(key, entryFor(i))
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
		c.Put(key, entryFor(i))
		if _, ok := c.Get(key); !ok {
			t.Fatalf("hot key %s missing immediately after Put", key)
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
	c.Put("old", entryFor(7))
	held, ok := c.Get("old")
	if !ok {
		t.Fatal("old missing")
	}
	c.Put("new", entryFor(8)) // evicts "old"
	if _, ok := c.Get("old"); ok {
		t.Fatal("old not evicted")
	}
	if held.Welfare != 107 || held.Profits[0] != 7 {
		t.Fatalf("held entry mutated by eviction: %+v", held)
	}
}
