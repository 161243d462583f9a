package cache

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

func keys[V any](c *Cache[string, V]) []string {
	var out []string
	c.RemoveIf(func(k string, _ V) bool {
		out = append(out, k)
		return false
	})
	sort.Strings(out)
	return out
}

func TestLRUOrder(t *testing.T) {
	c := New[string, int](LRU, 3)
	for i, k := range []string{"a", "b", "c"} {
		c.Put(k, i, 1)
	}
	c.Get("a")  // b is now least recently used
	c.Peek("b") // a peek does not promote
	c.Put("d", 3, 1)
	if got := fmt.Sprint(keys(c)); got != "[a c d]" {
		t.Fatalf("after evicting the LRU entry: %s, want [a c d]", got)
	}
	c.Put("c", 20, 1) // a replacement counts as a use and does not evict
	c.Put("e", 4, 1)
	if got := fmt.Sprint(keys(c)); got != "[c d e]" {
		t.Fatalf("after replacing c and adding e: %s, want [c d e]", got)
	}
	if v, _ := c.Peek("c"); v != 20 {
		t.Errorf("replaced value = %d, want 20", v)
	}
}

func TestLRFUPrefersFrequent(t *testing.T) {
	c := New[string, int](LRFU, 2)
	c.Put("hot", 0, 1)
	for i := 0; i < 8; i++ {
		c.Get("hot")
	}
	c.Get("cold")
	c.Put("cold", 1, 1)
	c.Get("new")
	c.Put("new", 2, 1) // evicts the once-read entry, not the hot one
	if got := fmt.Sprint(keys(c)); got != "[hot new]" {
		t.Fatalf("resident after eviction: %s, want [hot new]", got)
	}
}

func TestByteChargeAndBypass(t *testing.T) {
	for _, p := range []Policy{LRU, LRFU} {
		c := New[string, []byte](p, 100)
		c.Put("x", make([]byte, 60), 60)
		c.Put("y", make([]byte, 30), 30)
		if st := c.Stats(); st.UsedBytes != 90 || st.Entries != 2 || st.Evictions != 0 {
			t.Fatalf("policy %d: after two puts %+v", p, st)
		}
		c.Put("z", make([]byte, 30), 30) // 120 > 100: x, the older, goes
		if st := c.Stats(); st.UsedBytes != 60 || st.Evictions != 1 {
			t.Fatalf("policy %d: after an evicting put %+v", p, st)
		}
		if _, ok := c.Peek("x"); ok {
			t.Errorf("policy %d: x should have been evicted", p)
		}
		// Costlier than the whole cache: served uncached, nothing evicted,
		// and a resident value under the key stays.
		c.Put("big", make([]byte, 101), 101)
		c.Put("y", make([]byte, 101), 101)
		if st := c.Stats(); st.UsedBytes != 60 || st.Entries != 2 || st.Evictions != 1 {
			t.Errorf("policy %d: oversized puts changed the cache: %+v", p, st)
		}
		if v, ok := c.Peek("y"); !ok || len(v) != 30 {
			t.Errorf("policy %d: oversized put displaced the resident y", p)
		}
		// A replacement at a higher cost evicts others until it fits.
		c.Put("y", make([]byte, 90), 90)
		if st := c.Stats(); st.UsedBytes != 90 || st.Entries != 1 || st.Evictions != 2 {
			t.Errorf("policy %d: costlier replacement: %+v", p, st)
		}
	}
}

func TestRemoveIfAndGetValid(t *testing.T) {
	c := New[string, int](LRU, 10)
	for i, k := range []string{"/t/a", "/t/b", "/u/a"} {
		c.Put(k, i, 1)
	}
	c.RemoveIf(func(k string, _ int) bool { return k[:3] == "/t/" })
	if got := fmt.Sprint(keys(c)); got != "[/u/a]" {
		t.Fatalf("after RemoveIf: %s", got)
	}
	c.Remove("/u/a")
	c.Remove("/u/a")
	if st := c.Stats(); st.Entries != 0 || st.UsedBytes != 0 || st.Evictions != 0 {
		t.Fatalf("removals are not evictions and free their cost: %+v", st)
	}
	c.Put("f", 1, 1)
	if _, ok := c.GetValid("f", func(gen int) bool { return gen == 2 }); ok {
		t.Error("a stale value was served")
	}
	if _, ok := c.Peek("f"); ok {
		t.Error("a stale value stayed resident")
	}
	c.Put("f", 2, 1)
	if v, ok := c.GetValid("f", func(gen int) bool { return gen == 2 }); !ok || v != 2 {
		t.Errorf("a valid value was not served: %d %v", v, ok)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("a stale lookup counts as a miss: %+v", st)
	}
}

func TestStats(t *testing.T) {
	c := New[int, int](LRU, 2)
	c.Get(1)
	c.Put(1, 1, 1)
	c.Get(1)
	c.Get(1)
	c.Peek(2)
	c.Put(2, 2, 1)
	c.Put(3, 3, 1)
	want := Stats{Hits: 2, Misses: 1, Evictions: 1, UsedBytes: 2, Entries: 2}
	if st := c.Stats(); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
}

// TestConcurrent races gets, puts, replacements and removals from several
// goroutines against a cache far smaller than the key space. Run with
// -race; the cost bound and the counters must hold throughout.
func TestConcurrent(t *testing.T) {
	for _, p := range []Policy{LRU, LRFU} {
		c := New[int, []byte](p, 64)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					k := (i*7 + w) % 50
					if v, ok := c.Get(k); ok && len(v) != 1+k%8 {
						t.Errorf("key %d: value of %d bytes", k, len(v))
						return
					}
					c.Put(k, make([]byte, 1+k%8), int64(1+k%8))
					if i%100 == 0 {
						c.RemoveIf(func(k int, _ []byte) bool { return k%10 == w })
					}
					if st := c.Stats(); st.UsedBytes > 64 {
						t.Errorf("over capacity: %+v", st)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if st := c.Stats(); st.Hits+st.Misses != 4*2000 {
			t.Errorf("policy %d: lost lookups: %+v", p, st)
		}
	}
}

// BenchmarkCacheChurn measures one churning miss — the lookup, the put and
// the eviction that makes room — against a full cache of 256, 4K and 16K
// entries, under each policy. Both keep the cost per miss flat as the
// entry count grows.
func BenchmarkCacheChurn(b *testing.B) {
	for _, p := range []struct {
		name   string
		policy Policy
	}{{"lru", LRU}, {"lrfu", LRFU}} {
		for _, entries := range []int{256, 4096, 16384} {
			b.Run(fmt.Sprintf("%s/entries=%d", p.name, entries), func(b *testing.B) {
				c := New[int, int](p.policy, int64(entries))
				for i := 0; i < entries; i++ {
					c.Put(i, i, 1)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k := entries + i
					if _, ok := c.Get(k); !ok {
						c.Put(k, k, 1)
					}
				}
			})
		}
	}
}
