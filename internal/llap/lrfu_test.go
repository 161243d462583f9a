package llap

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dfs"
)

// scanLRFU is the linear-scan LRFU cache the rank heap replaced, kept as
// the test oracle: on every eviction it computes each entry's current
// value crf·2^(−λ(now−last)) and drops the lowest. Its values underflow
// to zero once an entry has gone ~107K ticks unaccessed, after which its
// choice among the zero-valued entries follows map order; traces here stay
// far below that.
type scanLRFU struct {
	capacity, used          int64
	entries                 map[chunkKey]*chunkEntry
	clock                   int64
	lambda                  float64
	hits, misses, evictions int64
}

// chunkEntry is one entry resident in the oracle.
type chunkEntry struct {
	key  chunkKey
	data []byte
	crf  float64 // combined recency-frequency value
	last int64   // logical time of last access
}

func newScanLRFU(capacity int64) *scanLRFU {
	return &scanLRFU{capacity: capacity, entries: make(map[chunkKey]*chunkEntry), lambda: 0.01}
}

func (c *scanLRFU) access(key chunkKey, size int64) {
	c.clock++
	now := c.clock
	if e, ok := c.entries[key]; ok {
		e.crf = 1 + e.crf*math.Pow(2, -c.lambda*float64(now-e.last))
		e.last = now
		c.hits++
		return
	}
	c.misses++
	if size > c.capacity {
		return
	}
	for c.used+size > c.capacity {
		var victim *chunkEntry
		lowest := math.Inf(1)
		for _, e := range c.entries {
			if v := e.crf * math.Pow(2, -c.lambda*float64(now-e.last)); v < lowest {
				lowest, victim = v, e
			}
		}
		delete(c.entries, victim.key)
		c.used -= int64(len(victim.data))
		c.evictions++
	}
	c.entries[key] = &chunkEntry{key: key, data: make([]byte, size), crf: 1, last: now}
	c.used += size
}

// cacheKeys lists the cache's resident keys: a RemoveIf that removes
// nothing visits every entry.
func cacheKeys(c *Cache) map[chunkKey]bool {
	keys := map[chunkKey]bool{}
	c.RemoveIf(func(k chunkKey, _ []byte) bool {
		keys[k] = true
		return false
	})
	return keys
}

func residentKeys[E any](m map[chunkKey]E) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, fmt.Sprint(k))
	}
	sort.Strings(out)
	return out
}

// TestLRFUHeapMatchesScan replays a seeded single-threaded access trace —
// a hot set re-read at skewed frequencies, interleaved with one-touch scan
// chunks of varying sizes — against the cache and the linear-scan oracle.
// The heap must pick exactly the oracle's victims: hits, misses, evictions
// and the resident key set agree at every checkpoint.
func TestLRFUHeapMatchesScan(t *testing.T) {
	const chunk = 2048
	fs := dfs.New()
	fs.WriteFile("/f", make([]byte, chunk))
	for _, capacity := range []int64{8 << 10, 64 << 10} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			c := NewCache(fs, capacity)
			oracle := newScanLRFU(capacity)
			rng := rand.New(rand.NewSource(7))
			scan := 1000
			for step := 0; step < 20000; step++ {
				var stripe int
				if rng.Intn(3) == 0 {
					scan++
					stripe = scan
				} else {
					stripe = int(rng.ExpFloat64() * 12)
				}
				size := int64(256 + (stripe*37)%7*256)
				key := chunkKey{fileID: 1, stripe: stripe, off: 0}
				if _, err := c.ReadChunk("/f", 1, stripe, 0, 0, size); err != nil {
					t.Fatal(err)
				}
				oracle.access(key, size)
				if step%500 != 499 {
					continue
				}
				st := c.Stats()
				if st.Hits != oracle.hits || st.Misses != oracle.misses || st.Evictions != oracle.evictions || st.UsedBytes != oracle.used {
					t.Fatalf("step %d: cache %+v, oracle hits=%d misses=%d evictions=%d used=%d",
						step, st, oracle.hits, oracle.misses, oracle.evictions, oracle.used)
				}
				got, want := residentKeys(cacheKeys(c)), residentKeys(oracle.entries)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("step %d: resident keys differ\ncache:  %v\noracle: %v", step, got, want)
				}
			}
			if oracle.evictions == 0 || oracle.hits == 0 {
				t.Fatalf("trace exercised too little: %d hits, %d evictions", oracle.hits, oracle.evictions)
			}
		})
	}
}

// BenchmarkChunkCacheChurn measures one churning miss — read, insert, and
// the eviction that makes room — against a full cache of 256, 4K and 16K
// entries. The heap keeps the cost per miss flat as the entry count grows.
func BenchmarkChunkCacheChurn(b *testing.B) {
	const chunk = 1024
	fs := dfs.New()
	fs.WriteFile("/f", make([]byte, chunk))
	for _, entries := range []int{256, 4096, 16384} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			c := NewCache(fs, int64(entries*chunk))
			for i := 0; i < entries; i++ {
				c.ReadChunk("/f", 1, i, 0, 0, chunk)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.ReadChunk("/f", 1, entries+i, 0, 0, chunk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
