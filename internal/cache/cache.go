// Package cache is the one cache implementation behind LLAP's data,
// decoded-vector and metadata caches (paper §5.1) and HS2's plan and
// result caches (§4.3). A Cache bounds the summed cost of its entries —
// bytes for the data caches, 1 per entry for the others — and evicts by
// the policy picked at construction. Each caller keeps only its own
// semantics (generation checks, invalidation, single-flight fills) in a
// thin wrapper.
package cache

import (
	"container/heap"
	"math"
	"sync"
)

// Policy selects the eviction order.
type Policy int

const (
	// LRU evicts the least recently used entry, in O(1).
	LRU Policy = iota
	// LRFU evicts the entry with the lowest combined recency-frequency
	// value, in O(log n). Its decay is tuned toward LFU, which suits
	// analytic scans: a chunk read once by a scan does not push out
	// chunks that many queries re-read.
	LRFU
)

// lrfuLambda is the LRFU decay: an entry's value halves every 1/λ
// accesses to the cache without a hit on it.
const lrfuLambda = 0.01

// Stats counts cache effectiveness. UsedBytes is the summed cost of the
// resident entries, which is bytes when Put is charged in bytes.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	UsedBytes int64
	Entries   int
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int64

	prev, next *entry[K, V] // LRU list links

	crf  float64 // LRFU combined recency-frequency value
	last int64   // LRFU logical time of the last access
	rank float64 // LRFU eviction key, see lrfuRank
	slot int     // index in the LRFU heap
}

// order is an eviction policy's bookkeeping over the resident entries.
type order[K comparable, V any] interface {
	access(e *entry[K, V]) // one Get; e is the entry hit, nil on a miss
	add(e *entry[K, V])
	remove(e *entry[K, V])
	victim() *entry[K, V] // the next entry to evict; nil when empty
}

// Cache maps keys to values under a cost bound. It is safe for
// concurrent use; values are shared, not copied.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int64
	entries  map[K]*entry[K, V]
	order    order[K, V]
	stats    Stats // Entries is filled in by Stats
}

// New returns an empty cache holding entries of at most capacity summed
// cost, evicted by policy p.
func New[K comparable, V any](p Policy, capacity int64) *Cache[K, V] {
	c := &Cache[K, V]{capacity: capacity, entries: make(map[K]*entry[K, V])}
	if p == LRFU {
		c.order = &lrfu[K, V]{}
	} else {
		l := &lru[K, V]{}
		l.root.prev, l.root.next = &l.root, &l.root
		c.order = l
	}
	return c
}

// Get returns the value cached under k, counting a hit or a miss, and
// records the access for eviction.
func (c *Cache[K, V]) Get(k K) (V, bool) { return c.GetValid(k, nil) }

// GetValid is Get for values that can go stale: a resident value for
// which valid reports false is removed and the lookup counts as a miss.
// valid runs under the cache's lock and must not call into the cache.
func (c *Cache[K, V]) GetValid(k K, valid func(V) bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[k]
	if e != nil && valid != nil && !valid(e.val) {
		c.removeLocked(e)
		e = nil
	}
	c.order.access(e)
	if e == nil {
		c.stats.Misses++
		var zero V
		return zero, false
	}
	c.stats.Hits++
	return e.val, true
}

// Peek returns the value cached under k without counting a hit or a miss
// and without recording an access.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[k]; e != nil {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Put caches v under k at the given cost, first evicting by policy until
// the new entry fits. A value costlier than the whole capacity is not
// cached, and a resident value under k then stays. Putting a resident
// key replaces its entry as if it were new; a replacement at an
// unchanged cost never evicts.
func (c *Cache[K, V]) Put(k K, v V, cost int64) {
	if cost > c.capacity {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.entries[k]; old != nil {
		c.removeLocked(old)
	}
	for c.stats.UsedBytes+cost > c.capacity {
		c.removeLocked(c.order.victim())
		c.stats.Evictions++
	}
	e := &entry[K, V]{key: k, val: v, cost: cost}
	c.entries[k] = e
	c.order.add(e)
	c.stats.UsedBytes += cost
}

// Remove drops the entry under k, if any. It is not counted as an
// eviction.
func (c *Cache[K, V]) Remove(k K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[k]; e != nil {
		c.removeLocked(e)
	}
}

// RemoveIf drops every entry for which pred reports true, e.g. all keys
// under a dropped table's path. pred runs under the cache's lock and must
// not call into the cache.
func (c *Cache[K, V]) RemoveIf(pred func(K, V) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		if pred(k, e.val) {
			c.removeLocked(e)
		}
	}
}

func (c *Cache[K, V]) removeLocked(e *entry[K, V]) {
	delete(c.entries, e.key)
	c.order.remove(e)
	c.stats.UsedBytes -= e.cost
}

// Capacity returns the bound on the summed cost of the entries.
func (c *Cache[K, V]) Capacity() int64 { return c.capacity }

// Stats returns the cache's counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.entries)
	return st
}

// lru keeps the entries on one intrusive list, most recently used first.
type lru[K comparable, V any] struct {
	root entry[K, V] // sentinel: root.next is the newest, root.prev the victim
}

func (l *lru[K, V]) access(e *entry[K, V]) {
	if e != nil {
		l.remove(e)
		l.add(e)
	}
}

func (l *lru[K, V]) add(e *entry[K, V]) {
	e.prev, e.next = &l.root, l.root.next
	e.prev.next, e.next.prev = e, e
}

func (l *lru[K, V]) remove(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

func (l *lru[K, V]) victim() *entry[K, V] {
	if l.root.prev == &l.root {
		return nil
	}
	return l.root.prev
}

// lrfu ranks the entries by their LRFU value on a logical clock that
// ticks once per Get. An entry's value at time now is
// crf·2^(−λ(now−last)), where crf counts its accesses, each decayed by its
// age at the last one.
type lrfu[K comparable, V any] struct {
	heap  lrfuHeap[K, V] // entries by rank, lowest first
	clock int64
}

// lrfuRank is the time-invariant eviction key of an entry. The log2 of
// its LRFU value at time now is (log2(crf) + λ·last) − λ·now: the second
// term is the same for every entry, so ranking entries by the first term
// ranks them exactly as their current values do, without recomputing a
// value per entry per eviction.
func lrfuRank(crf float64, last int64) float64 {
	return math.Log2(crf) + lrfuLambda*float64(last)
}

func (l *lrfu[K, V]) access(e *entry[K, V]) {
	l.clock++
	if e == nil {
		return
	}
	now := l.clock
	e.crf = 1 + e.crf*math.Pow(2, -lrfuLambda*float64(now-e.last))
	e.last = now
	e.rank = lrfuRank(e.crf, now)
	heap.Fix(&l.heap, e.slot)
}

func (l *lrfu[K, V]) add(e *entry[K, V]) {
	e.crf, e.last, e.rank = 1, l.clock, lrfuRank(1, l.clock)
	heap.Push(&l.heap, e)
}

func (l *lrfu[K, V]) remove(e *entry[K, V]) { heap.Remove(&l.heap, e.slot) }

func (l *lrfu[K, V]) victim() *entry[K, V] {
	if len(l.heap) == 0 {
		return nil
	}
	return l.heap[0]
}

// lrfuHeap is a min-heap of entries on rank: the root is the entry with
// the lowest LRFU value, the next victim.
type lrfuHeap[K comparable, V any] []*entry[K, V]

func (h lrfuHeap[K, V]) Len() int           { return len(h) }
func (h lrfuHeap[K, V]) Less(i, j int) bool { return h[i].rank < h[j].rank }
func (h lrfuHeap[K, V]) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].slot, h[j].slot = i, j
}
func (h *lrfuHeap[K, V]) Push(x any) {
	e := x.(*entry[K, V])
	e.slot = len(*h)
	*h = append(*h, e)
}
func (h *lrfuHeap[K, V]) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return e
}
