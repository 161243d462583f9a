// Package resultcache implements HS2's query results cache (paper §4.3):
// entries are keyed by the resolved query representation plus the
// transactional snapshot of every table read, so transactional consistency
// decides validity. The cache is multi-version: a write does not invalidate
// an entry, it just makes new readers fill a newer version, while readers
// whose snapshot predates the write keep being served the old rows. A
// pending-entry mode protects against a thundering herd of identical
// queries racing to refill after an invalidating write. Each (query,
// snapshot) version is one entry, evicted least recently used first.
package resultcache

import (
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cache"
	"repro/internal/types"
)

// Snapshot maps each table read by the query to the WriteId high watermark
// it was answered under.
type Snapshot map[string]int64

// snapKey renders a snapshot canonically (sorted) for entry keys.
func snapKey(s Snapshot) string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.FormatInt(s[k], 10))
		b.WriteByte(';')
	}
	return b.String()
}

// versionKey is the key of one cached version, and of the pending fill of
// it: the query key plus its snapshot.
func versionKey(key string, snap Snapshot) string { return key + "\x00" + snapKey(snap) }

// entry is one cached version. It is never modified once stored; a refill
// at the same snapshot stores a new entry.
type entry struct {
	key     string
	columns []string
	rows    [][]types.Datum
	frozen  uint64 // content hash under -tags stress; 0 otherwise
}

type pending struct {
	done chan struct{}
}

// Cache is one HS2 instance's results cache.
type Cache struct {
	// mu orders each lookup of entries with the pending-fill check that
	// follows it, and each fill with the release of its pending marker.
	mu       sync.Mutex
	entries  *cache.Cache[string, *entry] // by versionKey
	pendings map[string]*pending          // by versionKey
	waits    int64
}

// New creates a cache bounded to maxEntries cached results in total
// (summed across all versions of all keys).
func New(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = 64
	}
	return &Cache{
		entries:  cache.New[string, *entry](cache.LRU, int64(maxEntries)),
		pendings: make(map[string]*pending),
	}
}

// Outcome reports what Lookup decided.
type Outcome int

// Lookup outcomes.
const (
	Hit        Outcome = iota
	MissFill           // caller should run the query and call Fill/Abandon
	MissWaited         // caller waited for a pending fill; retry Lookup
)

// Lookup probes the cache for an entry at exactly the caller's snapshot. On
// Hit the cached columns and rows are returned; the returned slices are
// fresh headers — callers may append to or reorder them without poisoning
// the shared entry (the row data itself is immutable by contract, enforced
// under -tags stress). On MissFill the caller owns refilling for this
// (key, snapshot) pair: concurrent identical queries at the same snapshot
// wait rather than also running, while queries at other snapshots proceed
// independently. On MissWaited another session just filled or abandoned;
// the caller should retry.
func (c *Cache) Lookup(key string, current Snapshot) ([]string, [][]types.Datum, Outcome) {
	vk := versionKey(key, current)
	c.mu.Lock()
	e, ok := c.entries.Get(vk)
	if ok {
		c.mu.Unlock()
		checkFrozen(e)
		cols := append([]string(nil), e.columns...)
		rows := append([][]types.Datum(nil), e.rows...)
		return cols, rows, Hit
	}
	if p, ok := c.pendings[vk]; ok {
		c.waits++
		c.mu.Unlock()
		<-p.done
		return nil, nil, MissWaited
	}
	c.pendings[vk] = &pending{done: make(chan struct{})}
	c.mu.Unlock()
	return nil, nil, MissFill
}

// Fill completes a MissFill with results computed at snap. An existing
// version at the same snapshot is replaced — replacement never evicts. A
// genuinely new version may evict the least-recently-used entry (possibly
// an older version of the same key) once the cache is full. The pending
// marker for (key, snap) is released; when the run's actual snapshot
// differed from the Lookup snapshot, the caller must Abandon the original
// (key, lookupSnap) reservation separately.
func (c *Cache) Fill(key string, columns []string, rows [][]types.Datum, snap Snapshot) {
	vk := versionKey(key, snap)
	e := &entry{key: key, columns: columns, rows: rows, frozen: freezeHash(columns, rows)}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.Put(vk, e, 1)
	c.release(vk)
}

// Abandon releases a MissFill reservation without caching (nondeterministic
// query, execution error, or a run whose actual snapshot no longer matches
// the reservation).
func (c *Cache) Abandon(key string, snap Snapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.release(versionKey(key, snap))
}

// release closes a pending marker. Caller holds c.mu.
func (c *Cache) release(vk string) {
	if p, ok := c.pendings[vk]; ok {
		close(p.done)
		delete(c.pendings, vk)
	}
}

// Stats returns hit/miss/wait counters. Every Lookup makes exactly one
// lookup of entries; one that then waits on a pending fill is a wait, not
// a miss.
func (c *Cache) Stats() (hits, misses, waits int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.entries.Stats()
	return st.Hits, st.Misses - c.waits, c.waits
}

// Len reports the number of cached result versions (for tests).
func (c *Cache) Len() int { return c.entries.Stats().Entries }
